import random

from conftest import DATA, rand_formula, shallow_stack
from oracle import OracleConfig, _Goal, eval_assertion

from heapcheck import formula as fm
from heapcheck import termir as tir
from heapcheck.entail import FreshNames, formula_to_symheaps
from heapcheck.interp import ConcreteState
from heapcheck.parser import assertion_term, parse_assertion, parse_program


def test_emp_is_star_unit():
    f = fm.Star((fm.Emp(), fm.PointsTo(fm.Var("x"), fm.IntLit(5))))
    assert fm.normalize(f) == fm.PointsTo(fm.Var("x"), fm.IntLit(5))


def test_star_operands_sorted_canonically():
    # canonical order fixed by the implementation; idempotence is the oracle
    f = fm.Star(
        (fm.PointsTo(fm.Var("b"), fm.Var("c")), fm.PointsTo(fm.Var("a"), fm.IntLit(5)))
    )
    n = fm.normalize(f)
    assert n == fm.Star(
        (fm.PointsTo(fm.Var("a"), fm.IntLit(5)), fm.PointsTo(fm.Var("b"), fm.Var("c")))
    )
    assert fm.normalize(n) == n


def test_paper_postcondition_normalizes_flat():
    f = parse_assertion("a->5 * b->c * c->object(myClass1,15)")
    assert fm.pretty(fm.normalize(f)) == "a->5 * b->c * c->object(myClass1, 15)"


def test_normalize_true_false_units():
    h = fm.PointsTo(fm.Var("x"), fm.IntLit(1))
    assert fm.normalize(fm.And((fm.TrueF(), h))) == h
    assert fm.normalize(fm.Star((fm.FalseF(), h))) == fm.FalseF()
    assert fm.normalize(fm.And((fm.FalseF(), h))) == fm.FalseF()
    assert fm.normalize(fm.Or((fm.FalseF(), h))) == h


def test_normalize_dedupes_and_or_parts_but_not_star():
    for text, canonical in (
        ("b == 1 && a == 1 && b == 1", "a==1 && b==1"),
        ("(a == 1 && b == 2) && a == 1", "a==1 && b==2"),
        ("x->1 || y->2 || x->1", "x->1 || y->2"),
        ("x->1 * x->1", "x->1 * x->1"),
    ):
        assert fm.pretty(fm.normalize(parse_assertion(text))) == canonical


def test_normalize_idempotent_property():
    rng = random.Random(11)
    for _ in range(400):
        f = rand_formula(rng)
        n = fm.normalize(f)
        assert fm.normalize(n) == n, fm.pretty(f)


def test_normalize_alpha_renames_binders():
    f = parse_assertion("exists q. x->q")
    g = parse_assertion("exists r. x->r")
    assert fm.normalize(f) == fm.normalize(g)


def test_normalize_drops_unused_binder():
    f = parse_assertion("exists q. x->1")
    assert fm.normalize(f) == fm.PointsTo(fm.Var("x"), fm.IntLit(1))


def test_substitute_simple():
    f = fm.PointsTo(fm.Var("x"), fm.IntLit(5))
    assert fm.substitute(f, {"x": fm.Var("y")}) == fm.PointsTo(fm.Var("y"), fm.IntLit(5))


def test_substitute_capture_avoidance():
    f = fm.Exists(("x",), fm.PointsTo(fm.Var("x"), fm.Var("v")))
    g = fm.substitute(f, {"v": fm.Var("x")})
    assert isinstance(g, fm.Exists)
    (var,) = g.vars
    assert var != "x"
    assert g.body == fm.PointsTo(fm.Var(var), fm.Var("x"))


def test_substitute_pred_args():
    f = fm.PredApp("list", (fm.Var("s"), fm.Var("e")))
    g = fm.substitute(f, {"s": fm.Var("x"), "e": fm.Nil()})
    assert g == fm.PredApp("list", (fm.Var("x"), fm.Nil()))
    assert fm.free_vars(g) == {"x"}


def test_free_vars_examples():
    assert fm.free_vars(fm.Emp()) == set()
    f = parse_assertion("a->5 * b->c")
    assert fm.free_vars(f) == {"a", "b", "c"}
    assert fm.free_vars(fm.Exists(("x",), fm.PointsTo(fm.Var("x"), fm.Var("y")))) == {"y"}


def test_substitute_free_vars_law():
    rng = random.Random(5)
    for _ in range(300):
        f = rand_formula(rng)
        fv = fm.free_vars(f)
        if not fv:
            continue
        x = sorted(fv)[0]
        e = fm.ArithExpr("+", fm.Var("q"), fm.IntLit(1))
        g = fm.substitute(f, {x: e})
        assert fm.free_vars(g) == (fv - {x}) | {"q"}


def test_pretty_reparses_to_same_normal_form():
    rng = random.Random(3)
    for _ in range(400):
        f = fm.normalize(rand_formula(rng))
        text = fm.pretty(f)
        again = parse_assertion(text)
        assert fm.normalize(again) == f, text


def test_normalize_preserves_meaning_on_small_models():
    # semantic preservation over tiny concrete states
    rng = random.Random(19)
    states = [
        ConcreteState({}, {}),
        ConcreteState({"x": 1, "y": 2, "z": 0}, {1: 5}),
        ConcreteState({"x": 1, "y": 2, "z": 3}, {1: 2, 2: 0}),
        ConcreteState({"x": 4, "y": 4, "z": 1}, {4: 7, 1: 4, 2: 2}),
    ]
    for _ in range(150):
        f = rand_formula(rng)
        n = fm.normalize(f)
        for s in states:
            assert eval_assertion(f, s) == eval_assertion(n, s), fm.pretty(f)


def test_builtin_list_predicate_shape():
    table = fm.builtin_preds()
    d = table["list"]
    assert d.params == ("s", "e")
    assert isinstance(d.body, fm.Or)


def test_pred_table_validation():
    import pytest

    from heapcheck.errors import AssertionSyntaxError

    good = fm.PredDef("two", ("a", "b"), parse_assertion("a->1 * b->2"))
    table = fm.check_pred_table([good])
    assert set(table) == {"list", "two"}
    bad = fm.PredDef("leaky", ("a",), parse_assertion("a->1 * b->2"))
    with pytest.raises(AssertionSyntaxError):
        fm.check_pred_table([bad])
    clash = fm.PredDef("list", ("a",), parse_assertion("a->1"))
    with pytest.raises(AssertionSyntaxError):
        fm.check_pred_table([clash])


# -- binder edge cases: canonical text recorded before the one-walk renaming ----

_V, _E, _S, _P = fm.Var, fm.Exists, fm.Star, fm.PointsTo

BINDER_CASES = [
    # (formula, printed input, canonical text)
    (parse_assertion("exists x. exists x. x->y"), "exists x, x. x->y", "exists e0. e0->y"),
    (
        parse_assertion("exists x. (x->1 * (exists x. x->2))"),
        "exists x. x->1 * (exists x. x->2)",
        "exists e0. e0->1 * (exists e1. e1->2)",
    ),
    (parse_assertion("exists x. exists x. x->x"), "exists x, x. x->x", "exists e0. e0->e0"),
    (parse_assertion("exists e0. exists x. e0->x"), "exists e0, x. e0->x", "exists e0, e1. e0->e1"),
    (
        parse_assertion("e0->1 * (exists e1. exists x. x->e1)"),
        "e0->1 * (exists e1, x. x->e1)",
        "e0->1 * (exists e1, e2. e2->e1)",
    ),
    (
        _E(("x", "$e1"), _S((_P(_V("x"), _V("$e1")), _P(_V("$e1"), _V("e1"))))),
        "exists x, $e1. x->$e1 * $e1->e1",
        "exists e0, e2. e0->e2 * e2->e1",
    ),
    (_E(("$e1", "x"), _P(_V("$e1"), _V("x"))), "exists $e1, x. $e1->x", "exists e0, e1. e0->e1"),
    (
        parse_assertion("exists a, b, c, d. a->c * c->d"),
        "exists a, b, c, d. a->c * c->d",
        "exists e0, e1, e2. e0->e1 * e1->e2",
    ),
    (parse_assertion("exists a, b, c. c->1"), "exists a, b, c. c->1", "exists e0. e0->1"),
    (
        parse_assertion("x->1 * (exists a, b. a->b) * y->2"),
        "x->1 * (exists a, b. a->b) * y->2",
        "x->1 * y->2 * (exists e0, e1. e0->e1)",
    ),
    (
        parse_assertion("(exists a, b. a->b) * (exists a, b. b->a)"),
        "(exists a, b. a->b) * (exists a, b. b->a)",
        "(exists e0, e1. e0->e1) * (exists e2, e3. e3->e2)",
    ),
    (
        # the outer x is back in scope after the shadowing chain
        parse_assertion("exists x. (x->1 * (exists x. x->2) * (exists y. y->x))"),
        "exists x. x->1 * (exists x. x->2) * (exists y. y->x)",
        "exists e0. e0->1 * (exists e1. e1->2) * (exists e2. e2->e0)",
    ),
    (
        # x is free again after the binder's scope
        parse_assertion("(a->1 * (exists x. x->1)) && (b->x * c->1)"),
        "a->1 * (exists x. x->1) && b->x * c->1",
        "a->1 * (exists e0. e0->1) && b->x * c->1",
    ),
    (
        parse_assertion("exists a. (a->1 * (exists b. b->a))"),
        "exists a. a->1 * (exists b. b->a)",
        "exists e0. e0->1 * (exists e1. e1->e0)",
    ),
    (
        parse_assertion("exists a. exists b. (a->b && b != a)"),
        "exists a, b. a->b && b!=a",
        "exists e0, e1. e1!=e0 && e0->e1",
    ),
]


def test_normalize_binder_edge_cases():
    for f, text, canonical in BINDER_CASES:
        assert fm.pretty(f) == text
        n = fm.normalize(f)
        assert fm.pretty(n) == canonical, text
        assert fm.normalize(n) == n, text


def test_normalize_long_binder_chain():
    # a 300-binder chain is deeper than the default recursion limit allows
    # record equality to compare
    f = parse_assertion("x->" + ", ".join(f"a{i}" for i in range(300)))
    text = fm.pretty(fm.normalize(f))
    assert text.startswith("exists e0, e1, e2, ") and text.count("->") == 300
    assert "x->object(node, a0, e0)" in text and "e298->object(node, a299, nil)" in text


# -- flat parts: long chains cost no depth, and the splice invariant holds ----


LONG_CHAINS = {
    "star": " * ".join(f"x{i}->{i}" for i in range(5000)),
    "and": " && ".join([f"x{i} == {i}" for i in range(4999)] + ["y->1"]),
    "exists": "exists "
    + ", ".join(f"v{i}" for i in range(1000))
    + ". "
    + " * ".join(["v0->y"] + [f"v{i}->v{i - 1}" for i in range(1, 1000)]),
}


def test_walkers_loop_over_long_chains():
    table = fm.builtin_preds()
    for name, text in LONG_CHAINS.items():
        with shallow_stack():
            t = assertion_term(text)
            f = parse_assertion(text)
            fm.free_vars(f)
            fm.substitute(f, {"y": fm.Var("v0"), "x0": fm.Nil()})
            assert fm.or_free(f) == [f]
            assert not fm.is_pure_only(f)
            tir.check_instances(t, table, name)
            n = fm.normalize(f)  # _fold_formula, _normalize1, _canon_binders
            assert parse_assertion(fm.pretty(n)) == n, name
            assert len(formula_to_symheaps(f, FreshNames())) == 1
            parts: list = []
            _Goal({}, table, OracleConfig(), 3).extract(f, parts, {"absorb": False})
            assert len(parts) == (1000 if name == "exists" else 5000)
            tir.check_shape(t)
            assert tir.term_to_formula(t) == f
            assert tir.term_to_formula(tir.parse_term(tir.emit_text(t))) == f, name


def well_formed(f: fm.Formula) -> None:
    """No node has a last part of its own connective, and no Exists sits
    directly under an Exists."""
    work = [f]
    while work:
        g = work.pop()
        if isinstance(g, (fm.Star, fm.And, fm.Or)):
            assert len(g.parts) >= 2 and not isinstance(g.parts[-1], type(g)), fm.pretty(g)
            work.extend(g.parts)
        elif isinstance(g, fm.Exists):
            assert g.vars and not isinstance(g.body, fm.Exists), fm.pretty(g)
            work.append(g.body)


SPLICE_CASES = [
    "(a->1 * b->2) * c->3",
    "a->1 * (b->2 * c->3)",
    "exists x. exists y. x->y",
    "exists x, x. x->1",
]


def test_parts_splice_only_the_last_part():
    a, b, c = (fm.PointsTo(fm.Var(v), fm.IntLit(i)) for i, v in enumerate("abc", 1))
    assert parse_assertion("(a->1 * b->2) * c->3") == fm.Star((fm.Star((a, b)), c))
    assert fm.pretty(parse_assertion("(a->1 * b->2) * c->3")) == "(a->1 * b->2) * c->3"
    assert parse_assertion("a->1 * (b->2 * c->3)") == fm.Star((a, b, c))
    assert parse_assertion("a->1 * (b->2 * c->3)") == parse_assertion("a->1 * b->2 * c->3")
    xy = fm.PointsTo(fm.Var("x"), fm.Var("y"))
    assert parse_assertion("exists x. exists y. x->y") == fm.Exists(("x", "y"), xy)
    x1 = fm.PointsTo(fm.Var("x"), fm.IntLit(1))
    assert parse_assertion("exists x, x. x->1") == fm.Exists(("x", "x"), x1)
    # only the last part prints at its connective's own precedence
    for text in (
        "a->1 || exists x. x->1",
        "(exists x. x->1) || a->1",
        "(a->1 || b->2) || c->3",
        "a->1 && (b==2 || c==3)",
    ):
        assert fm.pretty(parse_assertion(text)) == text


def program_formulas(term: tir.Term) -> list[fm.Formula]:
    """The formulas a program term carries: predicate bodies, each function's
    contracts (true where absent), its statement asserts and loop invariants."""
    fields = tir.term_class_fields(term)
    out = [d.body for d in tir.term_predicates(term)]

    def walk(stmts) -> None:
        for t in stmts:
            if isinstance(t, tir.TList):
                walk(t.items)
            elif t.functor == "assert":
                out.append(tir.term_to_formula(t.args[0], fields))
            elif t.functor == "while":
                out.append(tir.term_to_formula(t.args[1].args[0], fields))
                walk(t.args[2].items)
            elif t.functor == "ite":
                for block in t.args[1:]:
                    walk(block.items)

    for fn in tir.term_functions(term):
        pre, stmts, post = tir.split_contracts(fn, fields)
        out += [pre, post]
        walk(stmts)
    return out


def test_round_trips_keep_the_splice_invariant():
    rng = random.Random(66)
    generated = [rand_formula(rng, 4) for _ in range(300)]
    from_files = []
    for path in sorted(DATA.glob("*.oc")):
        term = tir.lower_program(parse_program(path.read_text(encoding="utf-8")))
        from_files += program_formulas(term)
    assert len(from_files) == 31
    parsed = [parse_assertion(text) for text in SPLICE_CASES] + from_files
    for f in generated + parsed:
        n = fm.normalize(f)
        for g in (f, n):
            well_formed(g)
            text = fm.pretty(g)
            back = tir.term_to_formula(tir.parse_term(tir.emit_text(assertion_term(text))))
            assert back == parse_assertion(text), text
            well_formed(back)
            assert fm.normalize(parse_assertion(text)) == n, text
    for f in parsed:
        assert parse_assertion(fm.pretty(f)) == f, fm.pretty(f)
