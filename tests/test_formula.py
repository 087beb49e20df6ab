import random

from conftest import rand_formula

from heapcheck import formula as fm
from heapcheck.interp import ConcreteState, eval_assertion
from heapcheck.parser import parse_assertion


def test_emp_is_star_unit():
    f = fm.Star(fm.Emp(), fm.PointsTo(fm.Var("x"), fm.IntLit(5)))
    assert fm.normalize(f) == fm.PointsTo(fm.Var("x"), fm.IntLit(5))


def test_star_operands_sorted_canonically():
    # canonical order fixed by the implementation; idempotence is the oracle
    f = fm.Star(
        fm.PointsTo(fm.Var("b"), fm.Var("c")), fm.PointsTo(fm.Var("a"), fm.IntLit(5))
    )
    n = fm.normalize(f)
    assert n == fm.Star(
        fm.PointsTo(fm.Var("a"), fm.IntLit(5)), fm.PointsTo(fm.Var("b"), fm.Var("c"))
    )
    assert fm.normalize(n) == n


def test_paper_postcondition_normalizes_flat():
    f = parse_assertion("a->5 * b->c * c->object(myClass1,15)")
    assert fm.pretty(fm.normalize(f)) == "a->5 * b->c * c->object(myClass1, 15)"


def test_normalize_true_false_units():
    h = fm.PointsTo(fm.Var("x"), fm.IntLit(1))
    assert fm.normalize(fm.And(fm.TrueF(), h)) == h
    assert fm.normalize(fm.Star(fm.FalseF(), h)) == fm.FalseF()
    assert fm.normalize(fm.And(fm.FalseF(), h)) == fm.FalseF()
    assert fm.normalize(fm.Or(fm.FalseF(), h)) == h


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
    f = fm.Exists("x", fm.PointsTo(fm.Var("x"), fm.Var("v")))
    g = fm.substitute(f, {"v": fm.Var("x")})
    assert isinstance(g, fm.Exists)
    assert g.var != "x"
    assert g.body == fm.PointsTo(fm.Var(g.var), fm.Var("x"))


def test_substitute_pred_args():
    f = fm.PredApp("list", (fm.Var("s"), fm.Var("e")))
    g = fm.substitute(f, {"s": fm.Var("x"), "e": fm.Nil()})
    assert g == fm.PredApp("list", (fm.Var("x"), fm.Nil()))
    assert fm.free_vars(g) == {"x"}


def test_free_vars_examples():
    assert fm.free_vars(fm.Emp()) == set()
    f = parse_assertion("a->5 * b->c")
    assert fm.free_vars(f) == {"a", "b", "c"}
    assert fm.free_vars(fm.Exists("x", fm.PointsTo(fm.Var("x"), fm.Var("y")))) == {"y"}


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
    assert d.builtin
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
        _E("x", _E("$e1", _S(_P(_V("x"), _V("$e1")), _P(_V("$e1"), _V("e1"))))),
        "exists x, $e1. x->$e1 * $e1->e1",
        "exists e0, e2. e0->e2 * e2->e1",
    ),
    (_E("$e1", _E("x", _P(_V("$e1"), _V("x")))), "exists $e1, x. $e1->x", "exists e0, e1. e0->e1"),
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
    # dataclass equality to compare
    f = fm.chain_points_to(fm.Var("x"), [fm.Var(f"a{i}") for i in range(300)])
    text = fm.pretty(fm.normalize(f))
    assert text.startswith("exists e0, e1, e2, ") and text.count("->") == 300
    assert "x->object(node, a0, e0)" in text and "e298->object(node, a299, nil)" in text
