import random

import pytest

from conftest import heap_of, rand_expr, rand_formula
from oracle import OracleConfig, _Goal, check_entailment_sound, enumerate_models

from heapcheck import formula as fm
from heapcheck.entail import (
    Failed,
    FreshNames,
    Proved,
    SymHeap,
    formula_to_symheaps,
    infer_frame,
    pred_cases,
    prove,
    unfold,
)
from heapcheck.errors import HeapcheckError, UnknownPredicateError, UnsupportedFormulaError
from heapcheck.parser import parse_assertion
from heapcheck.prooftree import ProofTree, to_structured

PREDS = fm.builtin_preds()


def con(text: str) -> SymHeap:
    return heap_of(text, skolemize=False)


def test_reflexivity_frame_emp():
    r = prove(heap_of("a->5 * b->c"), con("a->5 * b->c"), PREDS)
    assert isinstance(r, Proved)
    assert fm.normalize(r.frame.to_formula()) == fm.Emp()


def test_frame_inference_example():
    r = prove(heap_of("x->3 * y->4"), con("y->4"), PREDS)
    assert isinstance(r, Proved)
    assert r.frame.pretty() == "x->3"
    # independent finite-model check of the spec's derived example
    assert check_entailment_sound(heap_of("x->3 * y->4"), con("y->4"), r.frame) is None


def test_nothing_to_consume_fails_with_residue():
    r = prove(heap_of("emp"), con("exists v. x->v"), PREDS)
    assert isinstance(r, Failed)
    assert len(r.residue_consequent) == 1
    assert isinstance(r.residue_consequent[0], fm.PointsTo)


def test_paper_chain_entails_list_with_leftover():
    r = prove(heap_of("x->a,b,c,d,e,f * y->f"), con("list(x, nil)"), PREDS, depth=8)
    assert isinstance(r, Proved)
    assert r.frame.pretty() == "y->f"


def test_depth_bound_reports_failure_never_proved():
    r = prove(heap_of("x->1,2,3"), con("list(x, nil)"), PREDS, depth=2)
    assert isinstance(r, Failed)
    assert r.nearest_rule in ("depth-exceeded", "fold")


def test_pred_instance_exact_match():
    r = prove(heap_of("list(a, nil) * z->9"), con("list(a, nil)"), PREDS)
    assert isinstance(r, Proved)
    assert r.frame.pretty() == "z->9"
    assert check_entailment_sound(heap_of("list(a, nil) * z->9"), con("list(a, nil)"), r.frame) is None


def test_infer_frame_one_atom():
    r = infer_frame(heap_of("x->3 * y->4"), con("x->3"), PREDS)
    assert isinstance(r, Proved)
    assert r.frame.pretty() == "y->4"


def test_infer_frame_failure_residue_is_raw_material():
    r = infer_frame(heap_of("emp"), con("exists v. x->v"), PREDS)
    assert isinstance(r, Failed)
    assert r.residue_consequent


def test_unfold_list_two_disjuncts():
    h = heap_of("list(x, e)")
    inst = next(a for a in h.spatial if isinstance(a, fm.PredApp))
    cases = unfold(h, inst, PREDS, FreshNames("u"))
    assert len(cases) == 2
    base, step = cases
    assert not base.spatial
    assert any(isinstance(a, fm.PointsTo) for a in step.spatial)
    assert any(isinstance(a, fm.PredApp) for a in step.spatial)


def test_unfold_prunes_contradictory_case():
    h = heap_of("list(x, e)").add_pure("!=", fm.Var("x"), fm.Var("e"))
    inst = next(a for a in h.spatial if isinstance(a, fm.PredApp))
    cases = unfold(h, inst, PREDS, FreshNames("u"))
    assert len(cases) == 1
    assert any(isinstance(a, fm.PointsTo) for a in cases[0].spatial)


def test_unfold_non_recursive_pred():
    table = dict(PREDS)
    table["single"] = fm.PredDef("single", ("a",), parse_assertion("a->1"))
    h = SymHeap(spatial=(fm.PredApp("single", (fm.Var("q"),)),))
    cases = unfold(h, h.spatial[0], table, FreshNames("u"))
    assert len(cases) == 1
    assert cases[0].spatial == (fm.PointsTo(fm.Var("q"), fm.IntLit(1)),)


def test_unknown_predicate_raises():
    h = SymHeap(spatial=(fm.PredApp("mystery", (fm.Var("q"),)),))
    with pytest.raises(UnknownPredicateError):
        unfold(h, h.spatial[0], PREDS, FreshNames("u"))
    with pytest.raises(UnknownPredicateError):
        prove(h, con("emp"), PREDS)


def test_vacuous_entailment_from_contradiction():
    h = heap_of("x->1").add_pure("==", fm.Var("x"), fm.Nil())
    r = prove(h, con("y->2 * z->3"), PREDS)
    assert isinstance(r, Proved)
    assert r.tree.rule == "pure-contradiction"


def test_pure_side_condition_unknown_is_failure():
    # consequent demands a pure fact the antecedent cannot establish
    r = prove(heap_of("x->1"), con("x->1 && y<z"), PREDS)
    assert isinstance(r, Failed)
    assert r.nearest_rule == "pure-check"


def test_existential_binding_reported():
    goal = con("exists v. x->v")
    r = prove(heap_of("x->7"), goal, PREDS)
    assert isinstance(r, Proved)
    assert list(r.binding.values()) == [fm.IntLit(7)]
    assert set(r.binding) <= goal.existentials


def test_antecedent_unfold_case_split():
    h = heap_of("list(x, nil)").add_pure("!=", fm.Var("x"), fm.IntLit(0))
    goal = con("exists v, t. x->object(node, v, t) * list(t, nil)")
    r = prove(h, goal, PREDS)
    assert isinstance(r, Proved)


def test_deterministic_proof_trees():
    def run():
        r = prove(heap_of("x->3 * y->4 * z->5"), con("y->4 * exists v. z->v"), PREDS)
        return to_structured(ProofTree(r.tree))

    assert run() == run()


def test_well_separation_derived():
    h = heap_of("x->1 * y->2")
    assert h.sep_pure().entails("!=", fm.Var("x"), fm.Var("y")) == "yes"
    assert h.sep_pure().entails("!=", fm.Var("x"), fm.IntLit(0)) == "yes"


def test_unsupported_formula_rejected():
    with pytest.raises(UnsupportedFormulaError):
        formula_to_symheaps(parse_assertion("x->1 && y->2"), FreshNames())
    with pytest.raises(UnsupportedFormulaError):
        formula_to_symheaps(parse_assertion("x.f->1"), FreshNames())


def test_or_forks_into_disjunct_heaps():
    heaps = formula_to_symheaps(parse_assertion("x->1 || y->2"), FreshNames())
    assert len(heaps) == 2


def test_frame_rule_closure_sample():
    rng = random.Random(31)
    base_cases = [
        ("x->3", "x->3"),
        ("x->3 * y->4", "y->4"),
        ("x->object(node, 1, nil)", "list(x, nil)"),
        ("list(a, nil) * z->9", "list(a, nil)"),
    ]
    for ant_text, con_text in base_cases:
        r = prove(heap_of(ant_text), con(con_text), PREDS)
        assert isinstance(r, Proved)
        for i in range(5):
            extra_var = f"w{i}"
            extra = f"{extra_var}->{rng.randint(0, 4)}"
            r2 = prove(
                heap_of(f"{ant_text} * {extra}"), con(f"{con_text} * {extra}"), PREDS
            )
            assert isinstance(r2, Proved), (ant_text, extra)


def test_soundness_spot_check_against_models():
    # a handful of named instances, each validated by exhaustive enumeration
    cases = [
        ("x->3 * y->4", "y->4"),
        ("x->0 * y->x", "exists v. y->v"),
        ("x->object(node, 1, nil)", "list(x, nil)"),
        ("x==1 && x->2", "x->2"),
        ("list(a, nil)", "list(a, nil)"),
    ]
    for ant_text, con_text in cases:
        ant = heap_of(ant_text)
        r = prove(ant, con(con_text), PREDS)
        assert isinstance(r, Proved), ant_text
        assert check_entailment_sound(ant, con(con_text), r.frame) is None, ant_text


def test_enumerate_models_is_exact():
    models = list(enumerate_models(heap_of("x->1")))
    assert models
    assert all(len(m.heap) == 1 for m in models)
    empty_or_one = list(enumerate_models(heap_of("list(x, nil)")))
    lens = {len(m.heap) for m in empty_or_one}
    assert lens == {0, 1, 2, 3}


def test_no_false_unsat_pruning():
    # every unfold case dropped as inconsistent must truly have no model
    import random

    rng = random.Random(17)
    texts = [
        "list(x, nil)",
        "list(x, e)",
        "x->7 * list(x, nil)",
        "x==0 && list(x, nil)",
        "x!=0 && list(x, e) * e->1",
    ]
    for text in texts:
        h = heap_of(text)
        for inst in [a for a in h.spatial if isinstance(a, fm.PredApp)]:
            kept = unfold(h, inst, PREDS, FreshNames("u"), prune=True)
            everything = unfold(h, inst, PREDS, FreshNames("u"), prune=False)
            for case in everything:
                if any(k.pretty() == case.pretty() for k in kept):
                    continue
                assert not list(enumerate_models(case)), (text, case.pretty())


# -- binders: fresh names recorded before the renaming map was threaded --------


def _heap_text(f: fm.Formula, skolemize: bool) -> list:
    return [
        (
            sorted(h.existentials),
            [fm.pretty(a) for a in h.spatial],
            [fm.pretty(fm.PureAtom(*p)) for p in h.pure.atoms],
        )
        for h in formula_to_symheaps(f, FreshNames(), skolemize=skolemize)
    ]


def test_formula_to_symheaps_binder_edge_cases():
    V, E, S, P = fm.Var, fm.Exists, fm.Star, fm.PointsTo
    cases = [
        (parse_assertion("exists x. exists x. x->y"), ["$e2->y"], []),
        (parse_assertion("exists x. (x->1 * (exists x. x->2))"), ["$e1->1", "$e2->2"], []),
        (parse_assertion("exists x. ((exists x. x->2) * x->1)"), ["$e2->2", "$e1->1"], []),
        (parse_assertion("exists x. ((exists y, x. y->x) * x->y)"), ["$e2->$e3", "$e1->y"], []),
        (parse_assertion("exists e0. exists x. e0->x"), ["$e1->$e2"], []),
        (parse_assertion("e0->1 * (exists e1. exists x. x->e1)"), ["e0->1", "$e2->$e1"], []),
        # a binder named like the first fresh name is renamed, not captured
        (E(("x", "$e1"), S((P(V("x"), V("$e1")), P(V("$e1"), V("e1"))))), ["$e1->$e2", "$e2->e1"], []),
        (E(("$e1", "x"), P(V("$e1"), V("x"))), ["$e1->$e2"], []),
        (parse_assertion("exists a, b, c, d. a->c * c->d"), ["$e1->$e3", "$e3->$e4"], []),
        (parse_assertion("x->1 * (exists a, b. a->b) * y->2"), ["x->1", "$e1->$e2", "y->2"], []),
        (parse_assertion("(exists a, b. a->b) * (exists a, b. b->a)"), ["$e1->$e2", "$e4->$e3"], []),
        (parse_assertion("exists a. (a->1 * (exists b. b->a))"), ["$e1->1", "$e2->$e1"], []),
        (parse_assertion("exists a. exists b. (a->b && b != a)"), ["$e1->$e2"], ["$e2!=$e1"]),
    ]
    for f, spatial, pure in cases:
        binders = sorted(f"$e{i}" for i in range(1, _binder_count(f) + 1))
        assert _heap_text(f, False) == [(binders, spatial, pure)], fm.pretty(f)
        assert _heap_text(f, True) == [([], spatial, pure)], fm.pretty(f)


def _binder_count(f: fm.Formula) -> int:
    if isinstance(f, fm.Exists):
        return len(f.vars) + _binder_count(f.body)
    if isinstance(f, (fm.Star, fm.And, fm.Or)):
        return sum(_binder_count(p) for p in f.parts)
    return 0


def test_consumed_cell_is_not_matched_twice():
    # a bound consequent location is looked up by class among the cells not
    # consumed yet
    r = prove(heap_of("x->1"), con("x->1 * x->1"), PREDS)
    assert isinstance(r, Failed) and r.nearest_rule == "points-to"
    r = prove(heap_of("x->1 * y->2"), con("exists u. x->1 * u->2 * x->1"), PREDS)
    assert isinstance(r, Failed) and r.nearest_rule == "points-to"
    r = prove(heap_of("x->1 * y->x"), con("exists u. u->x * x->1"), PREDS)
    assert isinstance(r, Proved) and r.frame.spatial == ()
    assert [n.input for n in r.tree.children] == ["$?1->x matches y->x", "x->1 matches x->1"]


# -- && chains mixing pure and spatial parts, recorded before And held a tuple
# of parts: (text, formula_to_symheaps heaps or error, _Goal.extract parts and
# absorb flag per disjunct).  Both read a chain as right-nested: a part that is
# not pure-only may only be followed by pure-only parts, and the extractor
# keeps the rest of the chain from the first offending part as one nested check,
# with the unfold depth its predicates get (the goal's 3 here).

AND_CHAIN_TABLE = [
    (
        'x->1 && a == 1',
        ['a==1 && x->1'],
        [([('pto', 'x', '1'), ('pure', '==', 'a', '1')], False)],
    ),
    (
        'a == 1 && x->1',
        ['a==1 && x->1'],
        [([('pure', '==', 'a', '1'), ('pto', 'x', '1')], False)],
    ),
    (
        'x->1 && y->2',
        'UnsupportedFormulaError: conjunction of two spatial formulas is not supported',
        [([('nested', 'x->1 && y->2', 3)], False)],
    ),
    (
        'a == 1 && x->1 && b == 2',
        ['a==1 && b==2 && x->1'],
        [([('pure', '==', 'a', '1'), ('pto', 'x', '1'), ('pure', '==', 'b', '2')], False)],
    ),
    (
        'a == 1 && b == 2 && x->1 * y->2',
        ['a==1 && b==2 && x->1 * y->2'],
        [([('pure', '==', 'a', '1'), ('pure', '==', 'b', '2'), ('pto', 'x', '1'), ('pto', 'y', '2')], False)],
    ),
    (
        'x->1 * y->2 && a == 1 && b == 2',
        ['a==1 && b==2 && x->1 * y->2'],
        [([('pto', 'x', '1'), ('pto', 'y', '2'), ('pure', '==', 'a', '1'), ('pure', '==', 'b', '2')], False)],
    ),
    (
        'x->1 && a == 1 && y->2',
        'UnsupportedFormulaError: conjunction of two spatial formulas is not supported',
        [([('nested', 'x->1 && a==1 && y->2', 3)], False)],
    ),
    (
        'a == 1 && x->1 && y->2',
        'UnsupportedFormulaError: conjunction of two spatial formulas is not supported',
        [([('pure', '==', 'a', '1'), ('nested', 'x->1 && y->2', 3)], False)],
    ),
    (
        'a == 1 && x->1 && y->2 && b == 2',
        'UnsupportedFormulaError: conjunction of two spatial formulas is not supported',
        [([('pure', '==', 'a', '1'), ('nested', 'x->1 && y->2 && b==2', 3)], False)],
    ),
    (
        'x->1 && y->2 && a == 1',
        'UnsupportedFormulaError: conjunction of two spatial formulas is not supported',
        [([('nested', 'x->1 && y->2 && a==1', 3)], False)],
    ),
    (
        '(x->1 && y->2) && a == 1',
        'UnsupportedFormulaError: conjunction of two spatial formulas is not supported',
        [([('nested', 'x->1 && y->2', 3), ('pure', '==', 'a', '1')], False)],
    ),
    (
        '(a == 1 && x->1) && y->2',
        'UnsupportedFormulaError: conjunction of two spatial formulas is not supported',
        [([('nested', '(a==1 && x->1) && y->2', 3)], False)],
    ),
    (
        'emp && a == 1 && x->1',
        'UnsupportedFormulaError: conjunction of two spatial formulas is not supported',
        [([('nested', 'emp && a==1 && x->1', 3)], False)],
    ),
    (
        'a == 1 && emp && true',
        ['a==1 && emp'],
        [([('pure', '==', 'a', '1'), ('emp',)], False)],
    ),
    (
        'true && x->1 && false',
        ['0==1 && x->1'],
        [([('pto', 'x', '1'), ('false',)], False)],
    ),
    (
        'x.f == 1 && x->1 && y->2',
        'UnsupportedFormulaError: field references inside assertions are not supported; assert record values instead',
        [([('pure', '==', 'x.f', '1'), ('nested', 'x->1 && y->2', 3)], False)],
    ),
    (
        'a == 1 && x->1 && y.f == 2',
        'UnsupportedFormulaError: field references inside assertions are not supported; assert record values instead',
        [([('pure', '==', 'a', '1'), ('pto', 'x', '1'), ('pure', '==', 'y.f', '2')], False)],
    ),
    (
        'a == 1 && list(x, nil) && b == 2 && list(y, nil)',
        'UnsupportedFormulaError: conjunction of two spatial formulas is not supported',
        [([('pure', '==', 'a', '1'), ('nested', 'list(x, nil) && b==2 && list(y, nil)', 3)], False)],
    ),
    (
        'exists v. a == v && x->v && y->v',
        'UnsupportedFormulaError: conjunction of two spatial formulas is not supported',
        [([('pure', '==', 'a', '?b1'), ('nested', 'x->?b1 && y->?b1', 3)], False)],
    ),
    (
        'exists v. a == v && x->v && b != v',
        ['exists e0. a==e0 && b!=e0 && x->e0'],
        [([('pure', '==', 'a', '?b1'), ('pto', 'x', '?b1'), ('pure', '!=', 'b', '?b1')], False)],
    ),
    (
        'a == 1 && x->1 * (b == 2 && y->2)',
        ['a==1 && b==2 && x->1 * y->2'],
        [([('pure', '==', 'a', '1'), ('pto', 'x', '1'), ('pure', '==', 'b', '2'), ('pto', 'y', '2')], False)],
    ),
    (
        'x->1 && (a == 1 || y->2)',
        'UnsupportedFormulaError: conjunction of two spatial formulas is not supported',
        [([('pto', 'x', '1'), ('pure', '==', 'a', '1')], False), ([('nested', 'x->1 && y->2', 3)], False)],
    ),
    (
        '(exists u. u == a) && x->1 && (exists w. w != a)',
        ['exists e0, e1. e0!=a && e1==a && x->1'],
        [([('pure', '==', '?b1', 'a'), ('pto', 'x', '1'), ('pure', '!=', '?b2', 'a')], False)],
    ),
    (
        'a == 1 && (x->1 * y->2) && b == 2',
        ['a==1 && b==2 && x->1 * y->2'],
        [([('pure', '==', 'a', '1'), ('pto', 'x', '1'), ('pto', 'y', '2'), ('pure', '==', 'b', '2')], False)],
    ),
    (
        'x->1 * (a == 1 && b == 2) && c == 3',
        ['a==1 && b==2 && c==3 && x->1'],
        [([('pto', 'x', '1'), ('pure', '==', 'a', '1'), ('pure', '==', 'b', '2'), ('pure', '==', 'c', '3')], True)],
    ),
]


def _shown(x):
    if isinstance(x, fm.Formula):
        return fm.pretty(x)
    if isinstance(x, fm.SymExpr):
        return fm.pretty_expr(x)
    if isinstance(x, tuple):
        return tuple(_shown(y) for y in x)
    return x


@pytest.mark.parametrize("text, heaps, extracted", AND_CHAIN_TABLE)
def test_and_chain_decision_table(text, heaps, extracted):
    f = parse_assertion(text)
    try:
        got = [h.pretty() for h in formula_to_symheaps(f, FreshNames())]
    except HeapcheckError as e:
        got = f"{type(e).__name__}: {e.message}"
    assert got == heaps
    goal = _Goal({}, PREDS, OracleConfig(), 3)
    out = []
    for d in fm.or_free(f):
        parts: list = []
        flags = {"absorb": fm.is_pure_only(d)}
        goal.extract(d, parts, flags)
        out.append(([_shown(p) for p in parts], flags["absorb"]))
    assert out == extracted


def test_pred_match_consumes_each_instance_once():
    r = prove(heap_of("list(x, nil)"), con("list(x, nil) * list(x, nil)"), PREDS)
    assert isinstance(r, Failed)


def test_pred_match_frees_an_instance_on_backtracking():
    # list(?e, nil) first takes list(x, nil), which list(x, nil) then lacks;
    # the retry gives ?e list(y, nil) and must find list(x, nil) free again
    r = prove(heap_of("list(x, nil) * list(y, nil)"), con("exists e. list(e, nil) * list(x, nil)"), PREDS)
    assert isinstance(r, Proved)
    assert r.frame.spatial == () and list(r.binding.values()) == [fm.Var("y")]
    assert [n.rule for n in r.tree.children] == ["pred-match", "pred-match"]


# -- predicate cases: the definition's cases under one substitution ----------


def _instances(d: fm.PredDef, args: tuple, start: int, skolemize: bool):
    """The cases of ``d`` at ``args``, by substituting into the body and
    converting it, and from the cases kept on ``d``; then the next name
    each supply draws."""
    out = []
    for cases in (
        lambda fresh: formula_to_symheaps(fm.substitute(d.body, dict(zip(d.params, args))), fresh, skolemize),
        lambda fresh: pred_cases(d, args, fresh, skolemize),
    ):
        fresh = FreshNames("?")
        fresh._n = start
        try:
            heaps = cases(fresh)
        except UnsupportedFormulaError as e:
            heaps = e.message
        out.append((heaps, fresh.var()))
    return out


def test_pred_cases_match_converting_the_substituted_body():
    rng = random.Random(31)
    # actuals reuse the binder names of the bodies (t, u, v, w) or carry '$?' names
    names = [fm.Var(n) for n in ("t", "u", "v", "w", "x", "$?1", "$?e2", "$e1", "$#e1")]

    def actual():
        return rng.choice(names) if rng.random() < 0.5 else rand_expr(rng)

    t, v, w = fm.Var("t"), fm.Var("v"), fm.Var("w")
    written = [
        # nested exists, and || under exists, over records and arithmetic
        fm.PredDef("nest", ("x", "y"), parse_assertion(
            "exists t. (x->object(node, t, y) * (exists v. t->v+1 || (exists w. t->w * w->x)))")),
        fm.PredDef("pure", ("x", "y"), fm.join(fm.Or, [fm.FalseF(), fm.PureAtom("<", fm.Var("x"), fm.Var("y"))])),
        fm.PredDef("shadow", ("x", "t"), fm.exists(["t"], fm.PointsTo(t, fm.ArithExpr("*", v, w)))),
        fm.PredDef("hash", ("$#e1", "x"), fm.exists(["t"], fm.PointsTo(fm.Var("$#e1"), t))),
    ]
    for i in range(300):
        if i < len(written):
            d = written[i]
        elif i % 3 == 0:
            d = fm.builtin_preds()["list"]
        else:
            # a fresh definition each time, so each builds its own cases once
            d = fm.PredDef(f"p{i}", ("x", "y", "z"), rand_formula(rng, 4))
        args = tuple(actual() for _ in d.params)
        for skolemize in (False, True):
            want, got = _instances(d, args, rng.randint(0, 40), skolemize)
            assert got == want, (fm.pretty(d.body), args)


def test_bad_predicate_names_and_arities_raise_as_before():
    unknown = SymHeap(spatial=(fm.PredApp("mystery", (fm.Var("q"),)),))
    short = SymHeap(spatial=(fm.PredApp("list", (fm.Var("q"),)),))
    for h, message in ((unknown, "unknown predicate 'mystery'"),
                       (short, "predicate 'list' takes 2 arguments, got 1")):
        for call in (lambda: unfold(h, h.spatial[0], PREDS), lambda: prove(h, con("emp"), PREDS),
                     lambda: prove(con("emp"), h, PREDS)):
            with pytest.raises(UnknownPredicateError) as info:
                call()
            assert info.value.message == message
