import random

import pytest
from conftest import data_text
from oracle import OracleConfig, eval_assertion

from heapcheck import formula as fm
from heapcheck.formula import IntLit, substitute
from heapcheck.interp import (
    ConcreteState,
    CRecord,
    Fault,
    Heap,
    OUT_OF_FUEL,
    run_concrete,
)
from heapcheck.parser import parse_assertion, parse_program
from heapcheck.termir import lower_program, parse_term, term_functions


def node(v, nxt):
    return CRecord("node", (("value", v), ("next", nxt)))


def test_empty_program_keeps_state():
    out = run_concrete(parse_term("[]"), ConcreteState(store={"q": 3}))
    assert isinstance(out, ConcreteState)
    assert out.store == {"q": 3} and out.heap == {}


def test_new_delete_cancel():
    out = run_concrete(parse_term("[new(x), delete(x)]"))
    assert isinstance(out, ConcreteState)
    assert out.heap == {}


def test_deterministic_lowest_address_allocation():
    out = run_concrete(parse_term("[new(x), new(y), delete(x), new(z)]"))
    assert out.store == {"x": 1, "y": 2, "z": 1}


def _scan_allocate(heap: Heap) -> int:
    """The reference: the lowest address not in the heap, found by a scan."""
    addr = 1
    while addr in heap:
        addr += 1
    heap[addr] = 0
    return addr


def _alloc_program(rng: random.Random) -> str:
    # every `new` writes a fresh variable, so the final store lists every
    # address the caller allocated; the callees allocate and free on the
    # shared heap in between
    helpers = ("void drop(node p) { delete(p); }\n"
               "void churn(node p) { new(q); new(r); delete(q); }\n")
    live, body = [], []
    for i in range(rng.randint(5, 60)):
        roll = rng.random()
        if roll < 0.5 or not live:
            body.append(f"new(a{i});")
            live.append(f"a{i}")
        elif roll < 0.7:
            body.append(f"delete({live.pop(rng.randrange(len(live)))});")
        elif roll < 0.85:
            body.append(f"drop({live.pop(rng.randrange(len(live)))});")
        else:
            body.append(f"churn({rng.choice(live)});")
    return helpers + "void main() { " + " ".join(body) + " }\n"


def test_allocation_matches_the_lowest_free_address_scan(monkeypatch):
    rng = random.Random(31)
    programs = []
    for _ in range(200):
        fns = term_functions(lower_program(parse_program(_alloc_program(rng))))
        table = {fn.args[0].name: fn for fn in fns}
        start = ConcreteState(heap={rng.randint(1, 9): 7 for _ in range(rng.randint(0, 3))})
        programs.append((table, start))
    fast = [run_concrete(t["main"], start, functions=t) for t, start in programs]
    monkeypatch.setattr(Heap, "allocate", _scan_allocate)
    slow = [run_concrete(t["main"], start, functions=t) for t, start in programs]
    assert fast == slow
    assert all(isinstance(out, ConcreteState) for out in fast)


def test_many_allocations_run():
    program = parse_term("[" + ", ".join(f"new(x{i})" for i in range(20_000)) + "]")
    out = run_concrete(program, fuel=30_000)
    assert isinstance(out, ConcreteState)
    assert out.store["x19999"] == 20_000 and len(out.heap) == 20_000


def test_cycle_runs_out_of_fuel():
    program = parse_program(data_text("ex4.oc"))
    fn = term_functions(lower_program(program))[0]
    out = run_concrete(fn, fuel=1000)
    assert isinstance(out, Fault) and out.kind == OUT_OF_FUEL


def test_fuel_monotonicity():
    fn = term_functions(lower_program(parse_program(data_text("append_destructive.oc"))))[0]
    init = ConcreteState(
        store={"x": 1, "y": 4},
        heap={1: node(1, 2), 2: node(2, 3), 3: node(3, 0),
              4: node(4, 5), 5: node(5, 6), 6: node(6, 0)},
    )
    done = run_concrete(fn, init, fuel=14)
    assert isinstance(done, ConcreteState)
    more = run_concrete(fn, init, fuel=15)
    assert (more.store, more.heap) == (done.store, done.heap)


def test_run_deterministic_bit_for_bit():
    fn = term_functions(lower_program(parse_program(data_text("ex2.oc"))))[0]
    a = run_concrete(fn, fuel=100)
    b = run_concrete(fn, fuel=100)
    assert a.snapshot() == b.snapshot()


def test_faults_are_values_not_exceptions():
    out = run_concrete(parse_term("[delete(x)]"), ConcreteState(store={"x": 7}))
    assert isinstance(out, Fault) and out.kind == "InvalidFree"
    out2 = run_concrete(parse_term("[assign(v, mem(offset(x)))]"), ConcreteState(store={"x": 3}))
    assert isinstance(out2, Fault) and out2.kind == "InvalidAccess"


def test_field_semantics_concrete():
    prog = parse_term("[new(o), assign(oa(o.ref), nil), assign(v, oa(o.ref))]")
    out = run_concrete(prog)
    assert out.store["v"] == 0
    bad = run_concrete(parse_term("[new(o), assign(v, oa(o.missing))]"))
    assert isinstance(bad, Fault) and bad.kind == "InvalidAccess"


# assertion satisfaction ------------------------------------------------------


def test_points_to_exact_heap():
    st = ConcreteState(store={"x": 1}, heap={1: 5})
    assert eval_assertion(parse_assertion("x->5"), st)
    st2 = ConcreteState(store={"x": 1}, heap={1: 5, 2: 7})
    assert not eval_assertion(parse_assertion("x->5"), st2)


def test_emp_and_star_partition():
    assert eval_assertion(parse_assertion("emp"), ConcreteState())
    st = ConcreteState(store={"x": 1, "y": 2}, heap={1: 1, 2: 2})
    assert eval_assertion(parse_assertion("x->1 * y->2"), st)
    assert not eval_assertion(parse_assertion("x->1 * x->1"), st)


def test_list_predicate_models():
    two = ConcreteState(store={"x": 1}, heap={1: node(9, 2), 2: node(8, 0)})
    assert eval_assertion(parse_assertion("list(x, nil)"), two)
    assert eval_assertion(parse_assertion("x->9,8"), two)
    assert not eval_assertion(parse_assertion("list(x, nil)"),
                              ConcreteState(store={"x": 1}, heap={1: 5}))
    empty = ConcreteState(store={"x": 0}, heap={})
    assert eval_assertion(parse_assertion("list(x, nil)"), empty)


def test_pure_atoms_heap_independent():
    st = ConcreteState(store={"a": 1, "x": 1}, heap={1: 5})
    assert eval_assertion(parse_assertion("a<10"), st)
    assert eval_assertion(parse_assertion("a<10 && x->5"), st)
    assert not eval_assertion(parse_assertion("a<10 && emp"), st)


# conjunctions of two spatial formulas: each conjunct describes the same exact
# heap share, and what one conjunct binds holds in the next and in the rest
SPATIAL_AND_TABLE = [
    # one cell, x == y: both conjuncts describe it
    ("x->5 && y->5", {"x": 1, "y": 1}, {1: 5}, True),
    # x != y: no single share is exactly x's cell and exactly y's cell
    ("x->5 && y->5", {"x": 1, "y": 2}, {1: 5, 2: 5}, False),
    # x == y but a second cell is left over and nothing absorbs it
    ("x->5 && y->5", {"x": 1, "y": 1}, {1: 5, 2: 5}, False),
    # ... which `* true` absorbs
    ("(x->5 && y->5) * true", {"x": 1, "y": 1}, {1: 5, 2: 5}, True),
    # the cell holds 6, not 5
    ("x->5 && y->5", {"x": 1, "y": 1}, {1: 6}, False),
    # v is the one cell's value, read by both conjuncts
    ("exists v. x->v && y->v", {"x": 1, "y": 1}, {1: 7}, True),
    ("exists v. x->v && y->v", {"x": 1, "y": 2}, {1: 7, 2: 7}, False),
    # a record value binds v as well as an integer does
    ("exists v. x->v && y->v", {"x": 1, "y": 1}, {1: node(1, 0)}, True),
    # the first conjunct binds v to 3; y's cell holds 4, so the second fails
    ("exists v. (x->v * true) && (y->v * true)", {"x": 1, "y": 2}, {1: 3, 2: 4}, False),
    ("exists v. (x->v * true) && (y->v * true)", {"x": 1, "y": 2}, {1: 3, 2: 3}, True),
    # the conjunction binds v to x's value, and v->5 must then be that cell
    ("exists v. (x->v && x->v) * v->5", {"x": 1}, {1: 3, 2: 5}, False),
    ("exists v. (x->v && x->v) * v->5", {"x": 1}, {1: 2, 2: 5}, True),
    # || under &&: x->6 && y->6 holds, x->6 && y->5 does not
    ("x->6 && (y->5 || y->6)", {"x": 1, "y": 1}, {1: 6}, True),
    ("x->5 && (y->5 || y->6)", {"x": 1, "y": 1}, {1: 6}, False),
    # a pure conjunct between them constrains the store, not the share
    ("x->5 && a == 1 && y->5", {"x": 1, "y": 1, "a": 1}, {1: 5}, True),
    ("x->5 && a == 2 && y->5", {"x": 1, "y": 1, "a": 1}, {1: 5}, False),
]


@pytest.mark.parametrize("text, store, heap, expected", SPATIAL_AND_TABLE)
def test_conjunction_of_spatial_formulas(text, store, heap, expected):
    assert eval_assertion(parse_assertion(text), ConcreteState(store, heap)) is expected


# recursive predicates whose bodies conjoin spatial formulas: the unfold depth
# left after an expansion carries into the conjuncts, so unfolding stops
RECURSIVE_AND_TABLE = [
    # no unfolding of p ever ends
    ("p", "x->1 && p(x)", {"x": 1}, {1: 1}, False),
    # q unfolds twice through its conjunction, then ends at x == 0
    ("q", "(x == 0 && emp) || exists n. (x->n * q(n)) && (x->n * true)",
     {"x": 1}, {1: 2, 2: 0}, True),
]


@pytest.mark.parametrize("name, body, store, heap, expected", RECURSIVE_AND_TABLE)
def test_recursive_predicate_through_a_conjunction(name, body, store, heap, expected):
    table = fm.check_pred_table([fm.PredDef(name, ("x",), parse_assertion(body))])
    goal = fm.PredApp(name, (fm.Var("x"),))
    assert eval_assertion(goal, ConcreteState(store, heap), table) is expected


def test_star_commutative_and_emp_unit_samples():
    rng = random.Random(41)
    from conftest import rand_formula
    from heapcheck.formula import Emp, Star, join, pretty

    states = [
        ConcreteState({}, {}),
        ConcreteState({"x": 1, "y": 2, "z": 0}, {1: 5}),
        ConcreteState({"x": 1, "y": 2, "z": 3}, {1: 2, 2: 0, 3: node(1, 0)}),
    ]
    for _ in range(120):
        a, b = rand_formula(rng, 2), rand_formula(rng, 2)
        for st in states:
            ab, ba = join(Star, [a, b]), join(Star, [b, a])
            assert eval_assertion(ab, st) == eval_assertion(ba, st), (pretty(a), pretty(b))
            assert eval_assertion(join(Star, [Emp(), a]), st) == eval_assertion(a, st), pretty(a)


def test_exists_enumerates_addresses_and_values():
    st = ConcreteState(store={"x": 1}, heap={1: 42})
    assert eval_assertion(parse_assertion("exists v. x->v"), st)
    assert eval_assertion(parse_assertion("exists l. l->42"), st)
    assert not eval_assertion(parse_assertion("exists v. x->v * x->v"), st)


def test_unbound_variable_raises():
    import pytest

    from oracle import UnboundVariableError, eval_expr

    with pytest.raises(UnboundVariableError):
        eval_expr(parse_assertion("q->1").loc, {})


def test_record_equality_tag_compatibility():
    st = ConcreteState(store={"x": 1}, heap={1: CRecord(None, (("ref", 0),))})
    assert eval_assertion(parse_assertion("x->object(_, ref: 0)"), st)
    assert eval_assertion(parse_assertion("x->object(anyClass, ref: 0)"), st)
    assert not eval_assertion(parse_assertion("x->object(_, other: 0)"), st)


def test_value_ghosts_substitute():
    st = ConcreteState(store={"x": 1}, heap={1: node(3, 0)})
    f = substitute(parse_assertion("x->a"), {"a": IntLit(9)})
    assert not eval_assertion(f, st, config=OracleConfig())


def test_assertion_binders_scope_and_shadow():
    # binders are renamed by a map applied at the atoms: a free x outside a
    # binder's scope is the store's x, and an inner binder shadows an outer one
    free_after = parse_assertion("(exists x. x->1) * x->2")
    assert eval_assertion(free_after, ConcreteState({"x": 2}, {1: 1, 2: 2}))
    assert not eval_assertion(free_after, ConcreteState({"x": 1}, {1: 1, 2: 2}))
    assert not eval_assertion(free_after, ConcreteState({"x": 2}, {1: 2, 2: 1}))
    shadow = parse_assertion("exists x. ((exists x. x->2) * x->1)")
    for heap, expected in [({1: 1, 2: 2}, True), ({5: 2, 6: 1}, True), ({1: 2, 2: 1}, True), ({1: 1}, False)]:
        assert eval_assertion(shadow, ConcreteState({}, heap)) == expected, heap
