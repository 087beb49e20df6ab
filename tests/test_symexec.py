import random

import pytest
from conftest import data_text, shallow_stack

from heapcheck import arith
from heapcheck import formula as fm
from heapcheck.arith import PureSet, linear_form
from heapcheck.entail import SymHeap
from heapcheck.parser import parse_program
from heapcheck.prooftree import FAILED, ProofBuilder
from heapcheck.symexec import (
    CONTRACT_VIOLATION,
    INVALID_ACCESS,
    INVALID_FREE,
    INCONCLUSIVE,
    MEMORY_LEAK,
    REFUTED,
    UNREACHABLE_MEMORY,
    VERIFIED,
    SymState,
    _Engine,
    verify_program_term,
)
from heapcheck.termir import lower_program


def verify_source(src: str, depth: int = 4):
    return verify_program_term(lower_program(parse_program(src)), depth=depth)


def only_verdict(src: str, depth: int = 4):
    out = verify_source(src, depth)
    assert len(out) == 1
    return out[0]


def test_example1_memory_leak_at_second_new():
    v = only_verdict(data_text("ex1.oc"))
    assert v.status == REFUTED
    assert [d.kind for d in v.diagnostics] == [MEMORY_LEAK]
    assert v.diagnostics[0].span.line == 4


def test_example2_unreachable_at_block_exit():
    v = only_verdict(data_text("ex2.oc"))
    assert v.status == REFUTED
    assert [d.kind for d in v.diagnostics] == [UNREACHABLE_MEMORY]
    assert v.diagnostics[0].span.line == 6


def test_example3_invalid_access_through_nil():
    v = only_verdict(data_text("ex3.oc"))
    assert v.status == REFUTED
    assert [d.kind for d in v.diagnostics] == [INVALID_ACCESS]
    assert v.diagnostics[0].span.line == 5


def test_example4_inconclusive_under_trivial_invariant():
    import time

    t0 = time.perf_counter()
    v = only_verdict(data_text("ex4.oc"))
    assert time.perf_counter() - t0 < 10.0
    assert v.status == INCONCLUSIVE
    assert not v.diagnostics


def test_pure_assignment_touches_nothing():
    v = only_verdict("int f(int a) { a = 1; }")
    assert v.status == VERIFIED


def test_leak_counterexample_is_genuine_model():
    v = only_verdict(data_text("ex1.oc"))
    assert "heap" in v.diagnostics[0].counterexample


def test_new_delete_verified():
    assert only_verdict("int f() { new(x); delete(x); }").status == VERIFIED


def test_block_local_new_is_unreachable_at_exit():
    v = only_verdict("int f() { { new(x); } }")
    assert [d.kind for d in v.diagnostics] == [UNREACHABLE_MEMORY]


def test_empty_block_is_noop():
    assert only_verdict("int f() { { } }").status == VERIFIED


def test_param_rooted_chunk_leaks_at_return():
    v = only_verdict("int f(int x) { new(x); }")
    assert v.status == REFUTED
    assert [d.kind for d in v.diagnostics] == [MEMORY_LEAK]


def test_double_delete_invalid_free():
    v = only_verdict("int f() { new(x); delete(x); delete(x); }")
    assert [d.kind for d in v.diagnostics] == [INVALID_FREE]


def test_write_after_free_invalid_access():
    v = only_verdict("int f() { new(x); delete(x); [x] = 1; }")
    assert [d.kind for d in v.diagnostics] == [INVALID_ACCESS]


def test_paper_function_literal_snippet_is_contract_violation():
    v = only_verdict(data_text("paper_fn.oc"))
    assert v.status == REFUTED
    assert [d.kind for d in v.diagnostics] == [CONTRACT_VIOLATION]
    assert "object(myClass1, 15)" in v.diagnostics[0].message


def test_paper_function_verifies_when_pre_supplies_chunks():
    src = """
int f(int a, int b)
@ a<10 * a->5 * b->c * c->object(myClass1,15) @
{
  id = 2;
} @ a->5 * b->c * c->object(myClass1,15) @
"""
    assert only_verdict(src).status == VERIFIED


def test_empty_function_with_default_contracts():
    assert only_verdict("int f() {}").status == VERIFIED


def test_reachability_direct_and_transitive():
    # transitive reach keeps both cells: independently checked by a BFS oracle
    src = "int f(int x) @ exists a, b. x->a * a->b * b->3 @ { } @ true @"
    v = only_verdict(src)
    kinds = [d.kind for d in v.diagnostics]
    # chunks remain reachable, so the only report is the unclaimed-at-return leak
    assert UNREACHABLE_MEMORY not in kinds
    assert kinds.count(MEMORY_LEAK) == 3


def bfs_reachable(store: dict, heap_edges: dict) -> set:
    seen, work = set(), [v for v in store.values()]
    while work:
        cur = work.pop()
        if cur in seen or cur not in heap_edges:
            continue
        seen.add(cur)
        work.extend(heap_edges[cur])
    return seen


def test_reachability_matches_bfs_oracle():
    # independent graph-reachability oracle over a concrete points-to graph
    store = {"x": "a"}
    edges = {"a": ["b"], "b": [], "c": ["b"]}
    assert bfs_reachable(store, edges) == {"a", "b"}
    src = "int f(int x, int c) @ exists b. x->b * b->3 * c->b @ { } @ true @"
    v = only_verdict(src)
    assert UNREACHABLE_MEMORY not in [d.kind for d in v.diagnostics]


def test_contract_call_applies_post_and_frame():
    src = """
int alloc_one(int p) @ emp @ { new(p); } @ exists a, v. a->v @
int f() { new(q); alloc_one(3); delete(q); }
"""
    verdicts = verify_source(src)
    caller = [v for v in verdicts if v.function == "f"][0]
    # the callee's postcondition chunk arrives with no store root: it is
    # reported lost the moment the scope closes
    assert [d.kind for d in caller.diagnostics] == [UNREACHABLE_MEMORY]
    assert [v.status for v in verdicts] == [VERIFIED, REFUTED]


def test_call_precondition_violation():
    src = """
int takes_cell(int p) @ p->5 @ { } @ p->5 @
int f() { takes_cell(1); }
"""
    verdicts = verify_source(src)
    caller = [v for v in verdicts if v.function == "f"][0]
    assert [d.kind for d in caller.diagnostics] == [CONTRACT_VIOLATION]


def test_unknown_function_is_heap_neutral():
    assert only_verdict("int f() { printf(1); }").status == VERIFIED


def test_ite_forks_and_prunes():
    src = """
int f(int a) {
  if (a < 0) { a = 1; } else { a = 2; }
}
"""
    v = only_verdict(src)
    assert v.status == VERIFIED
    assert v.stats.branches >= 1


def test_path_coverage_matches_branch_combinations():
    src = """
int f(int a, int b) {
  if (a < 0) { a = 1; } else { a = 2; }
  if (b < 0) { b = 1; } else { b = 2; }
}
"""
    v = only_verdict(src)
    assert v.status == VERIFIED
    assert v.stats.branches == 3  # 2 forks: 1 + 2 extra terminals


def test_infeasible_branch_pruned():
    src = """
int f(int a) {
  a = 1;
  if (a == 2) { new(leak); }
}
"""
    v = only_verdict(src)
    assert v.status == VERIFIED


def test_fork_isolation():
    # a leak on one branch must not contaminate the sibling branch
    src = """
int f(int a) {
  if (a < 0) { new(x); new(x); delete(x); } else { a = 2; }
}
"""
    v = only_verdict(src)
    leaks = [d for d in v.diagnostics if d.kind == MEMORY_LEAK]
    assert len(leaks) == 1


def test_while_invariant_preserved_heap():
    src = """
int f(int x, int n)
@ x->0 @
{
  while (n > 0) @ exists v. x->v @ {
    [x] = n;
    n = n - 1;
  }
} @ exists v. x->v @
"""
    assert only_verdict(src).status == VERIFIED


def test_while_invariant_violated_on_entry():
    src = """
int f(int n) @ emp @ {
  while (n > 0) @ x->1 @ { n = n - 1; }
} @ true @
"""
    v = only_verdict(src)
    assert any(d.kind == "InvariantViolation" for d in v.diagnostics)


def test_while_body_leak_reported():
    src = """
int f(int n) @ emp @ {
  while (n > 0) @ emp @ {
    new(t);
    n = n - 1;
  }
} @ emp @
"""
    v = only_verdict(src)
    assert any(d.kind in (MEMORY_LEAK, UNREACHABLE_MEMORY) for d in v.diagnostics)


def test_proof_tree_has_failed_leak_check_node():
    v = only_verdict(data_text("ex1.oc"))
    failed = [n for n in v.proof.root.walk() if n.rule == "leak-check" and n.outcome == FAILED]
    assert failed
    assert v.diagnostics[0].proof_ref in {n.id for n in v.proof.root.walk()}


def test_overwrite_without_loss_is_fine():
    src = "int f() { new(x); y = x; new(x); delete(x); delete(y); }"
    assert only_verdict(src).status == VERIFIED


def test_field_overwrite_leak():
    src = """
int f() {
  new(a);
  {
    new(b);
    a.ref = b;
  }
  a.ref = null;
  delete(a);
}
"""
    v = only_verdict(src)
    assert [d.kind for d in v.diagnostics] == [MEMORY_LEAK]
    assert v.diagnostics[0].span.line == 8


def test_verdict_invariant_verified_means_no_refuting_diagnostics():
    for name in ("ex1.oc", "ex2.oc", "ex3.oc", "ex4.oc"):
        v = only_verdict(data_text(name))
        if v.status == VERIFIED:
            assert not v.diagnostics


def test_read_through_predicate_unfolds_on_access():
    src = """
int f(int x)
@ x!=nil && list(x, nil) @
{
  v = x.value;
} @ exists t, w. x->object(node, w, t) * list(t, nil) @
"""
    assert only_verdict(src).status == VERIFIED


def test_recursive_walk_with_contract():
    src = """
int walk(int p) @ list(p, nil) @ {
  if (p != null) {
    q = p.next;
    walk(q);
  }
} @ list(p, nil) @
"""
    assert only_verdict(src).status == VERIFIED


def test_statement_assert_checkpoint():
    ok = only_verdict("int f() @ emp @ { new(x); @ exists v. x->v @; delete(x); } @ emp @")
    assert ok.status == VERIFIED
    bad = only_verdict("int f() @ emp @ { new(x); @ x->7 @; delete(x); } @ emp @")
    assert [d.kind for d in bad.diagnostics] == [CONTRACT_VIOLATION]


def test_new_through_field():
    src = """
int f() {
  new(o);
  new(o.child);
  c = o.child;
  delete(c);
  delete(o);
}
"""
    assert only_verdict(src).status == VERIFIED


def test_leaked_chunk_stays_allocated():
    # a quarantined chunk is still memory: later writes through a numeric
    # alias must stay inconclusive, not provably invalid
    src = "int f(int y) { new(y); y = 1; [y] = 1; }"
    v = only_verdict(src)
    assert v.status != REFUTED or all(
        d.kind not in (INVALID_ACCESS, INVALID_FREE) for d in v.diagnostics
    )


# -- generated straight-line list programs ------------------------------------


def _function(name: str, params: list[str], pre: str, body: list[str], post: str) -> str:
    lines = "\n".join(f"  {s}" for s in body)
    ps = ", ".join(f"int {p}" for p in params)
    return f"int {name}({ps})\n@ {pre} @\n{{\n{lines}\n}}\n@ {post} @\n"


def walk_source(n: int, tail: tuple[str, ...] = ()) -> str:
    """Read ``.next`` n times over an n-node list, keeping every node in a variable."""
    nodes = ",".join(f"a{i}" for i in range(n))
    body, prev = [], "x"
    for i in range(1, n + 1):
        body.append(f"p{i} = {prev}.next;")
        prev = f"p{i}"
    return _function(f"walk{n}", ["x"], f"x->{nodes}", body + list(tail), f"x->{nodes}")


def copy_source(n: int, tail: tuple[str, ...] = ()) -> str:
    """Copy an n-node list into n fresh cells, last node first."""
    nodes = ",".join(f"a{i}" for i in range(n))
    body = ["p0 = x;"] + [f"p{i} = p{i - 1}.next;" for i in range(1, n)]
    for i in reversed(range(n)):
        body.append(f"new(q{i});")
        body.append(f"q{i}.value = p{i}.value;")
        body.append(f"q{i}.next = " + (f"q{i + 1};" if i + 1 < n else "null;"))
    body.append("z = q0;")
    body += tail
    return _function(f"copy{n}", ["x", "z"], f"x->{nodes}", body, f"x->{nodes} * z->{nodes}")


def test_long_walk_verifies():
    v = only_verdict(walk_source(48))
    assert v.status == VERIFIED and not v.diagnostics


def test_long_copy_verifies():
    # the pairwise separation atoms once made this heap too deep to print
    v = only_verdict(copy_source(20))
    assert v.status == VERIFIED and not v.diagnostics


# -- one normal form for sums: a value bumped n times is one sum deep --------


def test_long_counter_verifies():
    body = " ".join(["y = y + 1;"] * 2000)
    with shallow_stack():
        v = only_verdict(f"void f(int y) @ emp @ {{ {body} }} @ emp @")
    assert v.status == VERIFIED and not v.diagnostics


def test_long_sum_statement_verifies():
    v = only_verdict(f"void f(int y) @ emp @ {{ z = {' + '.join(['y'] * 350)}; }} @ emp @")
    assert v.status == VERIFIED and not v.diagnostics


@pytest.mark.parametrize("src", [
    "void f(node x, int y) @ x->0 @ { z = y + 1; z = z + 1; [x] = z; } @ x->y+2 @",
    "void f(node x, int y, int w) @ x->0 @ { z = 1 + y; z = z - w; z = z + w + y; [x] = z; }"
    " @ x->(2*y)+1 @",
])
def test_sums_written_two_ways_match(src):
    v = only_verdict(src)
    assert v.status == VERIFIED and not v.diagnostics


def test_offset_below_a_cell_is_found_like_one_above():
    # [x-1] and the precondition's x-1 are one address, as [x+1] and x+1 are
    below = only_verdict("void f(node x) @ x->1 * x-1->2 @ { a = [x-1]; [x-1] = 3; } @ x->1 * x-1->3 @")
    above = only_verdict("void f(node x) @ x->1 * x+1->2 @ { a = [x+1]; [x+1] = 3; } @ x->1 * x+1->3 @")
    assert "address not decidable" not in below.inconclusive_reason
    assert below.status == above.status != INCONCLUSIVE
    assert [d.kind for d in below.diagnostics] == [d.kind for d in above.diagnostics]


# -- a cell at an address plus a constant is reached from the address ---------


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("body, value", [("", 2), ("[x{}1] = 3;", 3), ("a = [x{}1];", 2)],
                         ids=["empty", "write", "read"])
def test_cell_at_an_offset_is_reached_from_its_base(sign, body, value):
    body = body.format(sign)
    v = only_verdict(f"void f(node x) @ x->1 * x{sign}1->2 @ {{ {body} }} @ x->1 * x{sign}1->{value} @")
    assert v.status == VERIFIED and not v.diagnostics


def test_overwriting_the_base_of_a_block_loses_every_cell():
    v = only_verdict("void f(node x) @ x->1 * x+1->2 @ { x = nil; } @ emp @")
    assert v.status == REFUTED
    assert [(d.kind, d.span.line, d.message) for d in v.diagnostics] == [
        (MEMORY_LEAK, 1, "last reference to chunk $p1->1 was overwritten"),
        (MEMORY_LEAK, 1, "last reference to chunk ($p1+1)->2 was overwritten"),
    ]


def test_long_annotations_verify():
    # the verifier looks each annotation up by a flat key; hashing the term
    # of a 3,000-part chain would take a frame per part
    chain = " * ".join(["emp"] * 3000)
    body = f"@ {chain} @; while (y < 1) @ {chain} @ {{ y = y + 1; }}"
    v = only_verdict(f"void f(int y) @ {chain} @ {{ {body} }} @ {chain} @")
    assert v.status == VERIFIED and not v.diagnostics


def test_double_delete_of_precondition_node_is_invalid_free():
    # the freed node's distinctness from the remaining cells outlives it
    v = only_verdict(walk_source(8, ("delete(p5);", "delete(p5);")))
    assert v.status == REFUTED
    assert [d.kind for d in v.diagnostics] == [INVALID_FREE]


def test_double_delete_of_new_cell_among_others_is_invalid_free():
    v = only_verdict("int f() { new(b); new(a); delete(a); delete(a); delete(b); }")
    assert v.status == REFUTED
    assert [d.kind for d in v.diagnostics] == [INVALID_FREE]


def test_delete_after_call_consumed_the_cell_is_invalid_free():
    src = """
int consume(int p) @ exists v. p->v @ { delete(p); } @ emp @
int f() { new(b); new(a); consume(a); delete(a); delete(b); }
"""
    verdicts = verify_source(src)
    assert [v.status for v in verdicts] == [VERIFIED, REFUTED]
    assert [d.kind for d in verdicts[1].diagnostics] == [INVALID_FREE]


def test_if_condition_is_evaluated_once():
    # evaluating it again would apply g's contract to a cell already freed
    src = """
void g(int x) @ x->1 @ { delete(x); } @ emp @
void f(int x) @ x->1 @ { if (g(x) == 0) { } } @ emp @
"""
    assert [v.status for v in verify_source(src)] == [VERIFIED, VERIFIED]
    # a read through a list root of undecided length notes each unfolded
    # case once, and both branches compare the same read value
    v = only_verdict("void f(int p) @ list(p, nil) @ { if ([p] == 0) { } } @ list(p, nil) @")
    rules = [n.rule for n in v.proof.root.walk()]
    assert (rules.count("stmt"), rules.count("unfold"), v.stats.rule_applications) == (1, 2, 6)
    cases = [n.input for n in v.proof.root.walk() if n.rule == "assume"][1:]
    assert cases == ["if-then case $u4==0", "if-else case $u4!=0"]


# -- cell lookup by solver class agrees with a pairwise PureSet.equal scan ------

X, Y, Z, W = (fm.Var(n) for n in "xyzw")


def _scan_cells(heap: SymHeap, addr: fm.SymExpr) -> list[int]:
    pure = heap.sep_pure()
    return [
        i for i, a in enumerate(heap.spatial) if isinstance(a, fm.PointsTo) and pure.equal(a.loc, addr)
    ]


def _scan_reachable(heap: SymHeap, roots: list) -> set[int]:
    """Reachability as a fixpoint of pairwise equal tests over every atom: a
    cell is reached from a value at its address, or at its address less the
    constant of any points-to address."""
    pure = heap.sep_pure()
    forms = [linear_form(a.loc) for a in heap.spatial if isinstance(a, fm.PointsTo)]
    shifts = [0] + sorted({c for c, terms in forms if c and terms})

    def expand(v):
        return [x for _, f in v.fields for x in expand(f)] if isinstance(v, fm.Record) else [v]

    def anchored(atom, v) -> bool:
        if isinstance(atom, fm.PointsTo):
            return any(pure.equal(atom.loc, fm.shifted(v, k)) for k in shifts)
        return any(pure.equal(a, v) for a in atom.args)

    flat = [x for v in roots for x in expand(v)]
    reached: set[int] = set()
    changed = True
    while changed:
        changed = False
        for i, atom in enumerate(heap.spatial):
            if i not in reached and any(anchored(atom, v) for v in flat):
                reached.add(i)
                flat += expand(atom.val) if isinstance(atom, fm.PointsTo) else list(atom.args)
                changed = True
    return reached


def _scan_preds(heap: SymHeap, addr: fm.SymExpr) -> tuple[list[int], list[int]]:
    """Predicate instances rooted at ``addr``, and one entry per argument of
    a predicate instance equal to ``addr``."""
    pure = heap.sep_pure()
    preds = [(i, a.args) for i, a in enumerate(heap.spatial) if isinstance(a, fm.PredApp)]
    roots = [i for i, args in preds if args and pure.equal(args[0], addr)]
    return roots, [i for i, args in preds for x in args if pure.equal(x, addr)]


def _index_reachable(heap: SymHeap, roots: list) -> set[int]:
    engine = _Engine(None, {}, fm.builtin_preds(), {}, 4)  # type: ignore[arg-type]
    store = {f"r{i}": v for i, v in enumerate(roots)}
    state = SymState(store=store, heap=heap, scopes=[set()], node=ProofBuilder().node("test", ""))
    return engine._reachable_atoms(state)


def _same_lookups(make_heap, addrs, roots) -> None:
    """Index and scan on separate copies of one heap, so neither sees the
    other's interned terms.  One copy answers every lookup in turn: a query
    can merge classes and so move the representatives already indexed."""
    shared = make_heap()
    for addr in addrs:
        expected = _scan_cells(make_heap(), addr)
        assert make_heap().cells_at(addr) == expected, fm.pretty_expr(addr)
        assert shared.cells_at(addr) == expected, fm.pretty_expr(addr)
        assert make_heap().cell_at(addr) == (expected[0] if expected else None)
        anchored, args = _scan_preds(make_heap(), addr)
        assert make_heap().roots_at(addr) == anchored == shared.roots_at(addr), fm.pretty_expr(addr)
        assert make_heap().args_at(addr) == args == shared.args_at(addr), fm.pretty_expr(addr)
    assert _index_reachable(make_heap(), roots) == _scan_reachable(make_heap(), roots)
    assert _index_reachable(shared, roots) == _scan_reachable(make_heap(), roots)


def _heap(pure=(), spatial=()) -> SymHeap:
    return SymHeap(PureSet(tuple(pure)), tuple(spatial))


def test_cell_lookup_on_inconsistent_heap_matches_every_cell():
    # a repeated location makes the separated set contradictory: equal holds
    # between any two terms, so the first cell answers every address
    dup = lambda: _heap((), [fm.PointsTo(Y, fm.IntLit(1)), fm.PointsTo(X, Z), fm.PointsTo(X, W)])
    assert dup().cells_at(W) == [0, 1, 2]
    assert dup().cell_at(W) == 0
    _same_lookups(dup, [X, Y, W, fm.Nil()], [W])
    clash = lambda: _heap(
        [("==", X, fm.IntLit(1)), ("==", X, fm.IntLit(2))], [fm.PointsTo(Y, X), fm.PointsTo(Z, W)]
    )
    _same_lookups(clash, [X, Z, W], [X])
    assert _index_reachable(clash(), [X]) == {0, 1}


def test_cell_lookup_address_equal_only_by_bounds():
    # x <= y && y <= x puts x and y in different congruence classes that the
    # difference bounds force equal
    bounds = lambda: _heap([("<=", X, Y), ("<=", Y, X)], [fm.PointsTo(Y, fm.IntLit(1)), fm.PointsTo(X, Z)])
    assert bounds().cells_at(X) == [0, 1]
    _same_lookups(bounds, [X, Y, Z], [X])
    # a negative cycle forces nothing: only congruence counts
    cycle = lambda: _heap([("<", X, Y), ("<", Y, X)], [fm.PointsTo(Y, fm.IntLit(1)), fm.PointsTo(X, Z)])
    assert cycle().cells_at(X) == [1]
    _same_lookups(cycle, [X, Y], [X])


def test_cell_lookup_offset_addresses():
    spatial = [fm.PointsTo(X, fm.IntLit(1)), fm.PointsTo(fm.shifted(X, 1), Y), fm.PointsTo(Y, fm.IntLit(3))]
    offsets = lambda: _heap([("==", Y, fm.ArithExpr("+", X, fm.IntLit(2)))], spatial)
    assert offsets().cells_at(fm.ArithExpr("+", X, fm.IntLit(1))) == [1]
    assert offsets().cells_at(fm.shifted(X, 2)) == [2]
    assert offsets().cells_at(fm.shifted(X, 3)) == []
    addrs = [X, Y, fm.shifted(X, 1), fm.shifted(X, 2), fm.ArithExpr("-", Y, fm.IntLit(1))]
    _same_lookups(offsets, addrs, [X])
    # y+1 is congruent to the indexed x+1; interning it moves that class's
    # representative, and the index follows
    congruent = _heap([("==", X, Y)], [fm.PointsTo(fm.shifted(X, 1), Z)])
    assert congruent.cells_at(fm.shifted(X, 1)) == [0]
    assert congruent.cells_at(fm.shifted(Y, 1)) == [0]


def test_reachability_through_predicate_instance_anchor():
    spatial = [
        fm.PredApp("list", (X, Y)),
        fm.PointsTo(Y, Z),
        fm.PointsTo(Z, W),
        fm.PointsTo(W, fm.node_record(fm.IntLit(1), X)),
    ]
    chain = lambda: _heap((), spatial)
    assert chain().roots_at(X) == [0] and chain().args_at(Y) == [0]
    assert _index_reachable(chain(), [X]) == {0, 1, 2, 3}
    assert _index_reachable(chain(), [W]) == {0, 1, 2, 3}
    assert _index_reachable(chain(), [Z]) == {0, 1, 2, 3}
    assert _index_reachable(chain(), [fm.IntLit(5)]) == set()
    for roots in ([X], [Y], [Z], [W], [fm.Nil()]):
        _same_lookups(chain, [X, Y, Z, W], roots)


def test_cell_lookup_matches_scan_on_random_heaps():
    rng = random.Random(5)
    terms = [X, Y, Z, W, fm.Nil(), fm.IntLit(2), fm.shifted(X, 1), fm.ArithExpr("+", Y, fm.IntLit(1))]
    for _ in range(300):
        pure = [
            (rng.choice(["==", "!=", "<=", "<"]), rng.choice(terms[:4]), rng.choice(terms))
            for _ in range(rng.randint(0, 3))
        ]
        spatial = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.2:
                spatial.append(fm.PredApp("list", (rng.choice(terms[:4]), rng.choice(terms))))
            else:
                val = rng.choice([rng.choice(terms), fm.node_record(rng.choice(terms), rng.choice(terms))])
                spatial.append(fm.PointsTo(rng.choice(terms[:4] + terms[6:]), val))
        make = lambda: _heap(pure, spatial)
        _same_lookups(make, terms, [rng.choice(terms)])


def test_follow_on_leaks_share_one_reachability_pass(monkeypatch):
    calls = []
    real = _Engine._reachable_atoms

    def counted(self, state):
        calls.append(1)
        return real(self, state)

    monkeypatch.setattr(_Engine, "_reachable_atoms", counted)
    v = only_verdict("int f(int x) @ exists b, c. x->b * b->c * c->7 @ { x = nil; } @ true @")
    assert [(d.kind, d.message) for d in v.diagnostics] == [
        (MEMORY_LEAK, "last reference to chunk $p1->$e2 was overwritten"),
        (MEMORY_LEAK, "last reference to chunk $e2->$e3 was overwritten"),
        (MEMORY_LEAK, "last reference to chunk $e3->7 was overwritten"),
    ]
    # one pass for the overwrite and its two follow-on losses, one at block exit
    assert len(calls) == 2


def test_walk_256_verifies():
    v = only_verdict(walk_source(256))
    assert v.status == VERIFIED and not v.diagnostics


def test_copy_64_verifies():
    v = only_verdict(copy_source(64))
    assert v.status == VERIFIED and not v.diagnostics


def test_copy_256_verifies():
    # a 256-atom precondition: no walker or prover step may recurse per atom
    v = only_verdict(copy_source(256))
    assert v.status == VERIFIED and not v.diagnostics


def test_binder_and_lookup_work_grows_linearly_on_walks(monkeypatch):
    # deterministic work counts instead of wall-clock time: each call of the
    # recursive formula functions is one node visited
    counts: dict[str, int] = {}

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(fm, "substitute")
    counted(fm, "free_vars")
    counted(PureSet, "equal")
    work = {}
    for n in (64, 128):
        counts.clear()
        assert only_verdict(walk_source(n)).status == VERIFIED
        work[n] = dict(counts)
    for name in ("substitute", "free_vars", "equal"):
        assert work[128][name] <= 2.5 * work[64][name], (name, work)


def test_solver_work_grows_linearly_on_copies(monkeypatch):
    # deterministic counts instead of wall-clock time: solvers built from an
    # empty one, and the atoms plus locations every solver asserts
    counts = {"scratch": 0, "asserted": 0}
    real = arith._Solver.__init__

    def counted(self, atoms, separated, base=None):
        counts["scratch"] += base is None
        counts["asserted"] += len(atoms) + len(separated)
        real(self, atoms, separated, base)

    monkeypatch.setattr(arith._Solver, "__init__", counted)
    work = {}
    for n in (16, 32, 64):
        counts.update(scratch=0, asserted=0)
        v = only_verdict(copy_source(n, (f"delete(q{n // 2});", f"delete(q{n // 2});")))
        assert v.status == REFUTED and [d.kind for d in v.diagnostics] == [INVALID_FREE]
        work[n] = dict(counts)
    assert work[16]["scratch"] == work[32]["scratch"] == work[64]["scratch"], work
    for n in (16, 32):
        assert work[2 * n]["asserted"] <= 2.3 * work[n]["asserted"], work


# Every heap access kind against every way of resolving its address: the
# verdict, the diagnostics, the taint reason and the rule count.
ACCESS = {
    "read": "v = [p];",
    "write": "[p] = 1;",
    "field_read": "v = p.next;",
    "field_write": "p.next = 1;",
    "delete": "delete(p);",
}
ADDRESS = {
    "nil": "p == null",
    "absent": "emp",
    "undecidable": "exists v. q->v",
    "invariant": "emp",  # the access runs in a loop body under `emp`
    "unfold_one": "list(p, null) * p != null",
    "unfold_many": "list(p, null)",
}
_UNFOLDED = "chunk $p1->object(node, $e5, $e4) is still allocated at return and not claimed by the postcondition"
_TAIL = "chunk list($e4, nil) is still allocated at return and not claimed by the postcondition"
_TAIL_LOST = "last reference to chunk list($e4, nil) was overwritten"
ACCESS_TABLE = [
    ("read", "nil", REFUTED, [(INVALID_ACCESS, "heap read dereferences nil")], "", 1),
    ("read", "absent", REFUTED, [(INVALID_ACCESS, "heap read reads unallocated location $p1")], "", 1),
    ("read", "undecidable", INCONCLUSIVE, [], "heap read reads unallocated location $p1 (address not decidable)", 2),
    ("read", "invariant", INCONCLUSIVE, [], "heap read reads memory not covered by the loop invariant", 4),
    ("read", "unfold_one", REFUTED, [(MEMORY_LEAK, _UNFOLDED), (MEMORY_LEAK, _TAIL)], "", 3),
    ("read", "unfold_many", INCONCLUSIVE, [], "heap read reads unallocated location $p1 (address not decidable)", 4),
    ("write", "nil", REFUTED, [(INVALID_ACCESS, "write dereferences nil")], "", 1),
    ("write", "absent", REFUTED, [(INVALID_ACCESS, "write to unallocated location $p1")], "", 1),
    ("write", "undecidable", INCONCLUSIVE, [], "write to unallocated location $p1 (address not decidable)", 1),
    ("write", "invariant", INCONCLUSIVE, [], "write to unallocated location $p1 (address not decidable)", 3),
    ("write", "unfold_one", REFUTED, [
        (MEMORY_LEAK, _TAIL_LOST),
        (MEMORY_LEAK, "chunk $p1->1 is still allocated at return and not claimed by the postcondition"),
    ], "", 4),
    ("write", "unfold_many", INCONCLUSIVE, [], "write to unallocated location $p1 (address not decidable)", 3),
    ("field_read", "nil", REFUTED, [(INVALID_ACCESS, "field read 'p.next' dereferences nil")], "", 1),
    ("field_read", "absent", REFUTED, [(INVALID_ACCESS, "field read 'p.next' on unallocated object")], "", 1),
    ("field_read", "undecidable", INCONCLUSIVE, [],
     "field read 'p.next' on unallocated object (address not decidable)", 2),
    ("field_read", "invariant", INCONCLUSIVE, [], "field read 'p.next' outside the loop invariant", 4),
    ("field_read", "unfold_one", REFUTED, [(MEMORY_LEAK, _UNFOLDED), (MEMORY_LEAK, _TAIL)], "", 3),
    ("field_read", "unfold_many", INCONCLUSIVE, [],
     "field read 'p.next' on unallocated object (address not decidable)", 4),
    ("field_write", "nil", REFUTED, [(INVALID_ACCESS, "field write 'p.next' dereferences nil")], "", 1),
    ("field_write", "absent", REFUTED, [(INVALID_ACCESS, "field write 'p.next' on unallocated object")], "", 1),
    ("field_write", "undecidable", INCONCLUSIVE, [],
     "field write 'p.next' on unallocated object (address not decidable)", 1),
    ("field_write", "invariant", INCONCLUSIVE, [],
     "field write 'p.next' on unallocated object (address not decidable)", 3),
    ("field_write", "unfold_one", REFUTED, [
        (MEMORY_LEAK, _TAIL_LOST),
        (MEMORY_LEAK, "chunk $p1->object(node, $e5, 1) is still allocated at return and not claimed by the postcondition"),
    ], "", 4),
    ("field_write", "unfold_many", INCONCLUSIVE, [],
     "field write 'p.next' on unallocated object (address not decidable)", 3),
    ("delete", "nil", REFUTED, [(INVALID_FREE, "delete of nil")], "", 1),
    ("delete", "absent", REFUTED, [(INVALID_FREE, "delete of unallocated location $p1")], "", 1),
    ("delete", "undecidable", INCONCLUSIVE, [], "delete of unallocated location $p1 (address not decidable)", 1),
    ("delete", "invariant", INCONCLUSIVE, [], "delete of unallocated location $p1 (address not decidable)", 3),
    ("delete", "unfold_one", REFUTED, [(MEMORY_LEAK, _TAIL_LOST)], "", 4),
    ("delete", "unfold_many", INCONCLUSIVE, [], "delete of unallocated location $p1 (address not decidable)", 3),
]


@pytest.mark.parametrize("kind,address,status,diagnostics,reason,rules", ACCESS_TABLE)
def test_access_path_table(kind, address, status, diagnostics, reason, rules):
    stmt = ACCESS[kind]
    if address == "invariant":
        stmt = f"while (n > 0) @ emp @ {{ {stmt} n = n - 1; }}"
    v = only_verdict(f"int f(int p, int q, int n) @ {ADDRESS[address]} @ {{ {stmt} }} @ true @")
    assert v.status == status
    assert [(d.kind, d.message) for d in v.diagnostics] == diagnostics
    assert v.inconclusive_reason == reason
    assert v.stats.rule_applications == rules


def test_access_path_table_covers_every_kind_and_address():
    assert {(k, a) for k, a, *_ in ACCESS_TABLE} == {(k, a) for k in ACCESS for a in ADDRESS}


def test_leak_through_nested_record_overwrite():
    # the lost value reaches q's cell two record levels down
    src = """
int f(int p)
@ exists q. p->object(_, f: object(_, g: object(_, h: q))) * q->1 @
{
  v = p.f;
  p.f = 0;
  v = 0;
} @ exists w. p->w @
"""
    v = only_verdict(src)
    assert [(d.kind, d.message) for d in v.diagnostics] == [
        (MEMORY_LEAK, "last reference to chunk $e2->1 was overwritten")
    ]
    assert v.diagnostics[0].span.line == 7


def test_leading_body_assert_is_checked_not_assumed():
    from heapcheck.interp import Fault, run_concrete
    from heapcheck.termir import term_functions

    src = "void f(node x) {\n  @ x->5 @;\n  delete(x);\n}\n"
    v = only_verdict(src)
    assert v.status == REFUTED
    assert [(d.kind, d.span.line, d.message) for d in v.diagnostics] == [
        (CONTRACT_VIOLATION, 2, "assertion not established: x->5")
    ]
    fn = term_functions(lower_program(parse_program(src)))[0]
    assert isinstance(run_concrete(fn), Fault)


def test_trailing_body_assert_is_not_a_postcondition():
    v = only_verdict("void f() {\n  new(x);\n  @ exists v. x->v @;\n}\n")
    assert v.status == REFUTED
    assert [(d.kind, d.span.line) for d in v.diagnostics] == [(UNREACHABLE_MEMORY, 3)]
