import gc
import itertools
import operator
import random
import weakref

from heapcheck import arith
from heapcheck.arith import (
    NO,
    ClassIndex,
    PureSet,
    SAT,
    UNKNOWN,
    UNSAT,
    YES,
    simplify_expr,
)
from heapcheck.entail import SymHeap
from heapcheck.formula import ArithExpr, IntLit, Nil, PointsTo, PredApp, Record, Var, pretty, shifted
from heapcheck.parser import parse_assertion
from heapcheck.termir import parse_term, term_to_formula

X, Y, Z, A, I = Var("x"), Var("y"), Var("z"), Var("a"), Var("i")
W, P, Q = Var("w"), Var("p"), Var("q")

_OPS = {
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def test_sat_with_witness():
    res = PureSet().add("<", A, IntLit(10)).add("==", A, IntLit(1)).check_sat()
    assert res.status == SAT
    assert res.witness == {"a": 1}


def test_direct_contradiction():
    assert PureSet().add("==", X, Y).add("!=", X, Y).check_sat().status == UNSAT


def test_strict_cycle_unsat():
    assert PureSet().add("<", X, Y).add("<", Y, X).check_sat().status == UNSAT


def test_zero_cycle_with_disequality_unsat():
    p = PureSet().add("<=", X, Y).add("<=", Y, X).add("!=", X, Y)
    assert p.check_sat().status == UNSAT


def test_entails_examples():
    assert PureSet().add("==", A, IntLit(1)).entails("<", A, IntLit(10)) == YES
    assert PureSet().entails("==", X, X) == YES
    assert PureSet().add("<", X, Y).entails("!=", X, Y) == YES
    assert PureSet().entails("==", X, Y) == NO


def test_congruence_through_structure():
    p = PureSet().add("==", X, Y)
    assert p.equal(ArithExpr("+", X, IntLit(1)), ArithExpr("+", Y, IntLit(1)))


def test_nil_is_zero():
    p = PureSet().add("==", X, Nil())
    assert p.const_of(X) == 0
    assert p.entails("==", X, IntLit(0)) == YES


def test_nonlinear_goes_unknown_not_wrong():
    p = PureSet().add("<", ArithExpr("*", X, X), IntLit(0))
    # x*x < 0 is unsatisfiable over the integers but outside the fragment
    assert p.check_sat().status in (UNKNOWN, UNSAT)
    assert p.check_sat().status == UNKNOWN  # current procedure cannot decide it


def test_simplify_examples():
    assert simplify_expr(ArithExpr("+", IntLit(3), IntLit(4))) == IntLit(7)
    ctx = PureSet().add("==", I, IntLit(2))
    assert simplify_expr(ArithExpr("+", I, IntLit(7)), ctx) == IntLit(9)
    assert simplify_expr(ArithExpr("*", X, IntLit(0))) == IntLit(0)


def _ev(e, env):
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, Nil):
        return 0
    if isinstance(e, Var):
        return env[e.name]
    l, r = _ev(e.left, env), _ev(e.right, env)
    return l + r if e.op == "+" else l - r if e.op == "-" else l * r


def _rand_arith(rng, depth=4):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([IntLit(rng.randint(-5, 5)), X, Y, Z, Nil()])
    return ArithExpr(rng.choice("+-*"), _rand_arith(rng, depth - 1), _rand_arith(rng, depth - 1))


def _respell(e, rng):
    """``e`` written another way with the same linear form: sums commuted,
    regrouped and padded with constants that cancel, products commuted."""
    if isinstance(e, ArithExpr):
        l, r = _respell(e.left, rng), _respell(e.right, rng)
        k = IntLit(rng.randint(-3, 3))
        roll = rng.random()
        if e.op == "+":
            if roll < 0.4:
                return ArithExpr("+", r, l)
            if roll < 0.7:
                return ArithExpr("-", l, ArithExpr("-", IntLit(0), r))
            return ArithExpr("+", ArithExpr("+", l, k), ArithExpr("-", r, k))
        if e.op == "-":
            if roll < 0.5:
                return ArithExpr("+", ArithExpr("-", IntLit(0), r), l)
            return ArithExpr("-", ArithExpr("+", l, k), ArithExpr("+", r, k))
        return ArithExpr("*", r, l) if roll < 0.5 else ArithExpr("*", l, r)
    if rng.random() < 0.3:
        k = rng.randint(-3, 3)
        return ArithExpr("-", ArithExpr("+", e, IntLit(k)), IntLit(k))
    return e


def test_simplify_fixed_point_and_value_preservation():
    # simplify_expr keeps the value and is idempotent, and two spellings of
    # one linear form get one key
    rng = random.Random(77)
    envs = [{v: rng.randint(-9, 9) for v in "xyz"} for _ in range(4)]
    for _ in range(500):
        e = _rand_arith(rng)
        s = simplify_expr(e)
        assert simplify_expr(s) == s, e
        other = _respell(e, rng)
        assert arith.canon_key(other) == arith.canon_key(e), (e, other)
        for env in envs:
            assert _ev(e, env) == _ev(s, env) == _ev(other, env), e


def test_sums_key_by_their_linear_form():
    one, two = IntLit(1), IntLit(2)
    bumped = ArithExpr("+", ArithExpr("+", Y, one), one)
    assert arith.canon_key(bumped) == arith.canon_key(ArithExpr("+", Y, two))
    assert PureSet().equal(bumped, ArithExpr("+", Y, two))
    assert arith.canon_key(ArithExpr("+", X, IntLit(0))) == arith.canon_key(X)
    assert arith.canon_key(ArithExpr("-", Nil(), Nil())) == ("int", 0)
    assert simplify_expr(bumped) == ArithExpr("+", Y, two)
    # 1 + y - w + w + y: leaves by key, positive coefficients first, then the constant
    mixed = ArithExpr("+", ArithExpr("+", ArithExpr("-", ArithExpr("+", one, Y), W), W), Y)
    assert simplify_expr(mixed) == ArithExpr("+", ArithExpr("*", two, Y), one)
    assert simplify_expr(ArithExpr("-", ArithExpr("-", IntLit(0), X), IntLit(3))) == (
        ArithExpr("-", ArithExpr("-", IntLit(0), X), IntLit(3)))
    assert simplify_expr(ArithExpr("-", Y, ArithExpr("+", X, one)), PureSet().add("==", X, two)) == (
        ArithExpr("-", Y, IntLit(3)))


def test_long_sum_is_one_level_deep():
    chain = Y
    for _ in range(5000):
        chain = ArithExpr("+", chain, IntLit(1))
    assert simplify_expr(chain) == ArithExpr("+", Y, IntLit(5000))
    assert PureSet().add("==", X, chain).entails("==", X, ArithExpr("+", Y, IntLit(5000))) == YES


def test_products_print_as_they_parse():
    for text, shown in (("x->mul(offset(y, 1), z)", "x->((y+1)*z)"), ("x->offset(y)", "x->y"),
                        ("x->offset(y, minus(0, 2))", "x->(y-2)")):
        f = term_to_formula(parse_term(text))
        assert pretty(f) == shown
        assert parse_assertion(pretty(f)) == f


def test_entails_monotone():
    rng = random.Random(13)
    ops = list(_OPS)
    exprs = [X, Y, Z, IntLit(0), IntLit(3), IntLit(-2)]
    for _ in range(200):
        base = PureSet()
        for _ in range(rng.randint(0, 3)):
            base = base.add(rng.choice(ops), rng.choice(exprs), rng.choice(exprs))
        atom = (rng.choice(ops), rng.choice(exprs), rng.choice(exprs))
        before = base.entails(*atom)
        bigger = base.add(rng.choice(ops), rng.choice(exprs), rng.choice(exprs))
        after = bigger.entails(*atom)
        if before == YES:
            assert after != NO


def brute_force_sat(atoms, lo=-8, hi=8):
    def ev(e, env):
        if isinstance(e, IntLit):
            return e.value
        if isinstance(e, Nil):
            return 0
        return env[e.name]

    for vals in itertools.product(range(lo, hi + 1), repeat=3):
        env = dict(zip(("x", "y", "z"), vals))
        if all(_OPS[op](ev(l, env), ev(r, env)) for op, l, r in atoms):
            return env
    return None


def test_soundness_vs_brute_force_sample():
    rng = random.Random(2)
    exprs = [X, Y, Z] + [IntLit(k) for k in range(-8, 9)]
    for _ in range(300):
        atoms = [
            (rng.choice(list(_OPS)), rng.choice(exprs), rng.choice(exprs))
            for _ in range(rng.randint(1, 4))
        ]
        p = PureSet(tuple(atoms))
        res = p.check_sat()
        model = brute_force_sat(atoms)
        if res.status == UNSAT:
            assert model is None, atoms
        if res.status == SAT:
            env = {v: res.witness.get(v, 0) for v in ("x", "y", "z")}
            def ev(e):
                if isinstance(e, IntLit):
                    return e.value
                if isinstance(e, Nil):
                    return 0
                return env[e.name]
            assert all(_OPS[op](ev(l), ev(r)) for op, l, r in atoms), atoms


def test_zero_weight_cycle_forces_equality():
    p = PureSet().add("<=", X, Y).add("<=", Y, X)
    assert p.equal(X, Y) and p.equal(Y, X)
    assert not PureSet().add("<=", X, Y).equal(X, Y)


def test_zero_weight_cycle_through_pinned_constants():
    # bounds against literals run through the zero node that nil pins
    p = PureSet().add("<=", X, IntLit(3)).add(">=", X, IntLit(3))
    assert p.equal(X, IntLit(3))
    assert not p.equal(X, IntLit(4))
    q = PureSet().add("<=", X, Y).add("<=", Y, Nil()).add(">=", X, Nil())
    assert q.equal(Y, Nil()) and q.equal(X, Y)


def test_negative_cycle_is_unsat():
    p = (PureSet().add("<=", ArithExpr("+", X, IntLit(1)), Y)
         .add("<=", ArithExpr("+", Y, IntLit(1)), Z).add("<=", Z, X))
    assert p.check_sat().status == UNSAT


def test_contradiction_proves_any_equality():
    p = PureSet().add("==", X, IntLit(1)).add("==", X, IntLit(2))
    assert p.equal(Y, Z)
    assert PureSet(separated=(X, X)).equal(Y, Z)


def test_disequality_broken_by_bounds():
    p = PureSet().add("!=", X, IntLit(3)).add(">=", X, IntLit(3))
    assert p.check_sat().status != UNSAT
    assert p.add("<=", X, IntLit(3)).check_sat().status == UNSAT


def test_separated_locations():
    res = PureSet(separated=(X, Y, Z)).check_sat()
    assert res.status == SAT
    values = [res.witness[v] for v in "xyz"]
    assert 0 not in values and len(set(values)) == 3
    assert PureSet(separated=(X, Y, X)).check_sat().status == UNSAT
    assert PureSet((("==", Y, Nil()),), (X, Y)).check_sat().status == UNSAT
    assert PureSet(separated=(Nil(),)).check_sat().status == UNSAT
    shifted_locs = (shifted(shifted(X, 2), -1), shifted(X, 1))
    assert PureSet(separated=shifted_locs).check_sat().status == UNSAT
    # forced equal by bounds, not by congruence
    forced = PureSet((("<=", X, Y), ("<=", Y, X)), (X, Y))
    assert forced.check_sat().status == UNSAT
    assert PureSet(separated=(X, Y)).distinct(X, Y)
    assert PureSet(separated=(X,)).distinct(X, Nil())


def test_query_union_invalidates_graph():
    # a == x+1 and a == b by bounds; interning y+1 with x == y unions with a's
    # class after the graph was built, and the new class must be found in it
    p = (PureSet().add("==", X, Y).add("==", A, ArithExpr("+", X, IntLit(1)))
         .add("<=", A, Z).add("<=", Z, A))
    assert p.equal(Z, A)
    solver = p._solver
    before = solver.version
    assert p.equal(Z, ArithExpr("+", Y, IntLit(1)))
    assert solver.version > before


def test_witnesses_unchanged():
    p = (PureSet().add("<", X, Y).add("<=", Y, ArithExpr("+", Z, IntLit(2)))
         .add("==", Z, IntLit(5)).add("!=", W, X).add(">=", W, IntLit(-3)))
    assert p.check_sat().witness == {"x": 4, "y": 5, "z": 5, "w": 5}
    h = SymHeap(
        PureSet().add("<", P, Q).add("!=", X, Nil()).add(">", Q, IntLit(7)),
        (PointsTo(P, IntLit(1)), PointsTo(Q, X), PointsTo(W, Nil())),
    )
    assert h.sep_pure().check_sat().witness == {"p": 7, "q": 8, "x": 3000009, "w": 2000006}


def test_sep_pure_is_computed_once_per_heap():
    h = SymHeap(PureSet(), (PointsTo(X, IntLit(1)), PointsTo(Y, IntLit(2))))
    assert h.sep_pure() is h.sep_pure()
    assert h.sep_pure().separated == (X, Y)
    assert h.sep_pure().atoms == ()


def test_solver_is_owned_by_the_set():
    assert not hasattr(arith, "_solver_cache")
    p = PureSet().add("<", X, Y)
    assert p._solver is p._solver


# -- derived sets extend their parent's solver ----------------------------------

_GROW_VARS = [X, Y, Z, W, P, Q]


def _grow_term(rng):
    roll = rng.random()
    v = rng.choice(_GROW_VARS)
    if roll < 0.45:
        return v
    if roll < 0.6:
        return shifted(v, rng.choice((-2, -1, 1, 2, 3)))
    if roll < 0.7:
        return ArithExpr("*", v, rng.choice(_GROW_VARS))
    if roll < 0.8:
        return Record("node", (("next", v), ("value", rng.choice([IntLit(1), rng.choice(_GROW_VARS)]))))
    if roll < 0.9:
        return IntLit(rng.randint(-3, 3))
    return Nil()


def _grow_atom(rng):
    if rng.random() < 0.03:  # an outright contradiction
        v = rng.choice(_GROW_VARS)
        return rng.choice([("!=", v, v), ("<", v, v), ("==", IntLit(1), IntLit(2))])
    return (rng.choice(list(_OPS)), _grow_term(rng), _grow_term(rng))


def _grow_loc(rng):
    roll = rng.random()
    if roll < 0.6:
        return Var(f"c{rng.randint(0, 99)}")
    if roll < 0.9:
        return rng.choice(_GROW_VARS)
    return rng.choice([shifted(rng.choice(_GROW_VARS), 1), Nil()])


def _terms_of(pure):
    """The terms of the set's atoms and locations.  A consistent set's solver
    has interned them, so queries over them leave its tables as they are."""
    out = []
    for _, l, r in pure.atoms:
        out += [l, r]
    out += list(pure.separated)
    return list(dict.fromkeys(out))


def _has_record(e) -> bool:
    if isinstance(e, Record):
        return True
    if isinstance(e, ArithExpr):
        return _has_record(e.left) or _has_record(e.right)
    return False


def _same_as_fresh(grown, rng):
    """``grown`` answers as a solver built from scratch over its atoms and
    locations does."""
    fresh = PureSet(grown.atoms, grown.separated)
    assert "_base" not in vars(fresh)
    got, want = grown.check_sat(), fresh.check_sat()
    assert (got.status == UNSAT) == (want.status == UNSAT), (grown.atoms, grown.separated)
    # the order of the assertions does not move the answer or its witness; a
    # term that a query on this set or an ancestor interned takes part in
    # the search for a witness, which can then end otherwise
    if grown._solver.parent.keys() == fresh._solver.parent.keys():
        assert got == want, (grown.atoms, grown.separated)
    if got.status == SAT:
        env = {v.name: 0 for v in _GROW_VARS} | got.witness
        for op, l, r in grown.atoms:
            if not (_has_record(l) or _has_record(r)):
                assert _OPS[op](_ev(l, env), _ev(r, env)), (op, l, r, env)
    terms = _terms_of(grown)
    for _ in range(6 if terms else 0):
        a, b = rng.choice(terms), rng.choice(terms)
        assert grown.equal(a, b) == fresh.equal(a, b), (a, b)
    # a contradictory set pins whatever its assertions reached before the
    # contradiction, and that depends on the order they came in
    if not grown._solver.contradiction:
        for v in _GROW_VARS:
            assert grown.const_of(v) == fresh.const_of(v)
    entries = [(t, i) for i, t in enumerate(terms)]
    index, ref = ClassIndex(grown, entries), ClassIndex(fresh, entries)
    for t in terms:
        assert index.find(t) == ref.find(t), t


def test_grown_sets_match_a_fresh_build():
    rng = random.Random(27)
    for _ in range(60):
        p = PureSet()
        for _ in range(rng.randint(1, 10)):
            if rng.random() < 0.7:
                p = p.add(*_grow_atom(rng))
            else:
                more = tuple(_grow_atom(rng) for _ in range(rng.randint(0, 2)))
                locs = tuple(_grow_loc(rng) for _ in range(rng.randint(0, 2)))
                p = p.extend(PureSet(more, locs))
            if rng.random() < 0.3:
                continue  # leave it unbuilt: the next set extends the same built solver
            _same_as_fresh(p, rng)
            # a query leaves the set's later answers as they were
            before = p.check_sat()
            answers = [p.equal(a, b) for a in _terms_of(p) for b in _terms_of(p)]
            op, l, r = _grow_atom(rng)
            assert p.entails(op, l, r) == {UNSAT: YES, SAT: NO}.get(
                p.add(arith.NEGATED_CMP[op], l, r).check_sat().status, UNKNOWN
            )
            assert p.distinct(l, r) == (PureSet(p.atoms + (("==", l, r),), p.separated).check_sat().status == UNSAT)
            assert p.check_sat() == before
            assert answers == [p.equal(a, b) for a in _terms_of(p) for b in _terms_of(p)]


def test_grown_heaps_match_a_fresh_build():
    rng = random.Random(28)
    for _ in range(60):
        h = SymHeap(PureSet(tuple(_grow_atom(rng) for _ in range(rng.randint(0, 2)))))
        for step in range(rng.randint(1, 10)):
            cells = [a for a in h.spatial if isinstance(a, PointsTo)]
            preds = [a for a in h.spatial if isinstance(a, PredApp)]
            roll = rng.random()
            if roll < 0.3:
                h = h.with_atom(PointsTo(_grow_loc(rng), _grow_term(rng)))
            elif roll < 0.35:
                h = h.with_atom(PredApp("list", (_grow_loc(rng), _grow_term(rng))))
            elif roll < 0.5:
                h = h.add_pure(*_grow_atom(rng))
            elif roll < 0.65 and cells:
                h = h.with_value(rng.choice(cells), _grow_term(rng))
            elif roll < 0.8 and cells:
                gone = rng.choice(cells)
                h = h.without(gone).released([gone])
            elif roll < 0.85 and preds:
                h = h.without(rng.choice(preds))
            else:
                seps = (_grow_loc(rng),) if rng.random() < 0.3 else ()
                other = SymHeap(PureSet((_grow_atom(rng),), seps), (PointsTo(_grow_loc(rng), Nil()),))
                h = h.star(other)
            if rng.random() < 0.3:
                continue
            locs = tuple(a.loc for a in h.spatial if isinstance(a, PointsTo))
            sep = h.sep_pure()
            assert sep == PureSet(h.pure.atoms, h.pure.separated + locs)
            _same_as_fresh(sep, rng)
            _same_as_fresh(h.pure, rng)
            fresh = ClassIndex(PureSet(sep.atoms, sep.separated), [(loc, i) for i, loc in enumerate(locs)])
            positions = [i for i, a in enumerate(h.spatial) if isinstance(a, PointsTo)]
            for loc in locs:
                assert h.cells_at(loc) == [positions[j] for j in fresh.find(loc)], loc
            args = [(x, (i, k)) for i, a in enumerate(h.spatial) if isinstance(a, PredApp) for k, x in enumerate(a.args)]
            fresh_args = ClassIndex(PureSet(sep.atoms, sep.separated), args)
            for x, _ in args:
                assert h.args_at(x) == [i for i, _ in fresh_args.find(x)], x


def test_a_derived_set_does_not_pin_its_parent():
    parent = PureSet().add("<", X, Y).add("!=", Y, IntLit(3))
    assert parent.check_sat().status == SAT
    parent_ref, solver_ref = weakref.ref(parent), weakref.ref(parent._solver)
    child = parent.add("==", Y, Z)
    # a set derived from an unbuilt one holds the nearest built solver, never the unbuilt set
    grandchild = child.add("<=", Z, IntLit(9))
    assert vars(grandchild)["_base"] is vars(child)["_base"] is parent._solver
    del child
    assert grandchild.check_sat().status == SAT
    assert "_base" not in vars(grandchild)
    del parent
    gc.collect()
    assert parent_ref() is None and solver_ref() is None
    assert grandchild.equal(Y, Z) and not grandchild.equal(X, Y)


def test_a_derived_heap_does_not_pin_its_parent():
    parent = SymHeap(PureSet(), (PointsTo(X, IntLit(1)), PredApp("list", (Z, Nil()))))
    assert parent.cells_at(X) == [0] and parent.args_at(Z) == [1]
    refs = [weakref.ref(o) for o in (parent, parent.sep_pure(), parent.sep_pure()._solver)]
    child = parent.add_pure("!=", Y, Nil()).with_atom(PointsTo(Y, IntLit(2)))
    # the child's indexes are grown but never read: building its solver
    # must let the parent's go
    assert child.consistent()
    del parent
    gc.collect()
    assert [r() for r in refs] == [None, None, None]
    assert child.cells_at(Y) == [2] and child.cells_at(X) == [0] and child.args_at(Z) == [1]


def test_a_grown_set_checks_old_facts_once_classes_move():
    # a disequality or a separated pair of the built parent, broken by a new
    # equality, makes the child contradictory: it proves any equality
    for parent in (PureSet().add("!=", X, Y), PureSet(separated=(X, Y))):
        assert parent.check_sat().status == SAT
        child = parent.add("==", X, Y)
        assert child.check_sat().status == UNSAT and child.equal(Z, W)
    # a query merges y+1's class into a new term, which becomes its
    # representative; a location in that class is then not a new class
    base = PureSet((("==", X, Y),), (shifted(Y, 1),))
    assert base.check_sat().status == SAT
    assert base.equal(shifted(X, 1), shifted(Y, 1))
    child = base.grown(base.atoms, base.separated + (shifted(X, 1),))
    assert child.check_sat().status == UNSAT and child.equal(Z, W)


def test_a_witness_does_not_depend_on_assertion_order():
    # a grown solver interns the base's location node(z) before node(a), a
    # fresh one after it, so the congruent pair has another representative;
    # the spread for 3*node(n) + node(n) != 3*node(a) must not follow it
    def node(v):
        return Record("node", (("next", v),))

    base = PureSet((), (node(Z),))
    assert base.check_sat().status == SAT
    lhs = ArithExpr("+", ArithExpr("*", IntLit(3), node(Var("n"))), node(Var("n")))
    child = base.extend(PureSet((("==", A, Z), ("!=", lhs, ArithExpr("*", IntLit(3), node(A))))))
    fresh = PureSet(child.atoms, child.separated)
    got, want = child.check_sat(), fresh.check_sat()
    key = arith.canon_key(node(A))
    assert child._solver.find(key) != fresh._solver.find(key)
    assert got == want and got.status == SAT


def test_a_grown_index_takes_no_table_from_another_history():
    # the parent and the child each merge classes after the child copied
    # the parent's solver; the child must not read the parent's new table
    U = Var("u")
    parent = SymHeap(PureSet((("==", U, W),)), (PointsTo(X, IntLit(1)), PointsTo(shifted(W, 1), IntLit(2))))
    assert parent.cells_at(X) == [0]
    child = parent.add_pure("==", X, Z)
    assert child.sep_pure().check_sat().status != UNSAT  # copies the parent's solver; x's class moves
    assert parent.cells_at(shifted(U, 1)) == [1]  # the parent merges u+1 into w+1's class
    assert child.cells_at(X) == child.cells_at(Z) == [0]
    assert child.cells_at(shifted(U, 1)) == [1]


def test_a_grown_index_leaves_its_parent_table_alone():
    parent = SymHeap(PureSet(), (PredApp("list", (X, Nil())),))
    assert parent.args_at(Nil()) == [0]
    child = parent.with_atom(PredApp("list", (Y, Nil())))
    assert child.args_at(Nil()) == [0, 1] and child.roots_at(Y) == [1]
    assert parent.args_at(Nil()) == [0]


def test_unsat_and_equal_answer_as_the_witness_checks_do():
    # the prover's UNSAT tests build no witness, and on a set that is not
    # UNSAT it decides a consequent == by equal instead of entails: both
    # answer as the checks they stand for, on fresh and on grown sets, before
    # and after other queries have interned terms into the solver
    rng = random.Random(30)
    for _ in range(150):
        p = PureSet()
        for _ in range(rng.randint(1, 8)):
            if rng.random() < 0.7:
                p = p.add(*_grow_atom(rng))
            else:
                locs = tuple(_grow_loc(rng) for _ in range(rng.randint(0, 2)))
                p = p.extend(PureSet((_grow_atom(rng),), locs))
            for q in (p, PureSet(p.atoms, p.separated)):
                assert q.unsat() == (q.check_sat().status == UNSAT), (q.atoms, q.separated)
                if q.unsat():
                    continue
                for _ in range(4):
                    l, r = _grow_term(rng), _grow_term(rng)
                    want = q.entails("==", l, r) == YES
                    assert q.equal(l, r) == want, (q.atoms, q.separated, l, r)
                    assert q.unsat() == (q.check_sat().status == UNSAT)
