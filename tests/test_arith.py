import itertools
import operator
import random

from heapcheck import arith
from heapcheck.arith import (
    NO,
    PureSet,
    SAT,
    UNKNOWN,
    UNSAT,
    YES,
    simplify_expr,
)
from heapcheck.entail import SymHeap
from heapcheck.formula import ArithExpr, IntLit, Nil, OffsetOf, PointsTo, Var

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


def test_simplify_fixed_point_and_value_preservation():
    rng = random.Random(77)

    def rand_e(depth=3):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice([IntLit(rng.randint(-5, 5)), X, Y, Nil()])
        return ArithExpr(rng.choice("+-*"), rand_e(depth - 1), rand_e(depth - 1))

    def ev(e, env):
        if isinstance(e, IntLit):
            return e.value
        if isinstance(e, Nil):
            return 0
        if isinstance(e, Var):
            return env[e.name]
        l, r = ev(e.left, env), ev(e.right, env)
        return l + r if e.op == "+" else l - r if e.op == "-" else l * r

    for _ in range(300):
        e = rand_e()
        s = simplify_expr(e)
        assert simplify_expr(s) == s
        for env in ({"x": 2, "y": -1}, {"x": 0, "y": 7}):
            assert ev(e, env) == ev(s, env)


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
    shifted = (OffsetOf(OffsetOf(X, 2), -1), OffsetOf(X, 1))
    assert PureSet(separated=shifted).check_sat().status == UNSAT
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
