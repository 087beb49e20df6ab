"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Budgeted to run on a laptop in a few minutes total; every tolerance is zero
violations over the stated corpus.
"""

import itertools
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import (
    data_path,
    data_text,
    rand_formula,
    rand_term,
    validate_dot,
)
from oracle import OracleConfig, check_entailment_sound, eval_assertion

from heapcheck import formula as fm
from heapcheck.arith import PureSet, SAT, UNSAT
from heapcheck.entail import Proved, SymHeap, prove
from heapcheck.interp import ConcreteState, CRecord, Fault, run_concrete
from heapcheck.parser import parse_assertion, parse_program
from heapcheck.prooftree import ProofBuilder, ProofTree, read_structured, to_structured
from heapcheck.symexec import (
    INVALID_ACCESS,
    INVALID_FREE,
    REFUTED,
    VERIFIED,
    verify_program_term,
)
from heapcheck.termir import (
    Atom,
    Int,
    TList,
    comp,
    emit_text,
    lower_program,
    parse_term,
    term_functions,
)

PREDS = fm.builtin_preds()


def report(criterion: str, detail: str = ""):
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            extra = f" ({detail})" if detail else ""
            print(f"ACCEPTANCE {criterion}: {status}{extra}")
            return False

    return _Ctx()


def verify_file(name: str, depth: int = 4):
    return verify_program_term(lower_program(parse_program(data_text(name))), depth=depth)


# -- criterion 1: paper corpus detection --------------------------------------


def test_criterion_1_paper_corpus():
    with report("1 paper-corpus detection"):
        expected = {
            "ex1.oc": ("MemoryLeak", 4),
            "ex2.oc": ("UnreachableMemory", 6),
            "ex3.oc": ("InvalidAccess", 5),
        }
        for name, (kind, line) in expected.items():
            verdicts = verify_file(name)
            assert len(verdicts) == 1, name
            diags = verdicts[0].diagnostics
            assert len(diags) == 1, (name, [d.kind for d in diags])
            assert diags[0].kind == kind, name
            assert diags[0].span.line == line, (name, diags[0].span)
        t0 = time.perf_counter()
        v4 = verify_file("ex4.oc")[0]
        assert time.perf_counter() - t0 < 10.0
        assert v4.status in ("Inconclusive", "Refuted")
        fn = term_functions(lower_program(parse_program(data_text("ex4.oc"))))[0]
        out = run_concrete(fn, fuel=1000)
        assert isinstance(out, Fault) and out.kind == "OutOfFuel"


# -- criterion 2: translation fidelity ------------------------------------------


def test_criterion_2_translation_fidelity():
    with report("2 translation fidelity"):
        paper = (
            "function(f, int, [param(a,int), param(b,int)], "
            "[assert(le(a,10)), assign(id,2), assign(a,1), assign(b,6), "
            "assert(a->5 * b->c * c->object(myClass1,15))])"
        )

        def toks(s):
            return re.findall(r"->|\|\||&&|[A-Za-z_][A-Za-z0-9_]*|\d+|[^\sA-Za-z0-9_]", s)

        emitted = emit_text(lower_program(parse_program(data_text("paper_fn.oc"))))
        assert toks(emitted) == toks(paper)
        assert "le(a, 10)" in emitted


# -- criterion 3: list concatenation ---------------------------------------------


def _node(v, nxt):
    return CRecord("node", (("value", v), ("next", nxt)))


def _concrete_lists():
    return {
        1: _node(1, 2), 2: _node(2, 3), 3: _node(3, 0),
        4: _node(4, 5), 5: _node(5, 6), 6: _node(6, 0),
    }


def test_criterion_3_list_concatenation():
    with report("3 list concatenation"):
        ghosts = {k: fm.IntLit(i + 1) for i, k in enumerate("abcdef")}
        cfg = OracleConfig()

        v1 = verify_file("append_destructive.oc")[0]
        assert v1.status == VERIFIED, v1.diagnostics
        fn1 = term_functions(lower_program(parse_program(data_text("append_destructive.oc"))))[0]
        init1 = ConcreteState(store={"x": 1, "y": 4}, heap=_concrete_lists())
        pre = fm.substitute(parse_assertion("x->a,b,c * y->d,e,f"), ghosts)
        assert eval_assertion(pre, init1, PREDS, cfg)
        out1 = run_concrete(fn1, init1, fuel=1000)
        assert isinstance(out1, ConcreteState)
        post1 = fm.substitute(parse_assertion("x->a,b,c,d,e,f * y->f"), ghosts)
        assert eval_assertion(post1, out1, PREDS, cfg)

        v2 = verify_file("append_copy.oc")[0]
        assert v2.status == VERIFIED, v2.diagnostics
        fn2 = term_functions(lower_program(parse_program(data_text("append_copy.oc"))))[0]
        init2 = ConcreteState(store={"x": 1, "y": 4, "z": 0}, heap=_concrete_lists())
        out2 = run_concrete(fn2, init2, fuel=1000)
        assert isinstance(out2, ConcreteState)
        post2 = fm.substitute(
            parse_assertion("x->a,b,c * y->d,e,f * z->a,b,c,d,e,f"), ghosts
        )
        assert eval_assertion(post2, out2, PREDS, cfg)

        # the worked 6-element entailment, verdict pinned by the oracle
        from conftest import heap_of

        ant = heap_of("x->a,b,c,d,e,f * y->f")
        con = heap_of("list(x, nil)", skolemize=False)
        r = prove(ant, con, PREDS, depth=8)
        assert isinstance(r, Proved)
        assert r.frame.pretty() == "y->f"


# -- criterion 4: entailment soundness suite --------------------------------------

_V = ["x", "y", "z"]


def _gen_entailment(rng: random.Random):
    atoms = []
    for _ in range(rng.randint(0, 3)):
        v = fm.Var(rng.choice(_V))
        k = rng.random()
        if k < 0.45:
            atoms.append(fm.PointsTo(v, fm.IntLit(rng.randint(0, 4))))
        elif k < 0.6:
            atoms.append(fm.PointsTo(v, fm.Var(rng.choice(_V))))
        elif k < 0.75:
            atoms.append(
                fm.PointsTo(
                    v,
                    fm.node_record(
                        fm.IntLit(rng.randint(0, 1)),
                        rng.choice([fm.Var(rng.choice(_V)), fm.Nil()]),
                    ),
                )
            )
        else:
            atoms.append(fm.PredApp("list", (v, rng.choice([fm.Nil(), fm.Var(rng.choice(_V))]))))
    pure = PureSet()
    for _ in range(rng.randint(0, 2)):
        pure = pure.add(
            rng.choice(["==", "!="]),
            fm.Var(rng.choice(_V)),
            rng.choice([fm.Var(rng.choice(_V)), fm.IntLit(rng.randint(0, 4))]),
        )
    ant = SymHeap(pure, tuple(atoms))
    strategy = rng.random()
    existentials: list[str] = []
    catoms: list = []
    for a in atoms:
        if rng.random() >= 0.75:
            continue
        if isinstance(a, fm.PointsTo) and rng.random() < 0.4:
            name = f"q{len(existentials)}"
            existentials.append(name)
            catoms.append(fm.PointsTo(a.loc, fm.Var(name)))
        else:
            catoms.append(a)
    if strategy < 0.15 and catoms:
        i = rng.randrange(len(catoms))
        a = catoms[i]
        if isinstance(a, fm.PointsTo):
            catoms[i] = fm.PointsTo(a.loc, fm.IntLit(rng.randint(0, 4)))
    elif strategy < 0.3:
        catoms.append(fm.PredApp("list", (fm.Var(rng.choice(_V)), fm.Nil())))
    cpure = PureSet()
    if rng.random() < 0.3:
        cpure = cpure.add(
            rng.choice(["==", "!="]),
            fm.Var(rng.choice(_V)),
            rng.choice([fm.Var(rng.choice(_V)), fm.IntLit(rng.randint(0, 4))]),
        )
    return ant, SymHeap(cpure, tuple(catoms), frozenset(existentials))


SOUNDNESS_INSTANCES = 10_000


def test_criterion_4_entailment_soundness():
    rng = random.Random(2024)
    proved = checked = 0
    violations: list[str] = []
    seen: set = set()
    for _ in range(SOUNDNESS_INSTANCES):
        ant, con = _gen_entailment(rng)
        key = (ant.pretty(), con.pretty())
        fresh_instance = key not in seen
        seen.add(key)
        if not fresh_instance:
            continue
        result = prove(ant, con, PREDS, depth=4)
        if isinstance(result, Proved):
            proved += 1
            bad = check_entailment_sound(ant, con, result.frame, PREDS)
            checked += 1
            if bad is not None:
                violations.append(f"{key[0]} |- {key[1]}: {bad}")
                if len(violations) >= 5:
                    break
    with report(
        "4 entailment soundness",
        f"{SOUNDNESS_INSTANCES} instances, {proved} proved, {checked} model-checked",
    ):
        assert not violations, violations[:3]


# -- criterion 5: symbolic-vs-concrete equivalence --------------------------------

_STMT_FORMS: list = []
for _v in "xy":
    for _c in range(4):
        _STMT_FORMS.append(comp("assign", Atom(_v), Int(_c)))
    for _w in "xy":
        _STMT_FORMS.append(comp("assign", Atom(_v), Atom(_w)))
    _STMT_FORMS.append(comp("new", Atom(_v)))
    _STMT_FORMS.append(comp("delete", Atom(_v)))
    for _c in range(4):
        _STMT_FORMS.append(comp("assign", comp("mem", comp("offset", Atom(_v))), Int(_c)))

_PARAMS = TList((comp("param", Atom("x"), Atom("int")), comp("param", Atom("y"), Atom("int"))))

LENGTH4_SAMPLE = 30_000


def _criterion5_programs():
    yield ()
    for f in _STMT_FORMS:
        yield (f,)
    yield from itertools.product(_STMT_FORMS, repeat=2)
    yield from itertools.product(_STMT_FORMS, repeat=3)
    rng = random.Random(0)
    for _ in range(LENGTH4_SAMPLE):
        yield tuple(rng.choice(_STMT_FORMS) for _ in range(4))


def test_criterion_5_symbolic_vs_concrete():
    def concrete_faults(fn):
        out = []
        for x0 in range(4):
            for y0 in range(4):
                r = run_concrete(fn, ConcreteState(store={"x": x0, "y": y0}), fuel=100)
                out.append(r.kind if isinstance(r, Fault) else None)
        return out

    count = 0
    violations: list[str] = []
    for stmts in _criterion5_programs():
        fn = comp("function", Atom("f"), Atom("int"), _PARAMS, TList(tuple(stmts)))
        verdict = verify_program_term(fn)[0]
        count += 1
        if verdict.status == VERIFIED:
            faults = concrete_faults(fn)
            if any(f is not None for f in faults):
                violations.append(f"verified yet faulting: {[emit_text(s) for s in stmts]}")
        elif verdict.status == REFUTED:
            claimed = {d.kind for d in verdict.diagnostics} & {INVALID_ACCESS, INVALID_FREE}
            if claimed:
                faults = set(concrete_faults(fn))
                for kind in sorted(claimed):
                    if kind not in faults:
                        violations.append(
                            f"refuted {kind} with no fault model: {[emit_text(s) for s in stmts]}"
                        )
        if len(violations) >= 5:
            break
    with report("5 symbolic-vs-concrete equivalence", f"{count} programs"):
        assert not violations, violations[:3]


# -- criterion 6: algebraic laws ------------------------------------------------------

LAW_CASES = 1_000


def test_criterion_6_normalize_idempotence():
    rng = random.Random(61)
    with report("6a normalize idempotence", f"{LAW_CASES} formulas"):
        for _ in range(LAW_CASES):
            f = rand_formula(rng)
            n = fm.normalize(f)
            assert fm.normalize(n) == n, fm.pretty(f)


def _law_states():
    return [
        ConcreteState({}, {}),
        ConcreteState({"x": 1, "y": 2, "z": 0}, {1: 5}),
        ConcreteState({"x": 1, "y": 2, "z": 3}, {1: 2, 2: 0}),
        ConcreteState({"x": 2, "y": 2, "z": 1}, {1: _node(1, 0), 2: 4}),
    ]


def test_criterion_6_star_commutativity_and_emp_unit():
    rng = random.Random(62)
    states = _law_states()
    with report("6b star commutativity + emp unit", f"{LAW_CASES} pairs"):
        for _ in range(LAW_CASES):
            a, b = rand_formula(rng, 2), rand_formula(rng, 2)
            for st in states:
                left = eval_assertion(fm.join(fm.Star, [a, b]), st)
                assert left == eval_assertion(fm.join(fm.Star, [b, a]), st)
            st = states[1]
            assert eval_assertion(fm.join(fm.Star, [fm.Emp(), a]), st) == eval_assertion(a, st)


def test_criterion_6_frame_rule_closure():
    rng = random.Random(63)
    ok = 0
    with report("6c frame rule closure", f"{LAW_CASES} proved instances"):
        while ok < LAW_CASES:
            ant, con = _gen_entailment(rng)
            r = prove(ant, con, PREDS, depth=4)
            if not isinstance(r, Proved):
                continue
            ok += 1
            w = fm.Var(f"w{ok % 7}")
            extra = fm.PointsTo(w, fm.IntLit(rng.randint(0, 4)))
            ant2 = SymHeap(ant.pure, ant.spatial + (extra,), ant.existentials)
            con2 = SymHeap(con.pure, con.spatial + (extra,), con.existentials)
            r2 = prove(ant2, con2, PREDS, depth=4)
            assert isinstance(r2, Proved), (ant.pretty(), con.pretty())


_CMP = {
    "==": lambda a, b: a == b, "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
}


def test_criterion_6_pure_solver_vs_brute_force():
    rng = random.Random(64)
    names = ("x", "y", "z")
    exprs = [fm.Var(n) for n in names] + [fm.IntLit(k) for k in range(-8, 9)]

    def compile_atom(op, l, r):
        lf = (lambda e: (lambda env: env[e.name])) if isinstance(l, fm.Var) else None
        getl = (lambda env, e=l: env[e.name]) if isinstance(l, fm.Var) else (lambda env, v=l.value: v)
        getr = (lambda env, e=r: env[e.name]) if isinstance(r, fm.Var) else (lambda env, v=r.value: v)
        cmp = _CMP[op]
        return lambda env: cmp(getl(env), getr(env))

    with report("6d pure solver vs brute force", f"{LAW_CASES} sets over [-8,8]^3"):
        for _ in range(LAW_CASES):
            atoms = [
                (rng.choice(list(_CMP)), rng.choice(exprs), rng.choice(exprs))
                for _ in range(rng.randint(1, 4))
            ]
            res = PureSet(tuple(atoms)).check_sat()
            compiled = [compile_atom(*a) for a in atoms]
            model = None
            for vals in itertools.product(range(-8, 9), repeat=3):
                env = dict(zip(names, vals))
                if all(c(env) for c in compiled):
                    model = env
                    break
            if res.status == UNSAT:
                assert model is None, atoms
            elif res.status == SAT:
                env = {n: res.witness.get(n, 0) for n in names}
                assert all(c(env) for c in compiled), (atoms, res.witness)


# -- criterion 7: round trips -----------------------------------------------------


def test_criterion_7_round_trips():
    rng = random.Random(71)
    with report("7 round trips", "terms, generated programs, proof trees"):
        for _ in range(1500):
            t = rand_term(rng)
            assert parse_term(emit_text(t)) == t
        from test_parser import rand_program

        for _ in range(300):
            text, term = rand_program(rng)
            assert lower_program(parse_program(text)) == term
        from test_prooftree import rand_tree

        for _ in range(500):
            tree = ProofTree(rand_tree(rng, ProofBuilder()))
            assert read_structured(to_structured(tree)) == tree
            validate_dot(__import__("heapcheck.prooftree", fromlist=["to_dot"]).to_dot(tree))


# -- criterion 8: determinism -------------------------------------------------------


def test_criterion_8_determinism():
    with report("8 determinism", "byte-identical structured output"):
        corpus = sorted(str(p) for p in Path(data_path("")).glob("*.oc"))
        cmd = [sys.executable, "-m", "heapcheck.cli"]
        outputs = []
        for _ in range(2):
            chunks = []
            for f in corpus:
                r = subprocess.run(
                    cmd + ["verify", f, "--format", "structured"],
                    capture_output=True,
                    cwd=Path(__file__).parent.parent,
                )
                chunks.append((f, r.returncode, r.stdout))
            outputs.append(chunks)
        assert outputs[0] == outputs[1]
