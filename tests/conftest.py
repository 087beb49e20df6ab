"""Shared test machinery: seeded generators, the finite-model enumerator used
as ground truth for entailment soundness, and a small DOT syntax checker."""

from __future__ import annotations

import itertools
import os
import random
from pathlib import Path
from typing import Iterator, Optional

from heapcheck import formula as fm
from heapcheck.entail import FreshNames, SymHeap, formula_to_symheaps
from heapcheck.interp import ConcreteState, CRecord, OracleConfig, Value, eval_assertion
from heapcheck.termir import Atom, Compound, Int, TList, Term, comp

DATA = Path(__file__).parent / "data"

# pytest puts src/ on sys.path (pyproject.toml); the CLI processes some tests
# start import the package from the same checkout
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")])
)


def data_path(name: str) -> Path:
    return DATA / name


def data_text(name: str) -> str:
    return data_path(name).read_text(encoding="utf-8")


# --------------------------------------------------------------------------
# random formula / term / program generators (all seeded by the caller)
# --------------------------------------------------------------------------

_VARS = ("x", "y", "z")


def rand_expr(rng: random.Random, depth: int = 2) -> fm.SymExpr:
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return rng.choice([fm.IntLit(rng.randint(-3, 9)), fm.Var(rng.choice(_VARS)), fm.Nil()])
    if roll < 0.55:
        return fm.ArithExpr(
            rng.choice("+-*"), rand_expr(rng, depth - 1), rand_expr(rng, depth - 1)
        )
    if roll < 0.7:
        return fm.node_record(rand_expr(rng, 0), rng.choice([fm.Var(rng.choice(_VARS)), fm.Nil()]))
    if roll < 0.85:
        return fm.OffsetOf(fm.Var(rng.choice(_VARS)), rng.randint(-3, 3))
    return fm.Record("myClass1", (("_0", rand_expr(rng, 0)),))


def rand_formula(rng: random.Random, depth: int = 3) -> fm.Formula:
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        return rng.choice(
            [
                fm.Emp(),
                fm.TrueF(),
                fm.PointsTo(fm.Var(rng.choice(_VARS)), rand_expr(rng, 1)),
                fm.PureAtom(rng.choice(fm.CMP_OPS), rand_expr(rng, 0), rand_expr(rng, 0)),
                fm.PredApp("list", (fm.Var(rng.choice(_VARS)), fm.Nil())),
            ]
        )
    if roll < 0.55:
        return fm.join(fm.Star, [rand_formula(rng, depth - 1), rand_formula(rng, depth - 1)])
    if roll < 0.7:
        return fm.join(
            fm.And,
            [
                fm.PureAtom(rng.choice(fm.CMP_OPS), rand_expr(rng, 0), rand_expr(rng, 0)),
                rand_formula(rng, depth - 1),
            ],
        )
    if roll < 0.85:
        return fm.join(fm.Or, [rand_formula(rng, depth - 1), rand_formula(rng, depth - 1)])
    v = rng.choice(("t", "u", "w"))
    body = fm.join(fm.Star, [fm.PointsTo(fm.Var(v), rand_expr(rng, 1)), rand_formula(rng, depth - 1)])
    return fm.exists([v], body)


def rand_term(rng: random.Random, depth: int = 3) -> Term:
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        return rng.choice(
            [
                Atom(rng.choice(("a", "b", "foo", "MyClass", "hello world"))),
                Int(rng.randint(-9, 99)),
                TList(()),
            ]
        )
    if roll < 0.5:
        return Compound(
            rng.choice(("add", "sub", "assign", "wrap")),
            tuple(rand_term(rng, depth - 1) for _ in range(rng.randint(1, 3))),
        )
    if roll < 0.65:
        return TList(tuple(rand_term(rng, depth - 1) for _ in range(rng.randint(0, 3))))
    if roll < 0.8:
        return comp("pto", rand_term(rng, 0), rand_term(rng, depth - 1))
    return comp(rng.choice(("star", "and", "or")), rand_term(rng, depth - 1), rand_term(rng, depth - 1))


# --------------------------------------------------------------------------
# symbolic-heap helpers
# --------------------------------------------------------------------------


def heap_of(text: str, fresh: Optional[FreshNames] = None, skolemize: bool = True) -> SymHeap:
    from heapcheck.parser import parse_assertion

    heaps = formula_to_symheaps(parse_assertion(text), fresh or FreshNames(), skolemize=skolemize)
    assert len(heaps) == 1, f"expected one disjunct for {text!r}"
    return heaps[0]


def combined_formula(con: SymHeap, frame: SymHeap) -> fm.Formula:
    """``con * frame`` with pure parts lifted out so the matcher stays fast."""
    pures: list[fm.Formula] = [
        fm.PureAtom(op, l, r) for op, l, r in con.pure.atoms + frame.pure.atoms
    ]
    spatial = [*con.spatial, *frame.spatial]
    body = fm.join(fm.And, [*pures, fm.join(fm.Star, spatial) if spatial else fm.Emp()])
    # the last name in sorted order is the outermost binder
    return fm.exists(sorted(con.existentials | frame.existentials, reverse=True), body)


# --------------------------------------------------------------------------
# exhaustive finite-model enumeration (ground truth for entailment)
# --------------------------------------------------------------------------

_FRESH_BASE = 101  # predicate-internal node addresses, outside the store domain


def _eval_ground(e: fm.SymExpr, store: dict[str, int]):
    if isinstance(e, fm.IntLit):
        return e.value
    if isinstance(e, fm.Nil):
        return 0
    if isinstance(e, fm.Var):
        return store[e.name]
    if isinstance(e, fm.ArithExpr):
        l, r = _eval_ground(e.left, store), _eval_ground(e.right, store)
        return l + r if e.op == "+" else l - r if e.op == "-" else l * r
    if isinstance(e, fm.OffsetOf):
        return _eval_ground(e.base, store) + e.offset
    if isinstance(e, fm.Record):
        return CRecord(e.tag, tuple((n, _eval_ground(v, store)) for n, v in e.fields))
    raise TypeError(f"not ground-evaluable: {e!r}")


def _holds(op: str, l, r) -> bool:
    if isinstance(l, CRecord) or isinstance(r, CRecord):
        from heapcheck.interp import value_equal

        if op == "==":
            return value_equal(l, r)
        if op == "!=":
            return not value_equal(l, r)
        return False
    return {"==": l == r, "!=": l != r, "<": l < r, "<=": l <= r, ">": l > r, ">=": l >= r}[op]


def enumerate_models(
    heap: SymHeap,
    value_domain: range = range(0, 5),
    max_list_len: int = 3,
    node_values: tuple[int, ...] = (0, 1),
) -> Iterator[ConcreteState]:
    """All concrete models of a generator-shaped symbolic heap, exhaustively
    up to address isomorphism of predicate-internal cells."""
    names = sorted(fm.free_vars(heap.to_formula()))
    atoms = list(heap.spatial)
    for assignment in itertools.product(value_domain, repeat=len(names)):
        store = dict(zip(names, assignment))
        if not all(
            _holds(op, _eval_ground(l, store), _eval_ground(r, store))
            for op, l, r in heap.pure.atoms
        ):
            continue
        yield from _place(atoms, store, {}, _FRESH_BASE, max_list_len, node_values)


def _place(
    atoms: list,
    store: dict[str, int],
    cells: dict[int, Value],
    next_free: int,
    max_len: int,
    node_values: tuple[int, ...],
) -> Iterator[ConcreteState]:
    if not atoms:
        yield ConcreteState(dict(store), dict(cells))
        return
    atom, rest = atoms[0], atoms[1:]
    if isinstance(atom, fm.PointsTo):
        addr = _eval_ground(atom.loc, store)
        if not isinstance(addr, int) or addr <= 0 or addr in cells:
            return
        val = _eval_ground(atom.val, store)
        cells2 = dict(cells)
        cells2[addr] = val
        yield from _place(rest, store, cells2, next_free, max_len, node_values)
        return
    assert isinstance(atom, fm.PredApp) and atom.name == "list"
    start = _eval_ground(atom.args[0], store)
    end = _eval_ground(atom.args[1], store)
    if start == end:
        yield from _place(rest, store, cells, next_free, max_len, node_values)
    for length in range(1, max_len + 1):
        if not isinstance(start, int) or start <= 0 or start in cells:
            continue
        addrs = [start] + [next_free + i for i in range(length - 1)]
        if any(a in cells for a in addrs):
            continue
        for values in itertools.product(node_values, repeat=length):
            cells2 = dict(cells)
            ok = True
            for i, a in enumerate(addrs):
                nxt = addrs[i + 1] if i + 1 < length else end
                if not isinstance(nxt, int):
                    ok = False
                    break
                cells2[a] = CRecord("node", (("value", values[i]), ("next", nxt)))
            if ok:
                yield from _place(
                    rest, store, cells2, next_free + length - 1, max_len, node_values
                )


def check_entailment_sound(
    ant: SymHeap,
    con: SymHeap,
    frame: SymHeap,
    preds=None,
    config: OracleConfig = OracleConfig(value_lo=0, value_hi=4),
) -> Optional[str]:
    """None when every model of ant satisfies con * frame, else a description."""
    from heapcheck.interp import CompiledGoal

    goal = combined_formula(con, frame)
    compiled = CompiledGoal(goal, preds, config)
    for model in enumerate_models(ant):
        if not compiled.holds(model):
            return f"model {model.snapshot()} violates {fm.pretty(goal)}"
    return None


# --------------------------------------------------------------------------
# a small DOT syntax checker (enough to validate our exports)
# --------------------------------------------------------------------------


def validate_dot(text: str) -> tuple[int, int]:
    """Returns (node_count, edge_count); raises AssertionError on bad syntax."""
    lines = [l.strip() for l in text.strip().splitlines()]
    assert lines[0].startswith("digraph ") and lines[0].endswith("{"), lines[0]
    assert lines[-1] == "}", lines[-1]
    nodes = edges = 0
    for line in lines[1:-1]:
        if not line:
            continue
        assert line.endswith(";"), f"unterminated statement: {line!r}"
        body = line[:-1]
        if body.startswith("node ") or body.startswith("graph ") or body.startswith("edge "):
            continue
        if "->" in body and "[" not in body.split("->")[0]:
            lhs, rhs = body.split("->", 1)
            assert lhs.strip().startswith("n") and rhs.strip().startswith("n"), body
            edges += 1
            continue
        name, _, attrs = body.partition("[")
        assert name.strip().startswith("n"), body
        assert attrs.endswith("]"), body
        # label quotes must pair up after removing escaped ones
        unescaped = attrs.replace("\\\\", "").replace('\\"', "")
        assert unescaped.count('"') % 2 == 0, f"unbalanced quotes: {line!r}"
        nodes += 1
    return nodes, edges
