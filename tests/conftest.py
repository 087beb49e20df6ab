"""Shared test machinery: seeded generators, symbolic-heap helpers and a
small DOT syntax checker. The model checker and the finite-model enumerator
the suites take as ground truth are in ``oracle.py``."""

from __future__ import annotations

import os
import random
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

from heapcheck import formula as fm
from heapcheck.entail import FreshNames, SymHeap, formula_to_symheaps
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
        return fm.shifted(fm.Var(rng.choice(_VARS)), rng.randint(-3, 3))
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


@contextmanager
def shallow_stack(headroom: int = 100):
    """Lower the recursion limit to ``headroom`` frames above the caller's depth."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + headroom)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)
