"""Assertion language: spatial formulas, symbolic expressions, and their algebra.

Formulas are immutable trees.  ``Star``, ``And`` and ``Or`` hold two or more
parts and ``Exists`` its binders, outermost first.  ``join`` and ``exists``
build them so that no node has a last part of its own connective and no Exists
sits directly under an Exists: ``a * (b * c)`` equals ``a * b * c``, while
``(a * b) * c`` keeps its nested group.  Walkers loop over the parts.

``normalize`` flattens and sorts star/and/or parts into a canonical shape and
alpha-renames binders so that structural equality coincides with canonical
form; ``pretty`` prints text that reparses to the same normalized formula.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from typing import Any, Callable, Generator, Iterable, Mapping, Sequence

from .errors import NO_SPAN, AssertionSyntaxError, Span
from .records import Frozen, field, record


def run_steps(step: Callable[..., Generator], args: tuple) -> Any:
    """Run ``step(*args)`` as a recursion on the heap, not on the Python stack:
    each value the generator yields is the argument tuple of a recursive call,
    whose result is sent back; its return value is the result."""
    stack, value = [step(*args)], None
    while stack:
        try:
            stack.append(step(*stack[-1].send(value)))
            value = None
        except StopIteration as done:
            stack.pop()
            value = done.value
    return value


# --------------------------------------------------------------------------
# symbolic expressions
# --------------------------------------------------------------------------


class SymExpr(Frozen):
    """Base class for expression trees appearing inside formulas."""

    __slots__ = ()


@record
class IntLit(SymExpr):
    value: int


@record
class Var(SymExpr):
    name: str


@record
class Nil(SymExpr):
    """The null address; evaluates to 0 and is never allocated."""


@record
class FieldRef(SymExpr):
    """Unresolved object-field reference ``obj.field``."""

    obj: SymExpr
    field: str


@record
class ArithExpr(SymExpr):
    op: str  # one of + - *
    left: SymExpr
    right: SymExpr


def shifted(base: SymExpr, k: int) -> SymExpr:
    """The address ``base + k``: ``base`` itself when ``k`` is 0, else a sum
    with a literal right operand."""
    if k == 0:
        return base
    return ArithExpr("+" if k > 0 else "-", base, IntLit(abs(k)))


@record
class Record(SymExpr):
    """Structured cell value: optional class tag plus named components.

    Components keep their declaration / write order; equality of record
    *values* is decided field-name-wise by the matching layers, not here.
    """

    tag: str | None
    fields: tuple[tuple[str, SymExpr], ...]

    def field_map(self) -> dict[str, SymExpr]:
        return dict(self.fields)


# Builtin class backing the ``,``-chain sugar and the list predicate: a list
# node is one cell holding a (value, next) record.
NODE_TAG = "node"
NODE_FIELDS = ("value", "next")

CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")

NEGATED_CMP = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def node_record(value: SymExpr, nxt: SymExpr) -> Record:
    return Record(NODE_TAG, (("value", value), ("next", nxt)))


# --------------------------------------------------------------------------
# formulas
# --------------------------------------------------------------------------


class Formula(Frozen):
    __slots__ = ()


@record
class Emp(Formula):
    pass


@record
class TrueF(Formula):
    pass


@record
class FalseF(Formula):
    pass


@record
class PointsTo(Formula):
    loc: SymExpr
    val: SymExpr


@record
class Star(Formula):
    parts: tuple[Formula, ...]


@record
class And(Formula):
    parts: tuple[Formula, ...]


@record
class Or(Formula):
    parts: tuple[Formula, ...]


@record
class Exists(Formula):
    vars: tuple[str, ...]
    body: Formula


@record
class PredApp(Formula):
    name: str
    args: tuple[SymExpr, ...]


@record
class PureAtom(Formula):
    """Heap-independent comparison admitted inside spatial formulas."""

    op: str
    left: SymExpr
    right: SymExpr


@record
class PredDef(Frozen):
    name: str
    params: tuple[str, ...]
    body: Formula
    # the declaration's `pred` keyword, where errors in the definition are reported
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


def join(cls: type, parts: Sequence[Formula]) -> Formula:
    """The ``cls`` (Star, And or Or) of ``parts``: one part is returned
    unchanged, and a last part that is a ``cls`` node is spliced in."""
    if len(parts) == 1:
        return parts[0]
    last = parts[-1]
    if isinstance(last, cls):
        return cls((*parts[:-1], *last.parts))
    return cls(tuple(parts))


def exists(binders: Sequence[str], body: Formula) -> Formula:
    """``body`` under ``binders``, outermost first; an Exists body merges in."""
    if not binders:
        return body
    if isinstance(body, Exists):
        return Exists((*binders, *body.vars), body.body)
    return Exists(tuple(binders), body)


# --------------------------------------------------------------------------
# free variables
# --------------------------------------------------------------------------


def expr_free_vars(e: SymExpr) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, (IntLit, Nil)):
        return set()
    if isinstance(e, FieldRef):
        return expr_free_vars(e.obj)
    if isinstance(e, ArithExpr):
        return expr_free_vars(e.left) | expr_free_vars(e.right)
    if isinstance(e, Record):
        out: set[str] = set()
        for _, v in e.fields:
            out |= expr_free_vars(v)
        return out
    raise TypeError(f"unknown expression {e!r}")


def free_vars(f: Formula) -> set[str]:
    if isinstance(f, (Emp, TrueF, FalseF)):
        return set()
    if isinstance(f, PointsTo):
        return expr_free_vars(f.loc) | expr_free_vars(f.val)
    if isinstance(f, (Star, And, Or)):
        return set().union(*map(free_vars, f.parts))
    if isinstance(f, Exists):
        return free_vars(f.body).difference(f.vars)
    if isinstance(f, PredApp):
        out: set[str] = set()
        for a in f.args:
            out |= expr_free_vars(a)
        return out
    if isinstance(f, PureAtom):
        return expr_free_vars(f.left) | expr_free_vars(f.right)
    raise TypeError(f"unknown formula {f!r}")


# --------------------------------------------------------------------------
# substitution (capture avoiding)
# --------------------------------------------------------------------------


def substitute_expr(e: SymExpr, mapping: Mapping[str, SymExpr]) -> SymExpr:
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, (IntLit, Nil)):
        return e
    if isinstance(e, FieldRef):
        return FieldRef(substitute_expr(e.obj, mapping), e.field)
    if isinstance(e, ArithExpr):
        return ArithExpr(e.op, substitute_expr(e.left, mapping), substitute_expr(e.right, mapping))
    if isinstance(e, Record):
        return Record(e.tag, tuple((n, substitute_expr(v, mapping)) for n, v in e.fields))
    raise TypeError(f"unknown expression {e!r}")


def _fresh_name(base: str, taken: set[str]) -> str:
    i = 1
    while f"{base}_{i}" in taken:
        i += 1
    return f"{base}_{i}"


def substitute(f: Formula, mapping: Mapping[str, SymExpr]) -> Formula:
    if not mapping:
        return f
    if isinstance(f, (Emp, TrueF, FalseF)):
        return f
    if isinstance(f, PointsTo):
        return PointsTo(substitute_expr(f.loc, mapping), substitute_expr(f.val, mapping))
    if isinstance(f, (Star, And, Or)):
        return type(f)(tuple(substitute(p, mapping) for p in f.parts))
    if isinstance(f, Exists):
        bound = set(f.vars)
        inner = {k: e for k, e in mapping.items() if k not in bound}
        if not inner:
            return f
        clash = set()
        for e in inner.values():
            clash |= expr_free_vars(e)
        binders = list(f.vars)
        if not clash.isdisjoint(binders):
            # rename each binder that would capture; the last of equal names binds
            taken = clash | free_vars(f.body) | set(inner)
            for i, v in enumerate(binders):
                if v in clash:
                    binders[i] = _fresh_name(v, taken)
                    taken.add(binders[i])
                    inner[v] = Var(binders[i])
        return Exists(tuple(binders), substitute(f.body, inner))
    if isinstance(f, PredApp):
        return PredApp(f.name, tuple(substitute_expr(a, mapping) for a in f.args))
    if isinstance(f, PureAtom):
        return PureAtom(f.op, substitute_expr(f.left, mapping), substitute_expr(f.right, mapping))
    raise TypeError(f"unknown formula {f!r}")


# --------------------------------------------------------------------------
# pretty printing
# --------------------------------------------------------------------------

_ADD_LEVEL = 1
_MUL_LEVEL = 2
_ATOM_LEVEL = 3


def pretty_expr(e: SymExpr, level: int = 0) -> str:
    if isinstance(e, IntLit):
        return str(e.value) if e.value >= 0 else f"(0-{-e.value})"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Nil):
        return "nil"
    if isinstance(e, FieldRef):
        return f"{pretty_expr(e.obj, _ATOM_LEVEL)}.{e.field}"
    if isinstance(e, ArithExpr):
        mine = _MUL_LEVEL if e.op == "*" else _ADD_LEVEL
        # left-associative: the left child tolerates equal precedence unparenthesized
        left = pretty_expr(e.left, mine - 1)
        right = pretty_expr(e.right, mine)
        text = f"{left}{e.op}{right}"
        return f"({text})" if level >= mine else text
    if isinstance(e, Record):
        if is_positional(e.tag, [n for n, _ in e.fields]):
            inner = ", ".join(pretty_expr(v) for _, v in e.fields)
        else:
            inner = ", ".join(f"{n}: {pretty_expr(v)}" for n, v in e.fields)
        tag = e.tag if e.tag is not None else "_"
        return f"object({tag}, {inner})" if inner else f"object({tag})"
    raise TypeError(f"unknown expression {e!r}")


def is_positional(tag: str | None, names: Sequence[str]) -> bool:
    """Whether a record with these field names is written without them."""
    if tag == NODE_TAG:
        return tuple(names) == NODE_FIELDS
    return tuple(names) == tuple(f"_{i}" for i in range(len(names)))


# formula precedence: or/exists (0) < and (1) < star (2) < atoms (3);
# `level` is the minimum precedence printable without parentheses
_F_OR = 0
_CONNECTIVES = {Or: (_F_OR, " || "), And: (1, " && "), Star: (2, " * ")}


def pretty(f: Formula, level: int = 0) -> str:
    if isinstance(f, Emp):
        return "emp"
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, PointsTo):
        # products need parens here: bare '*' reads as separating conjunction
        return f"{pretty_expr(f.loc, _MUL_LEVEL)}->{pretty_expr(f.val, _MUL_LEVEL)}"
    if isinstance(f, (Star, And, Or)):
        # right-associative: only the last part may share the precedence
        mine, sep = _CONNECTIVES[type(f)]
        texts = [pretty(p, mine + 1) for p in f.parts[:-1]]
        texts.append(pretty(f.parts[-1], mine))
        text = sep.join(texts)
        return f"({text})" if level > mine else text
    if isinstance(f, Exists):
        text = f"exists {', '.join(f.vars)}. {pretty(f.body)}"
        return f"({text})" if level > _F_OR else text
    if isinstance(f, PredApp):
        return f"{f.name}({', '.join(pretty_expr(a) for a in f.args)})"
    if isinstance(f, PureAtom):
        return f"{pretty_expr(f.left, _MUL_LEVEL)}{f.op}{pretty_expr(f.right, _MUL_LEVEL)}"
    raise TypeError(f"unknown formula {f!r}")


# --------------------------------------------------------------------------
# normalization
# --------------------------------------------------------------------------


def _atom_rank(f: Formula) -> int:
    if isinstance(f, PureAtom):
        return 0
    if isinstance(f, PointsTo):
        return 1
    if isinstance(f, PredApp):
        return 2
    return 3


def star_key(f: Formula) -> tuple:
    """Sort key of a chain part: by kind (pure, points-to, predicate, other),
    then by text."""
    if isinstance(f, PointsTo):
        return (1, pretty_expr(f.loc), pretty_expr(f.val))
    if isinstance(f, PredApp):
        return (2, f.name, tuple(pretty_expr(a) for a in f.args))
    return (_atom_rank(f), pretty(f))


def fold_expr(e: SymExpr) -> SymExpr:
    """Context-free constant folding that keeps the order an expression was
    written in, so canonical text reparses to the identical tree."""
    if isinstance(e, ArithExpr):
        l, r = fold_expr(e.left), fold_expr(e.right)
        lv = l.value if isinstance(l, IntLit) else 0 if isinstance(l, Nil) else None
        rv = r.value if isinstance(r, IntLit) else 0 if isinstance(r, Nil) else None
        if lv is not None and rv is not None:
            return IntLit(lv + rv if e.op == "+" else lv - rv if e.op == "-" else lv * rv)
        if e.op in ("+", "-") and rv == 0:
            return l
        if e.op == "+" and lv == 0:
            return r
        if e.op == "*" and (lv == 0 or rv == 0):
            return IntLit(0)
        if e.op == "*" and lv == 1:
            return r
        if e.op == "*" and rv == 1:
            return l
        return ArithExpr(e.op, l, r)
    if isinstance(e, Record):
        return Record(e.tag, tuple((n, fold_expr(v)) for n, v in e.fields))
    if isinstance(e, FieldRef):
        return FieldRef(fold_expr(e.obj), e.field)
    return e


def normalize(f: Formula) -> Formula:
    """Canonical form: unit/absorption rewrites, folded constants, sorted flat
    chains, canonical binders.

    Binder passes are linear in the formula: the binders of an ``exists`` are
    checked against one free-variable set of its body, and ``_canon_binders`` renames
    every binder in one walk with one map.
    """
    return _canon_binders(_normalize1(_fold_formula(f)))


def _fold_formula(f: Formula) -> Formula:
    if isinstance(f, PointsTo):
        return PointsTo(fold_expr(f.loc), fold_expr(f.val))
    if isinstance(f, PureAtom):
        return PureAtom(f.op, fold_expr(f.left), fold_expr(f.right))
    if isinstance(f, PredApp):
        return PredApp(f.name, tuple(fold_expr(a) for a in f.args))
    if isinstance(f, (Star, And, Or)):
        return type(f)(tuple(_fold_formula(p) for p in f.parts))
    if isinstance(f, Exists):
        return Exists(f.vars, _fold_formula(f.body))
    return f


# each connective's unit, dropped from its parts, and zero, which absorbs them
_UNIT_ZERO = {Star: (Emp, FalseF), And: (TrueF, FalseF), Or: (FalseF, TrueF)}


def _normalize1(f: Formula) -> Formula:
    if isinstance(f, (Emp, TrueF, FalseF, PointsTo, PredApp, PureAtom)):
        return f
    if isinstance(f, Exists):
        # one free-variable set for all the binders: a binder is vacuous when
        # its name is not free below it, counting only the binders kept inside
        out = _normalize1(f.body)
        free = free_vars(out)
        kept: list[str] = []
        for v in reversed(f.vars):
            if v in free:
                free.discard(v)
                kept.append(v)
        return exists(kept[::-1], out)
    if isinstance(f, (Star, And, Or)):
        unit, zero = _UNIT_ZERO[type(f)]
        # splice in parts that normalize to the same connective: one pass suffices
        parts: list[Formula] = []
        for p in f.parts:
            q = _normalize1(p)
            parts.extend(q.parts if type(q) is type(f) else (q,))  # type: ignore[union-attr]
        if any(isinstance(p, zero) for p in parts):
            return zero()
        parts = sorted((p for p in parts if not isinstance(p, unit)), key=star_key)
        if not parts:
            return unit()
        if not isinstance(f, Star):  # && and || are idempotent
            parts = [p for i, p in enumerate(parts) if i == 0 or parts[i - 1] != p]
        return join(type(f), parts)
    raise TypeError(f"unknown formula {f!r}")


def _canon_binders(f: Formula) -> Formula:
    """Rename every Exists binder to e0, e1, ... in traversal order.

    One walk carries the renaming of the binders in scope and applies it at
    the atoms.  Every binder gets its own name, none of them free in ``f``,
    so the simultaneous renaming cannot capture.
    """
    free = free_vars(f)
    counter = [0]
    names: dict[str, SymExpr] = {}
    renamed = [False]

    def next_name() -> str:
        while True:
            name = f"e{counter[0]}"
            counter[0] += 1
            if name not in free:
                return name

    def walk(g: Formula) -> Formula:
        if isinstance(g, Exists):
            fresh = tuple(next_name() for _ in g.vars)
            if fresh != g.vars:
                renamed[0] = True
            # inner binders shadow outer ones of the same name
            saved = [(v, names.get(v)) for v in g.vars]
            for v, n in zip(g.vars, fresh):
                names[v] = Var(n)
            out = walk(g.body)
            for v, old in reversed(saved):
                if old is None:
                    names.pop(v, None)
                else:
                    names[v] = old
            return exists(fresh, out)
        if isinstance(g, (Star, And, Or)):
            return type(g)(tuple(walk(p) for p in g.parts))
        return substitute(g, names) if names else g

    out = walk(f)
    # renaming can disturb the sorted chain order; re-sort once more
    return _normalize1(out) if renamed[0] else out


# --------------------------------------------------------------------------
# builtin predicates
# --------------------------------------------------------------------------


@cache
def _builtins() -> dict[str, PredDef]:
    s, e, t, v = Var("s"), Var("e"), Var("t"), Var("v")
    empty = join(And, [PureAtom("==", s, e), Emp()])
    step = join(Star, [PointsTo(s, node_record(v, t)), PredApp("list", (t, e))])
    body = join(Or, [empty, exists(["t", "v"], step)])
    return {"list": PredDef("list", ("s", "e"), body)}


def builtin_preds() -> dict[str, PredDef]:
    return dict(_builtins())  # a new table of shared definitions, which keep their cases


def or_free(f: Formula) -> list[Formula]:
    """Distribute Or upward, yielding disjunction-free formulas."""
    if isinstance(f, Or):
        return [d for p in f.parts for d in or_free(p)]
    if isinstance(f, (Star, And)):
        cls = type(f)
        return [join(cls, c) for c in product(*(or_free(p) for p in f.parts))]
    if isinstance(f, Exists):
        return [exists(f.vars, b) for b in or_free(f.body)]
    return [f]


def spatial_clash(f: And) -> int | None:
    """Where ``f``, read right-nested, conjoins two spatial formulas: the index
    of its first part that is not pure-only when another follows, else None."""
    spatial = [i for i, p in enumerate(f.parts) if not is_pure_only(p)]
    return spatial[0] if len(spatial) > 1 else None


def is_pure_only(f: Formula) -> bool:
    """Heap-independent formulas (emp is heap-dependent, hence excluded)."""
    if isinstance(f, (PureAtom, TrueF, FalseF)):
        return True
    if isinstance(f, (And, Or)):
        return all(is_pure_only(p) for p in f.parts)
    if isinstance(f, Exists):
        return is_pure_only(f.body)
    return False


def check_pred_table(defs: Iterable[PredDef]) -> dict[str, PredDef]:
    """Validate user definitions and merge them with the builtins.  An error
    is raised at the span of the definition at fault."""
    table = builtin_preds()
    for d in defs:
        if d.name in table:
            raise AssertionSyntaxError(f"predicate '{d.name}' is already defined", d.span)
        if len(set(d.params)) != len(d.params):
            raise AssertionSyntaxError(f"predicate '{d.name}' repeats a parameter name", d.span)
        extra = free_vars(d.body) - set(d.params)
        if extra:
            names = ", ".join(sorted(extra))
            raise AssertionSyntaxError(
                f"predicate '{d.name}' body uses variables outside its parameters: {names}", d.span
            )
        table[d.name] = d
    return table
