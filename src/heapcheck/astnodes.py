"""AST for the annotated OO-C dialect.

Statement and method nodes carry the source span that diagnostics report;
spans are excluded from equality, so parser round-trip tests compare
structure only.  Expressions, conditions, blocks and declarations carry none.  ``pretty_program`` renders canonical
source that reparses to an equal tree.
"""

from __future__ import annotations

from typing import Optional, Union

from .errors import NO_SPAN, Span
from .formula import Formula, PredDef, pretty as pretty_formula
from .records import Frozen, field, record

# --------------------------------------------------------------------------
# locations
# --------------------------------------------------------------------------


@record
class VarBase(Frozen):
    name: str


@record
class FieldBase(Frozen):
    obj: str  # variable name or "this"
    field: str


LocBase = Union[VarBase, FieldBase]


@record
class Location(Frozen):
    """``<location>``: a base location with an optional literal offset.

    offset is None exactly when the location came from a ``<location_1>``
    position (new/delete and direct assignment targets).
    """

    base: LocBase
    offset: Optional[int] = None


# --------------------------------------------------------------------------
# expressions and conditions
# --------------------------------------------------------------------------


class Expr(Frozen):
    __slots__ = ()


@record
class IntExpr(Expr):
    value: int


@record
class NullExpr(Expr):
    """The ``null`` literal."""


@record
class LocExpr(Expr):
    """Reading a variable or an object field."""

    base: LocBase


@record
class MemReadExpr(Expr):
    """Heap access ``[location]``."""

    loc: Location


@record
class NegExpr(Expr):
    operand: Expr


@record
class BinExpr(Expr):
    op: str  # + - *
    left: Expr
    right: Expr


@record
class CallExpr(Expr):
    receiver: Optional[str]  # variable name, "this", or None
    name: str
    args: tuple[Expr, ...]


class Cond(Frozen):
    __slots__ = ()


@record
class CmpCond(Cond):
    op: str  # == != < <= > >=
    left: Expr
    right: Expr


@record
class AndCond(Cond):
    left: Cond
    right: Cond


@record
class OrCond(Cond):
    left: Cond
    right: Cond


# --------------------------------------------------------------------------
# statements
# --------------------------------------------------------------------------


class Stmt(Frozen):
    __slots__ = ()


@record
class Lhs(Frozen):
    """Assignment target: a direct location_1, or a heap cell ``[location]``."""

    target: Union[LocBase, Location]
    heap: bool


@record
class AssignStmt(Stmt):
    """Right-associative chain ``l1 = l2 = ... = expr``."""

    targets: tuple[Lhs, ...]
    value: Expr
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@record
class NewStmt(Stmt):
    target: LocBase
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@record
class DeleteStmt(Stmt):
    target: LocBase
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@record
class CallStmt(Stmt):
    call: CallExpr
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@record
class AssertStmt(Stmt):
    formula: Formula
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@record
class Block(Frozen):
    stmts: tuple[Stmt, ...]


@record
class BlockStmt(Stmt):
    block: Block
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@record
class IfStmt(Stmt):
    cond: Cond
    then_block: Block
    else_block: Optional[Block]
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@record
class WhileStmt(Stmt):
    cond: Cond
    invariant: Formula  # defaults to true when unannotated
    body: Block
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


# --------------------------------------------------------------------------
# declarations
# --------------------------------------------------------------------------


@record
class MethodDecl(Frozen):
    name: str
    return_type: str
    params: tuple[tuple[str, str], ...]  # (name, type)
    precondition: Formula
    body: Block
    postcondition: Formula
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@record
class ClassDecl(Frozen):
    name: str
    fields: tuple[tuple[str, str], ...]
    methods: tuple[MethodDecl, ...]


@record
class PredDecl(Frozen):
    """Top-level ``pred name(params) := formula ;`` definition."""

    pred: PredDef


@record
class SourceProgram(Frozen):
    classes: tuple[ClassDecl, ...]
    functions: tuple[MethodDecl, ...]  # top-level functions outside classes
    predicates: tuple[PredDecl, ...]

    def all_methods(self) -> list[tuple[Optional[str], MethodDecl]]:
        out: list[tuple[Optional[str], MethodDecl]] = [(None, m) for m in self.functions]
        for c in self.classes:
            out.extend((c.name, m) for m in c.methods)
        return out


# --------------------------------------------------------------------------
# pretty printer (canonical source; reparses to an equal AST)
# --------------------------------------------------------------------------


def _p_base(b: LocBase) -> str:
    if isinstance(b, VarBase):
        return b.name
    return f"{b.obj}.{b.field}"


def _p_location(loc: Location) -> str:
    if loc.offset is None:
        return _p_base(loc.base)
    sign = "+" if loc.offset >= 0 else "-"
    return f"{_p_base(loc.base)} {sign} {abs(loc.offset)}"


_E_ADD, _E_MUL, _E_UNARY = 1, 2, 3


def _p_expr(e: Expr, level: int = 0) -> str:
    if isinstance(e, IntExpr):
        return str(e.value)
    if isinstance(e, NullExpr):
        return "null"
    if isinstance(e, LocExpr):
        return _p_base(e.base)
    if isinstance(e, MemReadExpr):
        return f"[{_p_location(e.loc)}]"
    if isinstance(e, NegExpr):
        return f"-{_p_expr(e.operand, _E_UNARY)}"
    if isinstance(e, BinExpr):
        mine = _E_MUL if e.op == "*" else _E_ADD
        text = f"{_p_expr(e.left, mine - 1)} {e.op} {_p_expr(e.right, mine)}"
        return f"({text})" if level >= mine else text
    if isinstance(e, CallExpr):
        recv = f"{e.receiver}." if e.receiver else ""
        return f"{recv}{e.name}({', '.join(_p_expr(a) for a in e.args)})"
    raise TypeError(f"unknown expression {e!r}")


def _p_cond(c: Cond, level: int = 0) -> str:
    if isinstance(c, CmpCond):
        return f"{_p_expr(c.left)} {c.op} {_p_expr(c.right)}"
    if isinstance(c, AndCond):
        text = f"{_p_cond(c.left, 1)} && {_p_cond(c.right, 2)}"
        return f"({text})" if level >= 2 else text
    if isinstance(c, OrCond):
        text = f"{_p_cond(c.left, 0)} || {_p_cond(c.right, 1)}"
        return f"({text})" if level >= 1 else text
    raise TypeError(f"unknown condition {c!r}")


def _p_stmt(s: Stmt, indent: str) -> list[str]:
    if isinstance(s, AssignStmt):
        targets = []
        for t in s.targets:
            targets.append(f"[{_p_location(t.target)}]" if t.heap else _p_base(t.target))
        return [f"{indent}{' = '.join(targets)} = {_p_expr(s.value)};"]
    if isinstance(s, NewStmt):
        return [f"{indent}new({_p_base(s.target)});"]
    if isinstance(s, DeleteStmt):
        return [f"{indent}delete({_p_base(s.target)});"]
    if isinstance(s, CallStmt):
        return [f"{indent}{_p_expr(s.call)};"]
    if isinstance(s, AssertStmt):
        return [f"{indent}@ {pretty_formula(s.formula)} @;"]
    if isinstance(s, BlockStmt):
        return [f"{indent}{{"] + _p_block_body(s.block, indent + "  ") + [f"{indent}}}"]
    if isinstance(s, IfStmt):
        lines = [f"{indent}if ({_p_cond(s.cond)}) {{"]
        lines += _p_block_body(s.then_block, indent + "  ")
        if s.else_block is not None:
            lines.append(f"{indent}}} else {{")
            lines += _p_block_body(s.else_block, indent + "  ")
        lines.append(f"{indent}}}")
        return lines
    if isinstance(s, WhileStmt):
        lines = [f"{indent}while ({_p_cond(s.cond)}) @ {pretty_formula(s.invariant)} @ {{"]
        lines += _p_block_body(s.body, indent + "  ")
        lines.append(f"{indent}}}")
        return lines
    raise TypeError(f"unknown statement {s!r}")


def _p_block_body(b: Block, indent: str) -> list[str]:
    out: list[str] = []
    for s in b.stmts:
        out.extend(_p_stmt(s, indent))
    return out


def _p_method(m: MethodDecl, indent: str) -> list[str]:
    params = ", ".join(f"{t} {n}" for n, t in m.params)
    head = f"{indent}{m.return_type} {m.name}({params}) @ {pretty_formula(m.precondition)} @ {{"
    lines = [head]
    lines += _p_block_body(m.body, indent + "  ")
    lines.append(f"{indent}}} @ {pretty_formula(m.postcondition)} @")
    return lines


def pretty_program(p: SourceProgram) -> str:
    lines: list[str] = []
    for d in p.predicates:
        params = ", ".join(d.pred.params)
        lines.append(f"pred {d.pred.name}({params}) := {pretty_formula(d.pred.body)};")
    for c in p.classes:
        lines.append(f"class {c.name} {{")
        for n, t in c.fields:
            lines.append(f"  {t} {n};")
        for m in c.methods:
            lines.extend(_p_method(m, "  "))
        lines.append("}")
    for fn in p.functions:
        lines.extend(_p_method(fn, ""))
    return "\n".join(lines) + "\n"
