"""Logic-term intermediate representation.

The parser builds programs as functor/argument trees that serialize to a
canonical text form (``.plt`` files) and re-import through ``parse_term``.
Spatial formulas embed with infix operators (``->``, ``*``, ``&&``, ``||``)
so emitted terms match the annotation surface syntax; everything else is
functional notation.
"""

from __future__ import annotations

import re
from typing import Generator, NoReturn, Optional, Sequence

from . import formula as fm
from .errors import (
    NO_SPAN,
    AssertionSyntaxError,
    LexError,
    Span,
    TermShapeError,
    TermSyntaxError,
    UnknownPredicateError,
)
from .lexer import RESERVED, Token, scan, tokenize
from .records import Frozen, field, record

# --------------------------------------------------------------------------
# term trees
# --------------------------------------------------------------------------


class Term(Frozen):
    __slots__ = ()


@record
class Atom(Term):
    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("empty atom name")


@record
class Int(Term):
    value: int


@record
class Compound(Term):
    functor: str
    args: tuple[Term, ...]
    # statement, ``assert`` and ``pred`` terms read from source carry the span
    # of their statement, annotation or ``pred`` keyword for diagnostics; it
    # takes no part in equality or text
    span: Span = field(default=NO_SPAN, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.functor:
            raise ValueError("empty functor name")


@record
class TList(Term):
    items: tuple[Term, ...]
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


def comp(functor: str, *args: Term, span: Span = NO_SPAN) -> Compound:
    return Compound(functor, args, span)


# comparison operator <-> functor table; '<' prints as 'le' (kept verbatim
# from the worked translation), so 'lt' is left denoting '<='
CMP_TO_FUNCTOR = {"<": "le", "<=": "lt", ">": "gt", ">=": "ge", "==": "eq", "!=": "ne"}
FUNCTOR_TO_CMP = {v: k for k, v in CMP_TO_FUNCTOR.items()}

_BARE_ATOM = re.compile(r"[a-z][A-Za-z0-9_]*\Z")

# --------------------------------------------------------------------------
# canonical emission
# --------------------------------------------------------------------------

_P_OR, _P_AND, _P_STAR, _P_PTO, _P_BASE = 1, 2, 3, 4, 5

_INFIX = {"or": ("||", _P_OR), "and": ("&&", _P_AND), "star": ("*", _P_STAR), "pto": ("->", _P_PTO)}


def emit_text(t: Term, level: int = 0) -> str:
    """Render a term in the canonical concrete syntax (deterministic).

    The right operand of an infix operator and the last argument of a
    compound or list continue the loop instead of recursing, so a long
    ``*`` chain or ``exists`` nest costs no stack depth.
    """
    if isinstance(t, Atom) and _BARE_ATOM.match(t.name):
        return t.name  # most calls render one name
    out: list[str] = []
    closers: list[str] = []
    while True:
        if isinstance(t, Atom):
            if _BARE_ATOM.match(t.name):
                out.append(t.name)
            else:
                out.append("'" + t.name.replace("\\", "\\\\").replace("'", "\\'") + "'")
            break
        if isinstance(t, Int):
            out.append(str(t.value))
            break
        if isinstance(t, TList):
            opener, items, closer = "[", t.items, "]"
        elif isinstance(t, Compound):
            f, args = t.functor, t.args
            if f in _INFIX and len(args) == 2:
                opsym, prec = _INFIX[f]
                if level >= prec:
                    out.append("(")
                    closers.append(")")
                out.append(emit_text(args[0], prec))
                out.append(opsym if f == "pto" else f" {opsym} ")
                # '->' does not associate, so a nested pto needs parens either side
                t, level = args[1], prec if f == "pto" else prec - 1
                continue
            if f == "oa" and len(args) == 2:
                out.append(f"oa({emit_text(args[0])}.{emit_text(args[1])})")
                break
            if f == ":" and len(args) == 2:
                out.append(emit_text(args[0]) + ": ")
                t, level = args[1], 0
                continue
            head = f if _BARE_ATOM.match(f) else emit_text(Atom(f))
            opener, items, closer = head + "(", args, ")"
        else:
            raise TypeError(f"unknown term {t!r}")
        out.append(opener)
        if not items:
            out.append(closer)
            break
        for x in items[:-1]:
            out.append(emit_text(x))
            out.append(", ")
        closers.append(closer)
        t, level = items[-1], 0
    out.extend(reversed(closers))
    return "".join(out)


def emit_term_file(t: Term) -> str:
    """Interchange format: one top-level term, '.'-terminated, newline at EOF."""
    return emit_text(t) + ".\n"


# --------------------------------------------------------------------------
# term text parsing
# --------------------------------------------------------------------------


# infix operator token -> (binding power, functor); all of them fold right
_OPERATORS = {"||": (1, "or"), "&&": (2, "and"), "*": (3, "star"), "->": (4, "pto")}
_NAME_KINDS = frozenset(RESERVED | {"ident", "atomq"})
_PTO = _OPERATORS["->"]
_END = (0, "")  # what follows a term binds weaker than any operator


class _TermParser:
    """Operator-precedence parser (Pratt, POPL 1973): one loop reads operands
    and infix operators, so an infix chain costs no stack depth, and each
    nested argument list, list or parenthesis is one suspended step of
    ``fm.run_steps``, not one Python frame; a name or number that ends its
    argument or item is read in place.  It reads the token texts and kinds of
    ``lexer.scan``; only an error asks ``tokenize`` for spans."""

    def __init__(self, text: str, words: list[str], kinds: list[str]):
        self.text = text
        # the sentinels make every lookahead an index that exists
        self.words = words + ["", ""]
        self.kinds = kinds + ["eof", "eof"]
        self.pos = 0

    def fail(self, i: int, message: str) -> NoReturn:
        """Raise ``message``, whose ``{}`` is token i's text, at token i."""
        try:
            toks = tokenize(self.text)
        except LexError as e:
            raise TermSyntaxError(e.message, e.span) from None
        t = toks[i] if i < len(toks) else Token("eof", "<eof>", toks[-1].span)
        raise TermSyntaxError(message.format(repr(t.text)), t.span)

    def expect(self, kind: str) -> None:
        if self.kinds[self.pos] != kind:
            self.fail(self.pos, f"expected {kind!r}, found {{}}")
        self.pos += 1

    def parse(self) -> Term:
        try:
            t = fm.run_steps(self.term, ())
        except ValueError:  # an int() of more digits than it converts: a lexical error
            self.fail(0, "")
        if self.kinds[self.pos] == ".":
            self.pos += 1
        if self.kinds[self.pos] != "eof":
            self.fail(self.pos, "unexpected {} after term")
        return t

    def atom(self, i: int) -> Optional[Atom]:
        """The atom token i names, if it names one ('' names none)."""
        name = self.words[i] if self.kinds[i] in _NAME_KINDS else ""
        return Atom(name) if name else None

    def leaf(self) -> Optional[Term]:
        """The name or number at ``pos`` when ',', ')' or ']' follows it."""
        i = self.pos
        if self.kinds[i + 1] not in (",", ")", "]"):
            return None
        t = Int(int(self.words[i])) if self.kinds[i] == "int" else self.atom(i)
        self.pos = i + (t is not None)
        return t

    def items(self, closer: str) -> Generator[tuple, Term, list[Term]]:
        """Terms separated by ',' up to ``closer``; an argument may be "name: value"."""
        kinds, out = self.kinds, []
        while kinds[self.pos] != closer or out:  # after a ',' an item follows
            a = self.pos
            if closer == ")" and kinds[a] in _NAME_KINDS and kinds[a] != "atomq" and kinds[a + 1] == ":":
                self.pos += 2
                out.append(Compound(":", (Atom(self.words[a]), self.leaf() or (yield ()))))
            else:
                out.append(self.leaf() or (yield ()))
            if kinds[self.pos] != ",":
                break
            self.pos += 1
        self.expect(closer)
        return out

    def term(self) -> Generator[tuple, Term, Term]:
        """One term; a nested term is read by yielding (see ``fm.run_steps``)."""
        kinds, words = self.kinds, self.words
        operands: list[Term] = []
        pending: list[tuple[int, str]] = []  # operators not yet applied, weakest first
        chained = False
        while True:
            i = self.pos
            kind = kinds[i]
            self.pos += 1
            if kind == "int":
                operands.append(Int(int(words[i])))
            elif kind == "-" and kinds[self.pos] == "int":
                operands.append(Int(-int(words[self.pos])))
                self.pos += 1
            elif kind == "(":
                operands.append((yield ()))
                self.expect(")")
            elif kind == "[":
                operands.append(TList(tuple((yield from self.items("]")))))
            elif (name := self.atom(i)) is None:
                self.fail(i, "expected term, found {}")
            elif kinds[self.pos] != "(":
                operands.append(name)
            elif name.name == "oa":
                self.pos += 1
                left = self._name()
                self.expect(".")
                right = self._name()
                self.expect(")")
                operands.append(Compound("oa", (left, right)))
            else:
                self.pos += 1
                operands.append(Compound(name.name, tuple((yield from self.items(")")))))

            after = kinds[self.pos]
            op = _OPERATORS.get(after, _END)
            if chained or op is _PTO and pending and pending[-1] is _PTO:
                # '->' does not chain: read the whole chain, then point past it
                if op is not _PTO:
                    self.fail(self.pos, "'->' does not chain")
                chained = True
            while pending and pending[-1][0] > op[0]:
                right = operands.pop()
                operands[-1] = Compound(pending.pop()[1], (operands[-1], right))
            if op is _END:
                return operands[0]
            self.pos += 1
            pending.append(op)

    def _name(self) -> Atom:
        self.pos += 1
        return self.atom(self.pos - 1) or self.fail(self.pos - 1, "expected name, found {}")


def parse_term(text: str) -> Term:
    """Parse canonical (whitespace-tolerant) term text; ``check_shape``
    validates the result."""
    words, kinds = scan(text)
    if not words:
        raise TermSyntaxError("empty term text")
    return _TermParser(text, words, kinds).parse()


# --------------------------------------------------------------------------
# shape validation (the internal checks applied to imported terms)
# --------------------------------------------------------------------------

_CMP_FUNCTORS = tuple(FUNCTOR_TO_CMP)
_RIGHT_NESTED = ("star", "and", "or", "exists")


_STMT_FUNCTORS = ("assign", "new", "delete", "funcall", "ite", "while", "assert")


def check_shape(t: Term) -> None:
    """Validate a top-level term: program, class, function, statement, or
    formula.  Each formula in it is read by ``term_to_formula``, with the
    program's class fields, in document order."""
    if isinstance(t, Compound) and t.functor == "program" and len(t.args) == 1:
        items = _want_list(t, 0, "program items").items
    elif isinstance(t, Compound) and (
        t.functor in ("class", "function") or (t.functor == "pred" and len(t.args) == 3)
    ):
        items = (t,)
    elif isinstance(t, TList) or (isinstance(t, Compound) and t.functor in _STMT_FUNCTORS):
        _check_stmt(t, {})
        return
    else:
        term_to_formula(t)
        return
    fields = term_class_fields(t)
    for item in items:
        _check_program_item(item, fields)


def _fail(msg: str) -> None:
    raise TermShapeError(msg)


def _want_list(t: Compound, i: int, what: str) -> TList:
    if not isinstance(t.args[i], TList):
        _fail(f"{t.functor}: {what} must be a list")
    return t.args[i]  # type: ignore[return-value]


def _class_field_names(t: Compound) -> tuple[str, ...]:
    """The field names a class term declares, once its name and fields are
    checked."""
    if len(t.args) != 3 or not isinstance(t.args[0], Atom):
        _fail("class takes (name, [fields], [methods])")
    names = []
    for f in _want_list(t, 1, "fields").items:
        if not (
            isinstance(f, Compound)
            and f.functor == "field"
            and len(f.args) == 2
            and all(isinstance(a, Atom) for a in f.args)
        ):
            _fail("class field entries are field(name, type)")
        names.append(f.args[0].name)  # type: ignore[union-attr]
    return tuple(names)


def _check_program_item(t: Term, fields: dict[str, tuple[str, ...]]) -> None:
    if not isinstance(t, Compound):
        _fail("program items must be class/function/pred terms")
        return
    if t.functor == "class":
        _class_field_names(t)
        for m in _want_list(t, 2, "methods").items:
            _check_program_item(m, fields)
        return
    if t.functor == "function":
        if len(t.args) != 4 or not isinstance(t.args[0], Atom) or not isinstance(t.args[1], Atom):
            _fail("function takes (name, type, [params], [stmts])")
        for p in _want_list(t, 2, "params").items:
            if not (
                isinstance(p, Compound)
                and p.functor == "param"
                and len(p.args) == 2
                and all(isinstance(a, Atom) for a in p.args)
            ):
                _fail("function params are param(name, type)")
        for s in _want_list(t, 3, "body").items:
            _check_stmt(s, fields)
        return
    if t.functor == "pred":
        if len(t.args) != 3 or not isinstance(t.args[0], Atom):
            _fail("pred takes (name, [params], body)")
        for p in _want_list(t, 1, "params").items:
            if not isinstance(p, Atom):
                _fail("pred params are atoms")
        term_to_formula(t.args[2], fields)
        return
    _fail(f"unknown program item '{t.functor}/{len(t.args)}'")


def _check_block(t: Term, what: str, fields: dict[str, tuple[str, ...]]) -> None:
    if not isinstance(t, TList):
        _fail(f"{what} must be a statement list")
        return
    for s in t.items:
        _check_stmt(s, fields)


def _check_stmt(t: Term, fields: dict[str, tuple[str, ...]]) -> None:
    if isinstance(t, TList):  # bare block
        _check_block(t, "block", fields)
        return
    if not isinstance(t, Compound):
        _fail(f"statement expected, found {emit_text(t)}")
        return
    f, n = t.functor, len(t.args)
    if f == "assign" and n == 2:
        _check_lhs(t.args[0])
        _check_expr(t.args[1])
        return
    if f in ("new", "delete") and n == 1:
        _check_loc1(t.args[0])
        return
    if f == "funcall" and n in (1, 2):
        if not isinstance(t.args[0], Atom):
            _fail("funcall name must be an atom")
        if n == 2:
            for a in _want_list(t, 1, "actuals").items:
                _check_expr(a)
        return
    if f == "ite" and n in (2, 3):
        _check_cond(t.args[0])
        _check_block(t.args[1], "ite then-block", fields)
        if n == 3:
            _check_block(t.args[2], "ite else-block", fields)
        return
    if f == "while" and n == 3:
        _check_cond(t.args[0])
        inv = t.args[1]
        if not (isinstance(inv, Compound) and inv.functor == "assert" and len(inv.args) == 1):
            _fail("while invariant must be assert(formula)")
        term_to_formula(inv.args[0], fields)  # type: ignore[union-attr]
        _check_block(t.args[2], "while body", fields)
        return
    if f == "assert" and n == 1:
        term_to_formula(t.args[0], fields)
        return
    _fail(f"unknown statement '{f}/{n}'")


def _check_lhs(t: Term) -> None:
    if isinstance(t, Atom):
        return
    if isinstance(t, Compound) and t.functor == "oa":
        _check_loc1(t)
        return
    if isinstance(t, Compound) and t.functor == "mem" and len(t.args) == 1:
        _check_loc(t.args[0])
        return
    _fail(f"assignment target must be a variable, oa(o.f), or mem(...): {emit_text(t)}")


def _check_loc1(t: Term) -> None:
    if isinstance(t, Atom):
        return
    if (
        isinstance(t, Compound)
        and t.functor == "oa"
        and len(t.args) == 2
        and all(isinstance(a, Atom) for a in t.args)
    ):
        return
    _fail(f"location must be name or oa(o.f): {emit_text(t)}")


def _check_loc(t: Term) -> None:
    if not (isinstance(t, Compound) and t.functor == "offset" and len(t.args) in (1, 2)):
        _fail(f"heap location must be offset(loc1[, displacement]): {emit_text(t)}")
        return
    _check_loc1(t.args[0])
    if len(t.args) == 2:
        offset_value(t.args[1])


def _check_expr(t: Term) -> None:
    if isinstance(t, (Int, Atom)):
        return
    if isinstance(t, Compound):
        f, n = t.functor, len(t.args)
        if f == "oa" and n == 2:
            _check_loc1(t)
            return
        if f in ("add", "sub", "mul") and n == 2:
            _check_expr(t.args[0])
            _check_expr(t.args[1])
            return
        if f == "mem" and n == 1:
            _check_loc(t.args[0])
            return
        if f == "funcall" and n in (1, 2):
            _check_stmt(t, {})  # same shape rule as statement position
            return
    _fail(f"expression expected, found {emit_text(t)}")


def _check_cond(t: Term) -> None:
    if isinstance(t, Compound):
        f, n = t.functor, len(t.args)
        if f in ("and", "or") and n == 2:
            _check_cond(t.args[0])
            _check_cond(t.args[1])
            return
        if f in _CMP_FUNCTORS and n == 2:
            _check_expr(t.args[0])
            _check_expr(t.args[1])
            return
    _fail(f"condition expected, found {emit_text(t)}")


# --------------------------------------------------------------------------
# source programs
# --------------------------------------------------------------------------


@record
class SourceProgram(Frozen):
    """The item terms of a parsed source file, kept apart by kind."""

    predicates: tuple[Term, ...]
    classes: tuple[Term, ...]
    functions: tuple[Term, ...]  # top-level functions outside classes


def lower_program(p: SourceProgram) -> Term:
    """The term of a parsed program: its predicates, classes and free
    functions in that order; a lone bare function is its own term."""
    items = p.predicates + p.classes + p.functions
    if len(items) == 1 and p.functions:
        return items[0]
    return comp("program", TList(items))


def is_assert(t: Term) -> bool:
    return isinstance(t, Compound) and t.functor == "assert"


# --------------------------------------------------------------------------
# terms to formulas
# --------------------------------------------------------------------------


_FUNCTOR_CONNECTIVES = {"star": fm.Star, "and": fm.And, "or": fm.Or}


def term_to_formula(t: Term, class_fields: Optional[dict[str, tuple[str, ...]]] = None) -> fm.Formula:
    """The formula of a formula term, its records read with ``class_fields``;
    this is the one check of a formula term's shape."""
    fields = class_fields or {}
    if isinstance(t, Atom):
        if t.name == "emp":
            return fm.Emp()
        if t.name == "true":
            return fm.TrueF()
        if t.name == "false":
            return fm.FalseF()
        raise TermShapeError(f"formula expected, found {emit_text(t)}")
    if isinstance(t, Compound):
        f, n = t.functor, len(t.args)
        if f == "pto" and n == 2:
            return fm.PointsTo(term_to_expr(t.args[0], fields), term_to_expr(t.args[1], fields))
        if f in _RIGHT_NESTED and n == 2:
            links: list[Compound] = []
            while isinstance(t, Compound) and t.functor == f and len(t.args) == 2:
                links.append(t)
                t = t.args[1]
            if f != "exists":
                parts = [term_to_formula(link.args[0], fields) for link in links]
                parts.append(term_to_formula(t, fields))
                return fm.join(_FUNCTOR_CONNECTIVES[f], parts)
            for link in links:
                if not isinstance(link.args[0], Atom):
                    raise TermShapeError("exists binder must be an atom")
            binders = [link.args[0].name for link in links]  # type: ignore[union-attr]
            return fm.exists(binders, term_to_formula(t, fields))
        if f == "pred" and n == 2:
            if not isinstance(t.args[0], Atom):
                raise TermShapeError("pred name must be an atom")
            args = tuple(term_to_expr(a, fields) for a in _want_list(t, 1, "pred args").items)
            return fm.PredApp(t.args[0].name, args)
        if f in FUNCTOR_TO_CMP and n == 2:
            return fm.PureAtom(
                FUNCTOR_TO_CMP[f], term_to_expr(t.args[0], fields), term_to_expr(t.args[1], fields)
            )
    raise TermShapeError(f"formula expected, found {emit_text(t)}")


def term_to_expr(t: Term, class_fields: Optional[dict[str, tuple[str, ...]]] = None) -> fm.SymExpr:
    fields = class_fields or {}
    if isinstance(t, Int):
        return fm.IntLit(t.value)
    if isinstance(t, Atom):
        if t.name == "nil":
            return fm.Nil()
        return fm.Var(t.name)
    if isinstance(t, Compound):
        f, n = t.functor, len(t.args)
        if f == "oa" and n == 2 and all(isinstance(a, Atom) for a in t.args):
            return fm.FieldRef(fm.Var(t.args[0].name), t.args[1].name)  # type: ignore[union-attr]
        if f == "offset" and n in (1, 2):
            _check_loc1(t.args[0])
            base = term_to_expr(t.args[0], fields)
            return fm.shifted(base, offset_value(t.args[1]) if n == 2 else 0)
        if f in ("add", "sub", "mul") and n == 2:
            op = {"add": "+", "sub": "-", "mul": "*"}[f]
            return fm.ArithExpr(op, term_to_expr(t.args[0], fields), term_to_expr(t.args[1], fields))
        if f == "object" and n >= 1:
            if not isinstance(t.args[0], Atom):
                raise TermShapeError("object tag must be an atom")
            tag: Optional[str] = t.args[0].name
            if tag == "_":
                tag = None
            named: list[tuple[str, fm.SymExpr]] = []
            positional: list[fm.SymExpr] = []
            for a in t.args[1:]:
                pair = isinstance(a, Compound) and a.functor == ":" and len(a.args) == 2
                if pair and isinstance(a.args[0], Atom):  # type: ignore[union-attr]
                    named.append((a.args[0].name, term_to_expr(a.args[1], fields)))  # type: ignore[union-attr]
                else:
                    positional.append(term_to_expr(a, fields))
            if named and positional:
                raise TermShapeError("record mixes positional and named components")
            if named:
                return fm.Record(tag, tuple(named))
            names = _positional_names(tag, len(positional), fields)
            return fm.Record(tag, tuple(zip(names, positional)))
    raise TermShapeError(f"assertion expression expected, found {emit_text(t)}")


def _positional_names(
    tag: Optional[str], count: int, class_fields: dict[str, tuple[str, ...]]
) -> list[str]:
    if tag == fm.NODE_TAG:
        if count != len(fm.NODE_FIELDS):
            raise TermShapeError(f"'{fm.NODE_TAG}' records take {len(fm.NODE_FIELDS)} components")
        return list(fm.NODE_FIELDS)
    if tag is not None and tag in class_fields:
        declared = class_fields[tag]
        if count != len(declared):
            raise TermShapeError(f"class '{tag}' declares {len(declared)} fields, record has {count}")
        return list(declared)
    return [f"_{i}" for i in range(count)]


def offset_value(t: Term) -> int:
    """The displacement of an ``offset`` term as an int: ``k`` for an int
    ``k >= 0``, or ``minus(0, k)`` for ``-k``."""
    if isinstance(t, Int) and t.value >= 0:
        return t.value
    if (
        isinstance(t, Compound)
        and t.functor == "minus"
        and len(t.args) == 2
        and t.args[0] == Int(0)
        and isinstance(t.args[1], Int)
    ):
        return -t.args[1].value
    raise TermShapeError("offset displacement must be int or minus(0, int)")


# --------------------------------------------------------------------------
# program-level term access helpers
# --------------------------------------------------------------------------


def program_items(t: Term) -> list[Term]:
    """Flatten a checked top-level term into its item list."""
    if isinstance(t, Compound) and t.functor == "program":
        return list(t.args[0].items)  # type: ignore[union-attr]
    return [t]


def term_functions(t: Term) -> list[Compound]:
    """All function terms, including those nested in classes."""
    out: list[Compound] = []
    for item in program_items(t):
        if isinstance(item, Compound) and item.functor == "function":
            out.append(item)
        elif isinstance(item, Compound) and item.functor == "class":
            for m in item.args[2].items:  # type: ignore[union-attr]
                if isinstance(m, Compound) and m.functor == "function":
                    out.append(m)
    return out


def term_predicates(
    t: Term, class_fields: Optional[dict[str, tuple[str, ...]]] = None
) -> list[fm.PredDef]:
    """The predicate definitions of a program term; their bodies read records
    with ``class_fields``, by default the term's own."""
    fields = term_class_fields(t) if class_fields is None else class_fields
    return [
        _pred_def(item, fields)
        for item in program_items(t)
        if isinstance(item, Compound) and item.functor == "pred"
    ]


def _pred_def(item: Compound, class_fields: dict[str, tuple[str, ...]]) -> fm.PredDef:
    name = item.args[0].name  # type: ignore[union-attr]
    params = tuple(a.name for a in item.args[1].items)  # type: ignore[union-attr]
    return fm.PredDef(name, params, term_to_formula(item.args[2], class_fields), item.span)


def check_predicates(items: Sequence[Term], class_fields: dict[str, tuple[str, ...]]) -> None:
    """Check the predicate definitions among a loaded program's ``items``, and
    every predicate instance in their bodies and in its annotations; records
    in the bodies read with the program's ``class_fields``.

    An error is raised at the span of the ``pred`` or ``assert`` term at
    fault: definitions first, then free functions before class methods, and
    per function its pre, its post, then its body in order.
    """
    preds: list[Compound] = []
    functions: list[Term] = []
    methods: list[Term] = []
    for item in items:
        if not isinstance(item, Compound):
            continue
        if item.functor == "pred":
            preds.append(item)
        elif item.functor == "function":
            functions.append(item)
        elif item.functor == "class":
            methods += item.args[2].items  # type: ignore[union-attr]
    table = fm.check_pred_table(_pred_def(p, class_fields) for p in preds)
    for p in preds:
        check_instances(p.args[2], table, p.args[0].name, p.span)  # type: ignore[union-attr]
    for fn in functions + methods:
        pre, body, post = contract_terms(fn)  # type: ignore[arg-type]
        for a in [c for c in (pre, post) if c is not None] + _annotations(body):
            check_instances(a.args[0], table, "annotation", a.span)


def check_instances(
    f: Term, table: dict[str, fm.PredDef], context: str, span: Span = NO_SPAN
) -> None:
    """Raise, at ``span``, on the leftmost predicate instance in formula term
    ``f`` that names no definition in ``table`` or takes another number of
    arguments; ``context`` names where ``f`` stands."""
    work = [f]
    while work:  # left to right, without recursing into nested formulas
        f = work.pop()
        if not (isinstance(f, Compound) and len(f.args) == 2):
            continue
        if f.functor in ("star", "and", "or"):
            work += (f.args[1], f.args[0])
        elif f.functor == "exists":
            work.append(f.args[1])
        elif f.functor == "pred":
            name, count = f.args[0].name, len(f.args[1].items)  # type: ignore[union-attr]
            d = table.get(name)
            if d is None:
                raise UnknownPredicateError(f"unknown predicate '{name}'", span)
            if len(d.params) != count:
                raise AssertionSyntaxError(
                    f"predicate '{name}' used with {count} arguments in '{context}' "
                    f"but defined with {len(d.params)}",
                    span,
                )


def _annotations(body: list[Term]) -> list[Compound]:
    """The assert terms of a function body (statement asserts and loop
    invariants) in source order."""
    out: list[Compound] = []
    work = body[::-1]
    while work:
        s = work.pop()
        if isinstance(s, TList):
            work += reversed(s.items)
        elif is_assert(s):
            out.append(s)  # type: ignore[arg-type]
        elif isinstance(s, Compound) and s.functor in ("ite", "while"):
            work += reversed(s.args[1:])
    return out


def term_class_fields(t: Term) -> dict[str, tuple[str, ...]]:
    """The field names each class of a program term declares.  A class whose
    name or fields have the wrong shape declares none here; ``check_shape``
    rejects it where it stands."""
    out: dict[str, tuple[str, ...]] = {}
    for item in program_items(t):
        if isinstance(item, Compound) and item.functor == "class":
            try:
                names = _class_field_names(item)
            except TermShapeError:
                continue
            out[item.args[0].name] = names  # type: ignore[union-attr]
    return out


def contract_terms(fn: Compound) -> tuple[Optional[Compound], list[Term], Optional[Compound]]:
    """The contracts of a function term around its executable statements:
    a leading ``assert`` is its precondition and a trailing one its
    postcondition; None stands for an absent contract."""
    body = list(fn.args[3].items)  # type: ignore[union-attr]
    pre = body.pop(0) if body and is_assert(body[0]) else None
    post = body.pop() if body and is_assert(body[-1]) else None
    return pre, body, post  # type: ignore[return-value]


def term_key(t: Term) -> tuple:
    """A flat tuple that is equal for equal terms: the term in prefix order,
    arguments right to left, a compound as None, its functor and arity, a
    list as ``...`` and its length, and a leaf as its name or value.  Hashing
    it needs no recursion, as hashing a long ``*`` chain term would."""
    out: list = []
    work = [t]
    while work:
        t = work.pop()
        if isinstance(t, Compound):
            out += (None, t.functor, len(t.args))
            work += t.args
        elif isinstance(t, TList):
            out += (..., len(t.items))
            work += t.items
        else:
            out.append(t.name if isinstance(t, Atom) else t.value)  # type: ignore[attr-defined]
    return tuple(out)


def annotation_formulas(
    fn: Compound, class_fields: dict[str, tuple[str, ...]]
) -> dict[tuple, fm.Formula]:
    """The formula of each statement assert and loop invariant of a function
    (``split_contracts`` reads its contracts), converted once and keyed by
    its ``term_key``, so equal terms share one."""
    out: dict[tuple, fm.Formula] = {}
    for a in _annotations(contract_terms(fn)[1]):
        key = term_key(a)
        if key not in out:
            out[key] = term_to_formula(a.args[0], class_fields)
    return out


def split_contracts(
    fn: Compound, class_fields: Optional[dict[str, tuple[str, ...]]] = None
) -> tuple[fm.Formula, list[Term], fm.Formula]:
    """(precondition, executable statements, postcondition) of a function
    term, the contracts as formulas; an absent contract is ``true``."""
    pre, body, post = contract_terms(fn)

    def formula(a: Optional[Compound]) -> fm.Formula:
        return fm.TrueF() if a is None else term_to_formula(a.args[0], class_fields)

    return formula(pre), body, formula(post)
