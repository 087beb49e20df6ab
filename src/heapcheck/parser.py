"""Recursive-descent parser for the annotated dialect and its assertion language.

Entry points: ``parse_program`` reads a whole source file, annotations
included, straight into term IR and then checks its predicates once
(``termir.check_predicates``); ``assertion_term`` reads bare formula text into
its term, and ``parse_assertion`` converts that term to a Formula.
"""

from __future__ import annotations

from typing import Callable, Optional, TypeVar

from . import formula as fm
from .errors import NO_SPAN, AssertionSyntaxError, ParseError, TermShapeError
from .lexer import Token, tokenize
from .termir import (
    CMP_TO_FUNCTOR,
    Atom,
    Compound,
    Int,
    SourceProgram,
    Term,
    TList,
    _positional_names,
    check_predicates,
    comp,
    is_assert,
    term_to_formula,
)

_REL_OPS = ("==", "!=", "<=", ">=", "<", ">")

_T = TypeVar("_T")


class _Cursor:
    def __init__(self, toks: list[Token]):
        # no token is consumed past the first sentinel, and a peek looks at
        # most two further, so every lookahead is an index that exists; the
        # sentinels carry the last token's span, where a truncated input ends
        end = Token("eof", "<eof>", toks[-1].span if toks else NO_SPAN)
        self.toks = toks + [end] * 3
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.pos + ahead]

    def at(self, *kinds: str) -> bool:
        return self.toks[self.pos].kind in kinds

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, *kinds: str) -> Token:
        t = self.toks[self.pos]
        if t.kind in kinds:
            self.pos += 1
            return t
        expected = ", ".join(repr(k) for k in kinds)
        raise ParseError(f"expected {expected} but found {t.text!r}", t.span, tuple(kinds))

    def separated(self, read: Callable[[], _T], sep: str = ",") -> list[_T]:
        """``read()`` once, then once more after each ``sep``."""
        out = [read()]
        while self.at(sep):
            self.pos += 1
            out.append(read())
        return out

    def name(self) -> Atom:
        """The next token, which must be a name, as an atom."""
        return Atom(self.expect("ident").text)


class _ExprParser:
    """The expression grammar that statements and assertions share: ``+`` and
    ``-`` over ``*`` over unary minus. ``*`` multiplies only at a positive
    ``_paren_depth``; subclasses read the operands that differ."""

    cur: _Cursor
    _paren_depth = 0

    def _nested(self, read: Callable[[], _T]) -> _T:
        """``read()`` where ``*`` multiplies."""
        self._paren_depth += 1
        try:
            return read()
        finally:
            self._paren_depth -= 1

    def _expr(self) -> Term:
        left = self._term()
        while self.cur.at("+", "-"):
            functor = "add" if self.cur.next().kind == "+" else "sub"
            left = comp(functor, left, self._term())
        return left

    def _term(self) -> Term:
        left = self._unary()
        while self._paren_depth > 0 and self.cur.at("*"):
            self.cur.next()
            left = comp("mul", left, self._unary())
        return left

    def _unary(self) -> Term:
        if self.cur.at("-"):
            self.cur.next()
            return comp("sub", Int(0), self._unary())
        t = self.cur.peek()
        if t.kind == "int":
            self.cur.next()
            return Int(t.value)
        if t.kind in ("nil", "null"):
            self.cur.next()
            return Atom("nil")
        if t.kind == "(":
            self.cur.next()
            e = self._nested(self._expr)
            self.cur.expect(")")
            return e
        out = self._operand(t)
        if out is None:
            raise ParseError(f"expected expression, found {t.text!r}", t.span)
        return out

    def _operand(self, t: Token) -> Optional[Term]:
        """The operand that starts at ``t``, or None if none does."""
        raise NotImplementedError


# --------------------------------------------------------------------------
# assertion (formula) parsing
# --------------------------------------------------------------------------


class _FormulaParser(_ExprParser):
    """Parses the assertion grammar into its formula term: ``*`` binds tighter
    than ``&&`` than ``||``, ``exists`` extends to the right as far as possible.

    Connective chains and binder lists are read in loops and built right-nested,
    one ``exists`` term per binder, so their length costs no stack depth.
    """

    def __init__(self, cur: _Cursor, class_fields: dict[str, tuple[str, ...]]):
        self.cur = cur
        self.class_fields = class_fields

    def parse(self) -> Term:
        return _right_nested("or", self.cur.separated(self._and, "||"))

    def _and(self) -> Term:
        return _right_nested("and", self.cur.separated(self._star, "&&"))

    def _star(self) -> Term:
        # '*' is separating conjunction here; it multiplies only in parentheses
        return _right_nested("star", self.cur.separated(self._unit, "*"))

    def _unit(self) -> Term:
        t = self.cur.peek()
        if t.kind in ("emp", "true", "false"):
            self.cur.next()
            return Atom(t.kind)
        if t.kind == "exists":
            self.cur.next()
            binders: list[Term] = self.cur.separated(self.cur.name)
            self.cur.expect(".")
            return _right_nested("exists", binders + [self.parse()])
        if t.kind == "(":
            # a parenthesized sub-formula, or a parenthesized expression that
            # starts a points-to / comparison atom; bare expressions never
            # parse as formulas, so trying the formula reading first is safe
            save = self.cur.pos
            self.cur.next()
            try:
                inner = self.parse()
                self.cur.expect(")")
                return inner
            except (ParseError, AssertionSyntaxError):
                self.cur.pos = save
            return self._atom_from_expr()
        if t.kind == "ident" and self.cur.peek(1).kind == "(":
            name = self.cur.next().text
            self.cur.next()
            args = [] if self.cur.at(")") else self._nested(lambda: self.cur.separated(self._expr))
            self.cur.expect(")")
            return comp("pred", Atom(name), TList(tuple(args)))
        return self._atom_from_expr()

    def _atom_from_expr(self) -> Term:
        left = self._expr()
        t = self.cur.peek()
        if t.kind == "->":
            self.cur.next()
            values = self.cur.separated(self._expr)
            if len(values) == 1:
                return comp("pto", left, values[0])
            # ``loc->v1,...,vn`` is a nil-terminated chain of node records
            # threaded through fresh existential links
            links: list[Term] = [Atom(f"$l{i}") for i in range(1, len(values))]
            cells: list[Term] = []
            for v, nxt in zip(values, links + [Atom("nil")]):
                cells.append(comp("pto", left, comp("object", Atom(fm.NODE_TAG), v, nxt)))
                left = nxt
            return _right_nested("exists", links + [_right_nested("star", cells)])
        if t.kind in _REL_OPS:
            self.cur.next()
            return comp(CMP_TO_FUNCTOR[t.kind], left, self._expr())
        raise ParseError(
            f"expected '->' or a comparison after expression, found {t.text!r}",
            t.span,
            ("->",) + _REL_OPS,
        )

    def _operand(self, t: Token) -> Optional[Term]:
        if t.kind == "object":
            return self._record()
        if t.kind not in ("ident", "this"):
            return None
        self.cur.next()
        if self.cur.at(".") and self.cur.peek(1).kind == "ident":
            self.cur.next()
            return comp("oa", Atom(t.text), Atom(self.cur.next().text))
        return Atom(t.text)

    def _record(self) -> Term:
        """A record, written positional when its field names are the implied
        ones and named otherwise; a positional record of a class declared so
        far takes that class's field names."""
        self.cur.expect("object")
        self.cur.expect("(")
        tag_tok = self.cur.peek()
        if tag_tok.kind != "ident":
            raise ParseError(f"expected record tag, found {tag_tok.text!r}", tag_tok.span)
        self.cur.next()
        tag = None if tag_tok.text == "_" else tag_tok.text  # '_' marks a tagless record
        names: list[str] = []
        values: list[Term] = []
        while self.cur.at(","):
            self.cur.next()
            if self.cur.at("ident") and self.cur.peek(1).kind == ":":
                names.append(self.cur.next().text)
                self.cur.next()
            values.append(self._nested(self._expr))
        self.cur.expect(")")
        if names and len(names) != len(values):
            raise AssertionSyntaxError(
                "record mixes positional and named components", tag_tok.span
            )
        if not names:
            try:
                names = _positional_names(tag, len(values), self.class_fields)
            except TermShapeError as e:
                raise AssertionSyntaxError(e.message, tag_tok.span) from None
        if not fm.is_positional(tag, names):
            values = [comp(":", Atom(n), v) for n, v in zip(names, values)]
        return Compound("object", (Atom(tag_tok.text), *values))


_TRUE = Atom("true")


def _right_nested(functor: str, parts: list[Term]) -> Term:
    """``parts`` joined by binary ``functor`` terms nested to the right."""
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = comp(functor, p, out)
    return out


def assertion_term(
    raw: str,
    base_line: int = 1,
    base_col: int = 1,
    class_fields: Optional[dict[str, tuple[str, ...]]] = None,
) -> Term:
    """Parse annotation text into its formula term; empty text means ``true``."""
    toks = tokenize(raw, base_line, base_col)
    if not toks:
        return _TRUE
    cur = _Cursor(toks)
    try:
        out = _FormulaParser(cur, class_fields or {}).parse()
    except ParseError as e:
        raise AssertionSyntaxError(e.message, e.span) from None
    trailing = cur.peek()
    if trailing.kind != "eof":
        raise AssertionSyntaxError(
            f"unexpected {trailing.text!r} after formula", trailing.span
        )
    return out


def parse_assertion(
    raw: str,
    base_line: int = 1,
    base_col: int = 1,
    class_fields: Optional[dict[str, tuple[str, ...]]] = None,
) -> fm.Formula:
    """Parse annotation text into a Formula; empty text means ``true``."""
    term = assertion_term(raw, base_line, base_col, class_fields)
    return term_to_formula(term, class_fields)


# --------------------------------------------------------------------------
# program parsing
# --------------------------------------------------------------------------


class _ProgramParser(_ExprParser):
    """Builds the term IR of a source file as it reads it.

    Every statement term carries the span of the source statement it came
    from, every ``assert`` the span of its annotation and every ``pred`` the
    span of its keyword, for diagnostics; function terms carry none.
    """

    _paren_depth = 1  # statements have no separating conjunction: '*' multiplies

    def __init__(self, toks: list[Token]):
        self.cur = _Cursor(toks)
        self.class_fields: dict[str, tuple[str, ...]] = {}

    def parse(self) -> SourceProgram:
        classes: list[Term] = []
        functions: list[Term] = []
        preds: list[Term] = []
        pred_names: set[str] = set()
        fn_names: set[str] = set()
        while not self.cur.at("eof"):
            if self.cur.at("class"):
                classes.append(self._class_decl())
            elif self.cur.at("pred"):
                preds.append(self._pred_decl(pred_names))
            else:
                start = self.cur.peek()
                fn = self._method_decl()
                name = fn.args[0].name  # type: ignore[union-attr]
                if name in fn_names:
                    raise ParseError(f"duplicate function '{name}'", start.span)
                fn_names.add(name)
                functions.append(fn)
        check_predicates(preds + classes + functions, self.class_fields)
        return SourceProgram(tuple(preds), tuple(classes), tuple(functions))

    def _class_decl(self) -> Term:
        start = self.cur.expect("class")
        name = self.cur.expect("ident").text
        if name == fm.NODE_TAG:
            raise ParseError(f"'{fm.NODE_TAG}' is a reserved builtin class name", start.span)
        if name in self.class_fields:
            raise ParseError(f"duplicate class '{name}'", start.span)
        self.cur.expect("{")
        fields: list[Term] = []
        methods: list[Compound] = []
        method_names: set[str] = set()
        # record the (growing) field list so method annotations can resolve it
        self.class_fields[name] = ()
        while not self.cur.at("}"):
            if self.cur.peek(2).kind == ";":
                ftype = self.cur.expect("ident").text
                fname_tok = self.cur.expect("ident")
                fname = fname_tok.text
                self.cur.expect(";")
                if fname in self.class_fields[name]:
                    raise ParseError(f"duplicate field '{fname}' in class '{name}'", fname_tok.span)
                fields.append(comp("field", Atom(fname), Atom(ftype)))
                self.class_fields[name] += (fname,)
            else:
                m_start = self.cur.peek()
                m = self._method_decl(this_class=name)
                m_name = m.args[0].name  # type: ignore[union-attr]
                if m_name in method_names:
                    raise ParseError(f"duplicate method '{m_name}' in class '{name}'", m_start.span)
                method_names.add(m_name)
                methods.append(m)
        self.cur.expect("}")
        return comp("class", Atom(name), TList(tuple(fields)), TList(tuple(methods)))

    def _pred_decl(self, seen: set[str]) -> Compound:
        """A ``pred`` declaration whose name is not in ``seen``, which gains it."""
        start = self.cur.expect("pred")
        name = self.cur.name()
        if name.name in seen:
            raise ParseError(f"duplicate predicate '{name.name}'", start.span)
        seen.add(name.name)
        self.cur.expect("(")
        params: list[Term] = [] if self.cur.at(")") else self.cur.separated(self.cur.name)
        self.cur.expect(")")
        self.cur.expect(":=")
        try:
            body = _FormulaParser(self.cur, self.class_fields).parse()
        except ParseError as e:
            raise AssertionSyntaxError(e.message, e.span) from None
        self.cur.expect(";")
        return comp("pred", name, TList(tuple(params)), body, span=start.span)

    def _assert(self, tok: Token) -> Compound:
        """The assert term of an annotation token, carrying its span."""
        f = assertion_term(tok.text, tok.span.line, tok.span.col, self.class_fields)
        return comp("assert", f, span=tok.span)

    def _method_decl(self, this_class: Optional[str] = None) -> Compound:
        rtype_tok = self.cur.expect("ident")
        name = self.cur.expect("ident").text
        self.cur.expect("(")
        params = [] if self.cur.at(")") else self.cur.separated(self._param)
        self.cur.expect(")")
        if len({p.args[0] for p in params}) != len(params):
            raise ParseError(f"duplicate parameter name in '{name}'", rtype_tok.span)
        if this_class is not None:
            params.insert(0, comp("param", Atom("this"), Atom(this_class)))
        pre = self._optional_assert()
        body = self._block()
        post = self._optional_assert()
        # ``split_contracts`` reads a leading and a trailing assert as the
        # contracts, so a true contract is written out when a body assert
        # would otherwise stand in its place
        if post.args[0] != _TRUE or (body and is_assert(body[-1])):
            body.append(post)
        if pre.args[0] != _TRUE or (body and is_assert(body[0])):
            body.insert(0, pre)
        return comp(
            "function", Atom(name), Atom(rtype_tok.text), TList(tuple(params)), TList(tuple(body))
        )

    def _optional_assert(self) -> Compound:
        """The assert of an optional contract or loop invariant; ``true``
        without a span when absent."""
        if not self.cur.at("annot"):
            return comp("assert", _TRUE)
        return self._assert(self.cur.next())

    def _param(self) -> Compound:
        ptype = self.cur.expect("ident").text
        pname = self.cur.expect("ident").text
        return comp("param", Atom(pname), Atom(ptype))

    def _block(self) -> list[Term]:
        self.cur.expect("{")
        stmts: list[Term] = []
        while not self.cur.at("}"):
            self._stmt(stmts)
        self.cur.expect("}")
        return stmts

    def _stmt(self, out: list[Term]) -> None:
        """Append the terms of one statement, each carrying its span."""
        t = self.cur.peek()
        if t.kind == "annot":
            self.cur.next()
            self.cur.expect(";")
            out.append(self._assert(t))
        elif t.kind in ("new", "delete"):
            self.cur.next()
            self.cur.expect("(")
            base = self._location1()
            self.cur.expect(")")
            self.cur.expect(";")
            out.append(comp(t.kind, base, span=t.span))
        elif t.kind == "if":
            self.cur.next()
            args = [self._cond(), TList(tuple(self._block()))]
            if self.cur.at("else"):
                self.cur.next()
                args.append(TList(tuple(self._block())))
            out.append(Compound("ite", tuple(args), t.span))
        elif t.kind == "while":
            self.cur.next()
            cond = self._cond()
            inv = self._optional_assert()
            body = TList(tuple(self._block()))
            out.append(comp("while", cond, inv, body, span=t.span))
        elif t.kind == "{":
            out.append(TList(tuple(self._block()), t.span))
        else:
            self._assign_or_call(out)

    def _location1(self) -> Term:
        t = self.cur.peek()
        if t.kind == "this":
            self.cur.next()
            self.cur.expect(".")
            return comp("oa", Atom("this"), Atom(self.cur.expect("ident").text))
        name = self.cur.expect("ident").text
        if self.cur.at(".") and self.cur.peek(1).kind == "ident":
            self.cur.next()
            return comp("oa", Atom(name), Atom(self.cur.next().text))
        return Atom(name)

    def _location(self) -> Term:
        base = self._location1()
        if self.cur.at("+", "-"):
            negative = self.cur.next().kind == "-"
            n = self.cur.expect("int").value
            if n:
                return comp("offset", base, comp("minus", Int(0), Int(n)) if negative else Int(n))
        return comp("offset", base)

    def _try_lhs(self) -> Optional[Term]:
        """Parse an assignment target if one starts here and is followed by '='."""
        save = self.cur.pos
        t = self.cur.peek()
        try:
            if t.kind == "[":
                self.cur.next()
                lhs = comp("mem", self._location())
                self.cur.expect("]")
            elif t.kind in ("ident", "this"):
                lhs = self._location1()
            else:
                return None
        except ParseError:
            self.cur.pos = save
            return None
        if self.cur.at("="):
            self.cur.next()
            return lhs
        self.cur.pos = save
        return None

    def _assign_or_call(self, out: list[Term]) -> None:
        t = self.cur.peek()
        targets: list[Term] = []
        while (lhs := self._try_lhs()) is not None:
            targets.append(lhs)
        if not targets:
            # must be a bare call statement
            call = self._expr()
            if not (isinstance(call, Compound) and call.functor == "funcall"):
                raise ParseError(f"expected a statement, found {t.text!r}", t.span)
            self.cur.expect(";")
            out.append(Compound("funcall", call.args, t.span))
            return
        value = self._expr()
        self.cur.expect(";")
        # rightmost target is assigned first; earlier targets then read it back
        for lhs in reversed(targets):
            out.append(comp("assign", lhs, value, span=t.span))
            value = lhs

    # conditions

    def _cond(self) -> Term:
        left = self._cond_and()
        while self.cur.at("||"):
            self.cur.next()
            left = comp("or", left, self._cond_and())
        return left

    def _cond_and(self) -> Term:
        left = self._cond_atom()
        while self.cur.at("&&"):
            self.cur.next()
            left = comp("and", left, self._cond_atom())
        return left

    def _cond_atom(self) -> Term:
        t = self.cur.peek()
        if t.kind == "(":
            save = self.cur.pos
            self.cur.next()
            try:
                inner = self._cond()
                self.cur.expect(")")
                return inner
            except ParseError:
                self.cur.pos = save
        left = self._expr()
        op = self.cur.expect(*_REL_OPS)
        right = self._expr()
        return comp(CMP_TO_FUNCTOR[op.kind], left, right)

    # expression operands: heap reads, names, fields and calls

    def _operand(self, t: Token) -> Optional[Term]:
        if t.kind == "[":
            self.cur.next()
            loc = self._location()
            self.cur.expect("]")
            return comp("mem", loc)
        if t.kind == "this":
            self.cur.next()
            self.cur.expect(".")
            member = self.cur.expect("ident").text
            if self.cur.at("("):
                return self._call(member, Atom("this"))
            return comp("oa", Atom("this"), Atom(member))
        if t.kind != "ident":
            return None
        name = self.cur.next().text
        if self.cur.at("("):
            return self._call(name, None)
        if self.cur.at(".") and self.cur.peek(1).kind == "ident":
            self.cur.next()
            member = self.cur.next().text
            if self.cur.at("("):
                return self._call(member, Atom(name))
            return comp("oa", Atom(name), Atom(member))
        return Atom(name)

    def _call(self, name: str, receiver: Optional[Term]) -> Term:
        """A call; its receiver becomes the implicit first actual."""
        self.cur.expect("(")
        args: list[Term] = [] if receiver is None else [receiver]
        if not self.cur.at(")"):
            args += self.cur.separated(self._expr)
        self.cur.expect(")")
        if args:
            return comp("funcall", Atom(name), TList(tuple(args)))
        return comp("funcall", Atom(name))


def parse_program(text: str) -> SourceProgram:
    """Tokenize and parse a whole source file into its item terms."""
    return _ProgramParser(tokenize(text)).parse()
