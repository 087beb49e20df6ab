"""Recursive-descent parser for the annotated dialect and its assertion language.

Entry points: ``parse_program`` for whole source files, which it reads
straight into term IR, and ``parse_assertion`` for bare formula text
(annotations, entailment query files).
"""

from __future__ import annotations

from typing import Optional

from . import formula as fm
from .errors import NO_SPAN, AssertionSyntaxError, ParseError, Span
from .lexer import Token, tokenize
from .termir import (
    CMP_TO_FUNCTOR,
    Atom,
    Compound,
    Int,
    SourceProgram,
    Term,
    TList,
    comp,
    formula_to_term,
    is_assert,
)

_REL_OPS = ("==", "!=", "<=", ">=", "<", ">")

_EOF = Token("eof", "<eof>", Span())


class _Cursor:
    def __init__(self, toks: list[Token]):
        # no token is consumed past the first sentinel, and a peek looks at
        # most two further, so every lookahead is an index that exists
        self.toks = toks + [_EOF] * 3
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


# --------------------------------------------------------------------------
# assertion (formula) parsing
# --------------------------------------------------------------------------


class _FormulaParser:
    """Parses the assertion grammar: ``*`` binds tighter than ``&&`` than ``||``,
    ``exists`` extends to the right as far as possible."""

    def __init__(self, cur: _Cursor, class_fields: dict[str, tuple[str, ...]]):
        self.cur = cur
        self.class_fields = class_fields
        # '*' is separating conjunction at formula level; it only means
        # multiplication inside parentheses
        self._paren_depth = 0

    def parse(self) -> fm.Formula:
        return self._or()

    def _chain(self, kind: str, cls, sub) -> fm.Formula:
        parts = [sub()]
        while self.cur.at(kind):
            self.cur.next()
            parts.append(sub())
        return fm.join(cls, parts)

    def _or(self) -> fm.Formula:
        return self._chain("||", fm.Or, self._and)

    def _and(self) -> fm.Formula:
        return self._chain("&&", fm.And, self._star)

    def _star(self) -> fm.Formula:
        return self._chain("*", fm.Star, self._unit)

    def _unit(self) -> fm.Formula:
        t = self.cur.peek()
        if t.kind == "emp":
            self.cur.next()
            return fm.Emp()
        if t.kind == "true":
            self.cur.next()
            return fm.TrueF()
        if t.kind == "false":
            self.cur.next()
            return fm.FalseF()
        if t.kind == "exists":
            self.cur.next()
            binders = [self.cur.expect("ident").text]
            while self.cur.at(","):
                self.cur.next()
                binders.append(self.cur.expect("ident").text)
            self.cur.expect(".")
            return fm.exists(binders, self._or())
        if t.kind == "(":
            # a parenthesized sub-formula, or a parenthesized expression that
            # starts a points-to / comparison atom; bare expressions never
            # parse as formulas, so trying the formula reading first is safe
            save = self.cur.pos
            self.cur.next()
            try:
                inner = self._or()
                self.cur.expect(")")
                return inner
            except (ParseError, AssertionSyntaxError):
                self.cur.pos = save
            return self._atom_from_expr()
        if t.kind == "ident" and self.cur.peek(1).kind == "(":
            name = self.cur.next().text
            self.cur.next()
            self._paren_depth += 1
            try:
                args: list[fm.SymExpr] = []
                if not self.cur.at(")"):
                    args.append(self._expr())
                    while self.cur.at(","):
                        self.cur.next()
                        args.append(self._expr())
            finally:
                self._paren_depth -= 1
            self.cur.expect(")")
            return fm.PredApp(name, tuple(args))
        return self._atom_from_expr()

    def _atom_from_expr(self) -> fm.Formula:
        left = self._expr()
        t = self.cur.peek()
        if t.kind == "->":
            self.cur.next()
            values = [self._expr()]
            while self.cur.at(","):
                self.cur.next()
                values.append(self._expr())
            return fm.chain_points_to(left, values)
        if t.kind in _REL_OPS:
            self.cur.next()
            return fm.PureAtom(t.kind, left, self._expr())
        raise ParseError(
            f"expected '->' or a comparison after expression, found {t.text!r}",
            t.span,
            ("->",) + _REL_OPS,
        )

    # expression sub-grammar (shared precedence with program expressions)

    def _expr(self) -> fm.SymExpr:
        left = self._term()
        while self.cur.at("+", "-"):
            op = self.cur.next().kind
            left = fm.ArithExpr(op, left, self._term())
        return left

    def _term(self) -> fm.SymExpr:
        left = self._unary()
        while self._paren_depth > 0 and self.cur.at("*"):
            self.cur.next()
            left = fm.ArithExpr("*", left, self._unary())
        return left

    def _unary(self) -> fm.SymExpr:
        if self.cur.at("-"):
            self.cur.next()
            return fm.ArithExpr("-", fm.IntLit(0), self._unary())
        return self._primary()

    def _primary(self) -> fm.SymExpr:
        t = self.cur.peek()
        if t.kind == "int":
            self.cur.next()
            return fm.IntLit(t.value)
        if t.kind in ("nil", "null"):
            self.cur.next()
            return fm.Nil()
        if t.kind == "(":
            self.cur.next()
            self._paren_depth += 1
            try:
                e = self._expr()
            finally:
                self._paren_depth -= 1
            self.cur.expect(")")
            return e
        if t.kind == "object":
            return self._record()
        if t.kind in ("ident", "this"):
            self.cur.next()
            base: fm.SymExpr = fm.Var(t.text)
            if self.cur.at(".") and self.cur.peek(1).kind == "ident":
                self.cur.next()
                field = self.cur.next().text
                return fm.FieldRef(base, field)
            return base
        raise ParseError(f"expected expression, found {t.text!r}", t.span)

    def _record(self) -> fm.Record:
        self.cur.expect("object")
        self.cur.expect("(")
        tag_tok = self.cur.peek()
        if tag_tok.kind != "ident":
            raise ParseError(f"expected record tag, found {tag_tok.text!r}", tag_tok.span)
        tag: str | None = self.cur.next().text
        if tag == "_":  # '_' marks a tagless record
            tag = None
        named: list[tuple[str, fm.SymExpr]] = []
        positional: list[fm.SymExpr] = []
        self._paren_depth += 1
        try:
            while self.cur.at(","):
                self.cur.next()
                if self.cur.at("ident") and self.cur.peek(1).kind == ":":
                    name = self.cur.next().text
                    self.cur.next()
                    named.append((name, self._expr()))
                else:
                    positional.append(self._expr())
        finally:
            self._paren_depth -= 1
        self.cur.expect(")")
        if named and positional:
            raise AssertionSyntaxError(
                "record mixes positional and named components", tag_tok.span
            )
        if named:
            return fm.Record(tag, tuple(named))
        names = self._record_field_names(tag, len(positional), tag_tok.span)
        return fm.Record(tag, tuple(zip(names, positional)))

    def _record_field_names(self, tag: str | None, count: int, span: Span) -> list[str]:
        if tag == fm.NODE_TAG:
            if count != len(fm.NODE_FIELDS):
                raise AssertionSyntaxError(
                    f"'{fm.NODE_TAG}' records take {len(fm.NODE_FIELDS)} components", span
                )
            return list(fm.NODE_FIELDS)
        if tag is not None and tag in self.class_fields:
            declared = self.class_fields[tag]
            if count != len(declared):
                raise AssertionSyntaxError(
                    f"class '{tag}' declares {len(declared)} fields, record has {count}", span
                )
            return list(declared)
        return [f"_{i}" for i in range(count)]


def parse_assertion(
    raw: str,
    base_line: int = 1,
    base_col: int = 1,
    class_fields: Optional[dict[str, tuple[str, ...]]] = None,
) -> fm.Formula:
    """Parse annotation text into a Formula; empty text means ``true``."""
    toks = tokenize(raw, base_line, base_col)
    if not toks:
        return fm.TrueF()
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


# --------------------------------------------------------------------------
# program parsing
# --------------------------------------------------------------------------


class _ProgramParser:
    """Builds the term IR of a source file as it reads it.

    Every statement term carries the span of the source statement it came
    from, for diagnostics; contract asserts and function terms carry none.
    """

    def __init__(self, toks: list[Token]):
        self.cur = _Cursor(toks)
        self.class_fields: dict[str, tuple[str, ...]] = {}
        # annotation formulas and their spans, for the arity check once every
        # predicate is known: per method its pre, post and then its body
        # formulas in order
        self._fn_formulas: list[tuple[fm.Formula, Span]] = []
        self._method_formulas: list[tuple[fm.Formula, Span]] = []
        self._body_formulas: list[tuple[fm.Formula, Span]] = []

    def parse(self) -> SourceProgram:
        classes: list[Term] = []
        functions: list[Compound] = []
        preds: list[fm.PredDef] = []
        while not self.cur.at("eof"):
            if self.cur.at("class"):
                classes.append(self._class_decl())
            elif self.cur.at("pred"):
                preds.append(self._pred_decl(preds))
            else:
                start = self.cur.peek()
                fn = self._method_decl(self._fn_formulas)
                if any(f.args[0] == fn.args[0] for f in functions):
                    name = fn.args[0].name  # type: ignore[union-attr]
                    raise ParseError(f"duplicate function '{name}'", start.span)
                functions.append(fn)
        # check_pred_table checks the predicate bodies themselves
        table = fm.check_pred_table(preds)
        for f, span in self._fn_formulas + self._method_formulas:
            fm.check_arities(f, table, "annotation", span)
        pred_terms = tuple(
            comp("pred", Atom(d.name), TList(tuple(map(Atom, d.params))), formula_to_term(d.body))
            for d in preds
        )
        return SourceProgram(pred_terms, tuple(classes), tuple(functions))

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
                m = self._method_decl(self._method_formulas, this_class=name)
                if any(x.args[0] == m.args[0] for x in methods):
                    raise ParseError(
                        f"duplicate method '{m.args[0].name}' in class '{name}'",  # type: ignore[union-attr]
                        m_start.span,
                    )
                methods.append(m)
        self.cur.expect("}")
        return comp("class", Atom(name), TList(tuple(fields)), TList(tuple(methods)))

    def _pred_decl(self, seen: list[fm.PredDef]) -> fm.PredDef:
        start = self.cur.expect("pred")
        name = self.cur.expect("ident").text
        if any(p.name == name for p in seen):
            raise ParseError(f"duplicate predicate '{name}'", start.span)
        self.cur.expect("(")
        params: list[str] = []
        if not self.cur.at(")"):
            params.append(self.cur.expect("ident").text)
            while self.cur.at(","):
                self.cur.next()
                params.append(self.cur.expect("ident").text)
        self.cur.expect(")")
        self.cur.expect(":=")
        body = self._inline_formula()
        self.cur.expect(";")
        return fm.PredDef(name, tuple(params), body, start.span)

    def _inline_formula(self) -> fm.Formula:
        try:
            return _FormulaParser(self.cur, self.class_fields).parse()
        except AssertionSyntaxError:
            raise
        except ParseError as e:
            raise AssertionSyntaxError(e.message, e.span) from None

    def _annotation(self, tok: Token) -> fm.Formula:
        return parse_assertion(tok.text, tok.span.line, tok.span.col, self.class_fields)

    def _method_decl(
        self, formulas: list[tuple[fm.Formula, Span]], this_class: Optional[str] = None
    ) -> Compound:
        rtype_tok = self.cur.expect("ident")
        name = self.cur.expect("ident").text
        self.cur.expect("(")
        params: list[Compound] = []
        if not self.cur.at(")"):
            params.append(self._param())
            while self.cur.at(","):
                self.cur.next()
                params.append(self._param())
        self.cur.expect(")")
        if len({p.args[0] for p in params}) != len(params):
            raise ParseError(f"duplicate parameter name in '{name}'", rtype_tok.span)
        if this_class is not None:
            params.insert(0, comp("param", Atom("this"), Atom(this_class)))
        pre, pre_span = self._contract()
        self._body_formulas = []
        body = self._block()
        post, post_span = self._contract()
        formulas += [(pre, pre_span), (post, post_span), *self._body_formulas]
        # ``split_contracts`` reads a leading and a trailing assert as the
        # contracts, so a true contract is written out when a body assert
        # would otherwise stand in its place
        if post != fm.TrueF() or (body and is_assert(body[-1])):
            body.append(comp("assert", formula_to_term(post)))
        if pre != fm.TrueF() or (body and is_assert(body[0])):
            body.insert(0, comp("assert", formula_to_term(pre)))
        return comp(
            "function", Atom(name), Atom(rtype_tok.text), TList(tuple(params)), TList(tuple(body))
        )

    def _contract(self) -> tuple[fm.Formula, Span]:
        """An optional contract annotation and its span; ``true`` when absent."""
        if not self.cur.at("annot"):
            return fm.TrueF(), NO_SPAN
        tok = self.cur.next()
        return self._annotation(tok), tok.span

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
            f = self._annotation(t)
            self._body_formulas.append((f, t.span))
            out.append(comp("assert", formula_to_term(f), span=t.span))
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
            inv: fm.Formula = fm.TrueF()
            if self.cur.at("annot"):
                tok = self.cur.next()
                inv = self._annotation(tok)
                self._body_formulas.append((inv, tok.span))
            body = TList(tuple(self._block()))
            out.append(comp("while", cond, comp("assert", formula_to_term(inv)), body, span=t.span))
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

    # expressions

    def _expr(self) -> Term:
        left = self._exp_term()
        while self.cur.at("+", "-"):
            functor = "add" if self.cur.next().kind == "+" else "sub"
            left = comp(functor, left, self._exp_term())
        return left

    def _exp_term(self) -> Term:
        left = self._exp_unary()
        while self.cur.at("*"):
            self.cur.next()
            left = comp("mul", left, self._exp_unary())
        return left

    def _exp_unary(self) -> Term:
        if self.cur.at("-"):
            self.cur.next()
            return comp("sub", Int(0), self._exp_unary())
        return self._exp_primary()

    def _exp_primary(self) -> Term:
        t = self.cur.peek()
        if t.kind == "int":
            self.cur.next()
            return Int(t.value)
        if t.kind in ("null", "nil"):
            self.cur.next()
            return Atom("nil")
        if t.kind == "(":
            self.cur.next()
            e = self._expr()
            self.cur.expect(")")
            return e
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
        if t.kind == "ident":
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
        raise ParseError(f"expected expression, found {t.text!r}", t.span)

    def _call(self, name: str, receiver: Optional[Term]) -> Term:
        """A call; its receiver becomes the implicit first actual."""
        self.cur.expect("(")
        args: list[Term] = [] if receiver is None else [receiver]
        if not self.cur.at(")"):
            args.append(self._expr())
            while self.cur.at(","):
                self.cur.next()
                args.append(self._expr())
        self.cur.expect(")")
        if args:
            return comp("funcall", Atom(name), TList(tuple(args)))
        return comp("funcall", Atom(name))


def parse_program(text: str) -> SourceProgram:
    """Tokenize and parse a whole source file into its item terms."""
    return _ProgramParser(tokenize(text)).parse()
