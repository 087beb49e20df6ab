"""Recursive-descent parser for the annotated dialect and its assertion language.

Entry points: ``parse_program`` for whole source files, ``parse_assertion``
for bare formula text (annotations, entailment query files).
"""

from __future__ import annotations

from typing import Optional

from . import astnodes as ast
from . import formula as fm
from .errors import AssertionSyntaxError, ParseError, Span
from .lexer import Token, tokenize

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
    def __init__(self, toks: list[Token]):
        self.cur = _Cursor(toks)
        self.class_fields: dict[str, tuple[str, ...]] = {}

    def parse(self) -> ast.SourceProgram:
        classes: list[ast.ClassDecl] = []
        functions: list[ast.MethodDecl] = []
        preds: list[ast.PredDecl] = []
        while not self.cur.at("eof"):
            if self.cur.at("class"):
                classes.append(self._class_decl(classes))
            elif self.cur.at("pred"):
                preds.append(self._pred_decl(preds))
            else:
                fn = self._method_decl()
                if any(f.name == fn.name for f in functions):
                    raise ParseError(f"duplicate function '{fn.name}'", fn.span)
                functions.append(fn)
        program = ast.SourceProgram(tuple(classes), tuple(functions), tuple(preds))
        table = fm.check_pred_table([p.pred for p in preds])
        for f in program_formulas(program):
            fm.check_arities(f, table, "annotation")
        return program

    def _class_decl(self, seen: list[ast.ClassDecl]) -> ast.ClassDecl:
        start = self.cur.expect("class")
        name = self.cur.expect("ident").text
        if name == fm.NODE_TAG:
            raise ParseError(f"'{fm.NODE_TAG}' is a reserved builtin class name", start.span)
        if any(c.name == name for c in seen):
            raise ParseError(f"duplicate class '{name}'", start.span)
        self.cur.expect("{")
        fields: list[tuple[str, str]] = []
        methods: list[ast.MethodDecl] = []
        # record the (growing) field list so method annotations can resolve it
        self.class_fields[name] = ()
        while not self.cur.at("}"):
            if self.cur.peek(2).kind == ";":
                ftype = self.cur.expect("ident").text
                fname = self.cur.expect("ident").text
                self.cur.expect(";")
                if any(n == fname for n, _ in fields):
                    raise ParseError(f"duplicate field '{fname}' in class '{name}'", start.span)
                fields.append((fname, ftype))
                self.class_fields[name] = tuple(n for n, _ in fields)
            else:
                m = self._method_decl()
                if any(x.name == m.name for x in methods):
                    raise ParseError(
                        f"duplicate method '{m.name}' in class '{name}'", m.span
                    )
                methods.append(m)
        self.cur.expect("}")
        return ast.ClassDecl(name, tuple(fields), tuple(methods))

    def _pred_decl(self, seen: list[ast.PredDecl]) -> ast.PredDecl:
        start = self.cur.expect("pred")
        name = self.cur.expect("ident").text
        if any(p.pred.name == name for p in seen):
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
        return ast.PredDecl(fm.PredDef(name, tuple(params), body))

    def _inline_formula(self) -> fm.Formula:
        try:
            return _FormulaParser(self.cur, self.class_fields).parse()
        except AssertionSyntaxError:
            raise
        except ParseError as e:
            raise AssertionSyntaxError(e.message, e.span) from None

    def _annotation(self, tok: Token) -> fm.Formula:
        return parse_assertion(tok.text, tok.span.line, tok.span.col, self.class_fields)

    def _method_decl(self) -> ast.MethodDecl:
        rtype_tok = self.cur.expect("ident")
        name = self.cur.expect("ident").text
        self.cur.expect("(")
        params: list[tuple[str, str]] = []
        if not self.cur.at(")"):
            params.append(self._param())
            while self.cur.at(","):
                self.cur.next()
                params.append(self._param())
        self.cur.expect(")")
        if len({n for n, _ in params}) != len(params):
            raise ParseError(f"duplicate parameter name in '{name}'", rtype_tok.span)
        pre: fm.Formula = fm.TrueF()
        if self.cur.at("annot"):
            pre = self._annotation(self.cur.next())
        body = self._block()
        post: fm.Formula = fm.TrueF()
        if self.cur.at("annot"):
            post = self._annotation(self.cur.next())
        return ast.MethodDecl(
            name, rtype_tok.text, tuple(params), pre, body, post, span=rtype_tok.span
        )

    def _param(self) -> tuple[str, str]:
        ptype = self.cur.expect("ident").text
        pname = self.cur.expect("ident").text
        return (pname, ptype)

    def _block(self) -> ast.Block:
        self.cur.expect("{")
        stmts: list[ast.Stmt] = []
        while not self.cur.at("}"):
            stmts.append(self._stmt())
        self.cur.expect("}")
        return ast.Block(tuple(stmts))

    def _stmt(self) -> ast.Stmt:
        t = self.cur.peek()
        if t.kind == "annot":
            self.cur.next()
            self.cur.expect(";")
            return ast.AssertStmt(self._annotation(t), span=t.span)
        if t.kind == "new":
            self.cur.next()
            self.cur.expect("(")
            base = self._location1()
            self.cur.expect(")")
            self.cur.expect(";")
            return ast.NewStmt(base, span=t.span)
        if t.kind == "delete":
            self.cur.next()
            self.cur.expect("(")
            base = self._location1()
            self.cur.expect(")")
            self.cur.expect(";")
            return ast.DeleteStmt(base, span=t.span)
        if t.kind == "if":
            self.cur.next()
            cond = self._cond()
            then_block = self._block()
            else_block = None
            if self.cur.at("else"):
                self.cur.next()
                else_block = self._block()
            return ast.IfStmt(cond, then_block, else_block, span=t.span)
        if t.kind == "while":
            self.cur.next()
            cond = self._cond()
            inv: fm.Formula = fm.TrueF()
            if self.cur.at("annot"):
                inv = self._annotation(self.cur.next())
            body = self._block()
            return ast.WhileStmt(cond, inv, body, span=t.span)
        if t.kind == "{":
            return ast.BlockStmt(self._block(), span=t.span)
        return self._assign_or_call()

    def _location1(self) -> ast.LocBase:
        t = self.cur.peek()
        if t.kind == "this":
            self.cur.next()
            self.cur.expect(".")
            field = self.cur.expect("ident").text
            return ast.FieldBase("this", field)
        name = self.cur.expect("ident").text
        if self.cur.at(".") and self.cur.peek(1).kind == "ident":
            self.cur.next()
            field = self.cur.next().text
            return ast.FieldBase(name, field)
        return ast.VarBase(name)

    def _location(self) -> ast.Location:
        base = self._location1()
        offset = 0
        if self.cur.at("+", "-"):
            sign = -1 if self.cur.next().kind == "-" else 1
            offset = sign * self.cur.expect("int").value
        return ast.Location(base, offset)

    def _try_lhs(self) -> Optional[ast.Lhs]:
        """Parse an assignment target if one starts here and is followed by '='."""
        save = self.cur.pos
        t = self.cur.peek()
        try:
            if t.kind == "[":
                self.cur.next()
                loc = self._location()
                self.cur.expect("]")
                lhs = ast.Lhs(loc, heap=True)
            elif t.kind in ("ident", "this"):
                base = self._location1()
                lhs = ast.Lhs(base, heap=False)
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

    def _assign_or_call(self) -> ast.Stmt:
        t = self.cur.peek()
        first = self._try_lhs()
        if first is None:
            # must be a bare call statement
            call = self._expr()
            if not isinstance(call, ast.CallExpr):
                raise ParseError(f"expected a statement, found {t.text!r}", t.span)
            self.cur.expect(";")
            return ast.CallStmt(call, span=t.span)
        targets = [first]
        while True:
            nxt = self._try_lhs()
            if nxt is None:
                break
            targets.append(nxt)
        value = self._expr()
        self.cur.expect(";")
        return ast.AssignStmt(tuple(targets), value, span=t.span)

    # conditions

    def _cond(self) -> ast.Cond:
        left = self._cond_and()
        while self.cur.at("||"):
            self.cur.next()
            left = ast.OrCond(left, self._cond_and())
        return left

    def _cond_and(self) -> ast.Cond:
        left = self._cond_atom()
        while self.cur.at("&&"):
            self.cur.next()
            left = ast.AndCond(left, self._cond_atom())
        return left

    def _cond_atom(self) -> ast.Cond:
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
        return ast.CmpCond(op.kind, left, right)

    # expressions

    def _expr(self) -> ast.Expr:
        left = self._exp_term()
        while self.cur.at("+", "-"):
            t = self.cur.next()
            left = ast.BinExpr(t.kind, left, self._exp_term())
        return left

    def _exp_term(self) -> ast.Expr:
        left = self._exp_unary()
        while self.cur.at("*"):
            self.cur.next()
            left = ast.BinExpr("*", left, self._exp_unary())
        return left

    def _exp_unary(self) -> ast.Expr:
        if self.cur.at("-"):
            self.cur.next()
            return ast.NegExpr(self._exp_unary())
        return self._exp_primary()

    def _exp_primary(self) -> ast.Expr:
        t = self.cur.peek()
        if t.kind == "int":
            self.cur.next()
            return ast.IntExpr(t.value)
        if t.kind in ("null", "nil"):
            self.cur.next()
            return ast.NullExpr()
        if t.kind == "(":
            self.cur.next()
            e = self._expr()
            self.cur.expect(")")
            return e
        if t.kind == "[":
            self.cur.next()
            loc = self._location()
            self.cur.expect("]")
            return ast.MemReadExpr(loc)
        if t.kind == "this":
            self.cur.next()
            self.cur.expect(".")
            member = self.cur.expect("ident").text
            if self.cur.at("("):
                args = self._call_args()
                return ast.CallExpr("this", member, args)
            return ast.LocExpr(ast.FieldBase("this", member))
        if t.kind == "ident":
            name = self.cur.next().text
            if self.cur.at("("):
                args = self._call_args()
                return ast.CallExpr(None, name, args)
            if self.cur.at(".") and self.cur.peek(1).kind == "ident":
                self.cur.next()
                member = self.cur.next().text
                if self.cur.at("("):
                    args = self._call_args()
                    return ast.CallExpr(name, member, args)
                return ast.LocExpr(ast.FieldBase(name, member))
            return ast.LocExpr(ast.VarBase(name))
        raise ParseError(f"expected expression, found {t.text!r}", t.span)

    def _call_args(self) -> tuple[ast.Expr, ...]:
        self.cur.expect("(")
        args: list[ast.Expr] = []
        if not self.cur.at(")"):
            args.append(self._expr())
            while self.cur.at(","):
                self.cur.next()
                args.append(self._expr())
        self.cur.expect(")")
        return tuple(args)


def parse_program(text: str) -> ast.SourceProgram:
    """Tokenize and parse a whole source file."""
    return _ProgramParser(tokenize(text)).parse()


def program_formulas(p: ast.SourceProgram) -> list[fm.Formula]:
    """All formulas carried by a program (contracts, invariants, asserts)."""
    out: list[fm.Formula] = [d.pred.body for d in p.predicates]

    def from_block(b: ast.Block) -> None:
        for s in b.stmts:
            if isinstance(s, ast.AssertStmt):
                out.append(s.formula)
            elif isinstance(s, ast.WhileStmt):
                out.append(s.invariant)
                from_block(s.body)
            elif isinstance(s, ast.IfStmt):
                from_block(s.then_block)
                if s.else_block is not None:
                    from_block(s.else_block)
            elif isinstance(s, ast.BlockStmt):
                from_block(s.block)

    for _, m in p.all_methods():
        out.append(m.precondition)
        out.append(m.postcondition)
        from_block(m.body)
    return out
