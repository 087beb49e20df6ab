import random

import pytest

from heapcheck import formula as fm
from heapcheck.errors import AssertionSyntaxError, ParseError, UnknownPredicateError
from heapcheck.parser import parse_assertion, parse_program
from heapcheck.termir import CMP_TO_FUNCTOR, Atom, Int, Term, TList, comp, lower_program

A = Atom


def body_terms(body_src: str) -> tuple[Term, ...]:
    fn = lower_program(parse_program("int f() {\n" + body_src + "\n}"))
    return fn.args[3].items


def first_stmt(body_src: str) -> Term:
    return body_terms(body_src)[0]


def test_field_assignment_example():
    s = first_stmt("object1.next=object1;")
    assert s == comp("assign", comp("oa", A("object1"), A("next")), A("object1"))


def test_empty_class():
    p = parse_program("class C { }")
    assert p.classes[0] == comp("class", A("C"), TList(()), TList(()))


def test_mem_read_with_offset_example():
    s = first_stmt("value = [object1.ref + 0];")
    assert s == comp("assign", A("value"), comp("mem", comp("offset", comp("oa", A("object1"), A("ref")))))


def test_negative_offset():
    s = first_stmt("value = [x - 3];")
    assert s.args[1] == comp("mem", comp("offset", A("x"), comp("minus", Int(0), Int(3))))


@pytest.mark.parametrize("a,b,c", [("a", "b", "c"), ("p", "q", "r"), ("u1", "u2", "u3")])
def test_multiplication_precedence(a, b, c):
    lhs = first_stmt(f"t = {a}+{b}*{c};")
    rhs = first_stmt(f"t = {a}+({b}*{c});")
    assert lhs == rhs == comp("assign", A("t"), comp("add", A(a), comp("mul", A(b), A(c))))


def test_chained_assignment_right_associative():
    assert body_terms("a = b = 6;") == (
        comp("assign", A("b"), Int(6)),
        comp("assign", A("a"), A("b")),
    )


def test_chain_through_heap_lhs():
    assert body_terms("[x] = y = 5;") == (
        comp("assign", A("y"), Int(5)),
        comp("assign", comp("mem", comp("offset", A("x"))), A("y")),
    )


def test_condition_boolean_connectives():
    s = first_stmt("if (a < b && c != d || e == 1) { a = 1; }")
    both = comp("and", comp("le", A("a"), A("b")), comp("ne", A("c"), A("d")))
    cond = comp("or", both, comp("eq", A("e"), Int(1)))
    assert s == comp("ite", cond, TList((comp("assign", A("a"), Int(1)),)))


def test_while_with_invariant_and_default():
    w1, w2 = body_terms("while (x != null) @ x->5 @ { x = 1; } while (y > 0) { y = 0; }")
    assert w1.args[1] == comp("assert", comp("pto", A("x"), Int(5)))
    assert w2.args[1] == comp("assert", A("true"))


def test_parse_error_has_span_inside_input():
    src = "int f() {\n  a = ;\n}"
    with pytest.raises(ParseError) as e:
        parse_program(src)
    span = e.value.span
    lines = src.splitlines()
    assert 1 <= span.line <= len(lines)
    assert 1 <= span.col <= len(lines[span.line - 1]) + 1


# an input cut short is reported at its last token, as the term parser does
_TRUNCATED = [
    ("class A { int", "expected 'ident' but found '<eof>'", "1:11"),
    ("class A { int x", "expected '(' but found '<eof>'", "1:15"),
    ("class A {", "expected 'ident' but found '<eof>'", "1:9"),
    ("int f(", "expected 'ident' but found '<eof>'", "1:6"),
    ("int f() { p = x.next", "expected ';' but found '<eof>'", "1:17"),
]


@pytest.mark.parametrize("src, message, where", _TRUNCATED, ids=[f"{s}-{m}" for s, m, _ in _TRUNCATED])
def test_truncated_program_is_a_parse_error(src, message, where):
    with pytest.raises(ParseError) as e:
        parse_program(src)
    assert (e.value.message, str(e.value.span)) == (message, where)


@pytest.mark.parametrize("src, where", [
    ("void f(node x) @ x-> @ { }", "1:19"),
    ("void f(node x) @ x->1 * @ { }", "1:23"),
    ("void f(node x) @ emp @ { }\n@ list(x, @", "2:9"),
])
def test_truncated_annotation_is_reported_at_its_last_token(src, where):
    with pytest.raises(AssertionSyntaxError) as e:
        parse_program(src)
    assert (e.value.message, str(e.value.span)) == ("expected expression, found '<eof>'", where)


def test_duplicate_method_rejected():
    with pytest.raises(ParseError):
        parse_program("class C { int m() {} int m() {} }")


def test_duplicate_field_rejected():
    with pytest.raises(ParseError):
        parse_program("class C { int a; int a; }")


def test_duplicate_param_rejected():
    with pytest.raises(ParseError):
        parse_program("int f(int a, int a) {}")


# a repeated name is found in a set of the names read so far, so a long file
# parses in time linear in its length; the error points at the repeat
def test_a_repeated_function_name_ends_a_long_file():
    text = "".join(f"void f{i}() {{ }}\n" for i in range(5000))
    assert len(parse_program(text).functions) == 5000
    with pytest.raises(ParseError) as e:
        parse_program(text + "int f4999() { }\n")
    assert (e.value.message, str(e.value.span)) == ("duplicate function 'f4999'", "5001:1")


@pytest.mark.parametrize("src, message, span", [
    ("pred p(a) := a->1;\npred p(b) := b->2;", "duplicate predicate 'p'", "2:1"),
    ("class C {\n  int m() {}\n  void m() {}\n}", "duplicate method 'm' in class 'C'", "3:3"),
    ("class C {}\nclass C {}", "duplicate class 'C'", "2:1"),
])
def test_duplicate_names_are_reported_at_the_repeat(src, message, span):
    with pytest.raises(ParseError) as e:
        parse_program(src)
    assert (e.value.message, str(e.value.span)) == (message, span)


def test_this_receiver_and_calls():
    p = parse_program("class C { int m() { this.helper(1); obj.run(); go(); } }")
    calls = p.classes[0].args[2].items[0].args[3].items
    assert calls == (
        comp("funcall", A("helper"), TList((A("this"), Int(1)))),
        comp("funcall", A("run"), TList((A("obj"),))),
        comp("funcall", A("go")),
    )


def test_pred_declaration():
    p = parse_program("pred pair(a, b) := a->1 * b->2;")
    body = comp("star", comp("pto", A("a"), Int(1)), comp("pto", A("b"), Int(2)))
    assert p.predicates == (comp("pred", A("pair"), TList((A("a"), A("b"))), body),)


def test_pred_arity_error():
    with pytest.raises(AssertionSyntaxError):
        parse_program("pred one(a) := a->1;\nint f() @ one(1, 2) @ {}")
    # under a binder too, and of two bad uses the leftmost is reported
    src = (
        "pred one(a) := a->1;\npred two(a, b) := a->b;\n"
        "int f() @ exists v. x->v * (one(1, 2) || two(3)) @ {}"
    )
    with pytest.raises(AssertionSyntaxError) as e:
        parse_program(src)
    assert e.value.message.startswith("predicate 'one' used with 2 arguments")


ARITY_PREDS = "pred one(a) := a->1;\npred two(a, b) := a->b;\n"


# Annotations are checked once every predicate is known: free functions, then
# class methods, and per method its pre, its post, then its body in order.
@pytest.mark.parametrize("src, first", [
    ("class C { int m() @ one(1, 2) @ {} }\nint f() @ two(3) @ {}", "two"),
    ("int f() { @ one(1, 2) @; } @ two(3) @", "two"),
    ("int f() @ one(1, 2) @ {} @ two(3) @", "one"),
    ("int f() { while (x > 0) @ two(3) @ { @ one(1, 2) @; } }", "two"),
    ("int f() { if (x > 0) { @ two(3) @; } else { @ one(1, 2) @; } }", "two"),
    ("int f() { while (x > 0) @ one(1, 2) @ { } }", "one"),
])
def test_arity_errors_are_reported_in_program_order(src, first):
    with pytest.raises(AssertionSyntaxError) as e:
        parse_program(ARITY_PREDS + src)
    assert e.value.message.startswith(f"predicate '{first}' used with")


# The error points into the annotation holding the bad use, at the `pred`
# keyword of a definition holding one, or at the repeated field's name.
@pytest.mark.parametrize("src, error, span", [
    ("int f() { x = 1; @ one(1, 2) @; }", AssertionSyntaxError, "3:19"),
    ("int f() @ one(1, 2) @ {}", AssertionSyntaxError, "3:10"),
    ("int f() {} @ one(1, 2) @", AssertionSyntaxError, "3:13"),
    ("int f() {\n  while (x > 0) @ one(1, 2) @ { }\n}", AssertionSyntaxError, "4:18"),
    ("class C { int m() @ one(1, 2) @ {} }", AssertionSyntaxError, "3:20"),
    ("class C {\n  int a;\n  int a;\n}", ParseError, "5:7"),
    ("int f() { x = 1; @ x->1 || nosuch(x) @; }", UnknownPredicateError, "3:19"),
    ("int f() @ emp @ {} @ nosuch(1) @", UnknownPredicateError, "3:21"),
    ("pred bad(a) := one(a) * nosuch(a);", UnknownPredicateError, "3:1"),
])
def test_error_span_points_at_the_offending_token(src, error, span):
    with pytest.raises(error) as e:
        parse_program(ARITY_PREDS + src)
    assert str(e.value.span) == span


# assertion sub-parser -------------------------------------------------------


def test_paper_postcondition_shape():
    f = parse_assertion("a->5 * b->c * c->object(myClass1,15)")
    atoms = list(f.parts)
    assert [type(a) for a in atoms] == [fm.PointsTo] * 3
    assert atoms[2].val == fm.Record("myClass1", (("_0", fm.IntLit(15)),))


def test_emp_atom():
    assert parse_assertion("emp") == fm.Emp()


def test_chain_desugars_to_linked_nodes():
    f = parse_assertion("x->a,b,c")
    assert isinstance(f, fm.Exists)
    spine = fm.normalize(f)
    rendered = fm.pretty(spine)
    assert rendered.count("object(node,") == 3
    assert "nil" in rendered


def test_star_binds_tighter_than_and_than_or():
    f = parse_assertion("emp || x->1 && y->2 * z->3")
    assert isinstance(f, fm.Or)
    assert isinstance(f.parts[-1], fm.And)
    assert isinstance(f.parts[-1].parts[-1], fm.Star)


def test_exists_extends_right():
    f = parse_assertion("exists t. x->t * t->1")
    assert isinstance(f, fm.Exists)
    assert isinstance(f.body, fm.Star)


def test_assertion_syntax_error_span():
    with pytest.raises(AssertionSyntaxError) as e:
        parse_assertion("x-> * y", base_line=7)
    assert e.value.span.line == 7


def test_multiplication_needs_parens_in_assertions():
    f = parse_assertion("x->(2*3)")
    assert f == fm.PointsTo(fm.Var("x"), fm.ArithExpr("*", fm.IntLit(2), fm.IntLit(3)))


# generated programs --------------------------------------------------------

_ARITH = {"+": "add", "-": "sub", "*": "mul"}
_ATOM = 4  # binding strength of a literal, name, read or negation


def rand_program(rng: random.Random) -> tuple[str, Term]:
    """A random program over the statement and expression grammar: its
    source text and the term ``lower_program(parse_program(text))`` must
    equal.  A class may come before, between or after the functions in the
    text; the term lists classes first, and a lone function is its own term."""

    def expr(depth=2) -> tuple[int, str, Term]:
        """(binding strength, text, term); text is parenthesized by the caller."""
        r = rng.random()
        if depth <= 0 or r < 0.4:
            if rng.random() < 0.5:
                n = rng.randint(0, 9)
                return _ATOM, str(n), Int(n)
            v = rng.choice("abxy")
            return _ATOM, v, A(v)
        if r < 0.55:
            op = rng.choice("+-*")
            mine = 2 if op == "*" else 1
            left, right = expr(depth - 1), expr(depth - 1)
            text = f"{wrap(left, mine - 1)} {op} {wrap(right, mine)}"
            return mine, text, comp(_ARITH[op], left[2], right[2])
        if r < 0.65:
            operand = expr(depth - 1)
            return _ATOM, "-" + wrap(operand, 3), comp("sub", Int(0), operand[2])
        if r < 0.8:
            v, k = rng.choice("xy"), rng.randint(-2, 2)
            if k > 0:
                loc = comp("offset", A(v), Int(k))
            elif k < 0:
                loc = comp("offset", A(v), comp("minus", Int(0), Int(-k)))
            else:
                loc = comp("offset", A(v))
            return _ATOM, f"[{v} {'-' if k < 0 else '+'} {abs(k)}]", comp("mem", loc)
        o, f = rng.choice(["o", "this"]), rng.choice("fg")
        return _ATOM, f"{o}.{f}", comp("oa", A(o), A(f))

    def wrap(e: tuple[int, str, Term], level: int) -> str:
        return f"({e[1]})" if e[0] <= level else e[1]

    def cmp() -> tuple[str, Term]:
        op = rng.choice(fm.CMP_OPS)
        (_, ltext, left), (_, rtext, right) = expr(1), expr(1)
        return f"{ltext} {op} {rtext}", comp(CMP_TO_FUNCTOR[op], left, right)

    def cond() -> tuple[str, Term]:
        text, term = cmp()
        if rng.random() < 0.3:
            more = cmp()
            text, term = f"{text} && {more[0]}", comp("and", term, more[1])
        if rng.random() < 0.2:
            more = cmp()
            text, term = f"{text} || {more[0]}", comp("or", term, more[1])
        return text, term

    def stmt(depth=2) -> tuple[str, Term]:
        r = rng.random()
        if depth <= 0 or r < 0.45:
            v = rng.choice("abxy")
            _, text, term = expr()
            return f"{v} = {text};", comp("assign", A(v), term)
        if r < 0.62:
            kind = "new" if r < 0.55 else "delete"
            v = rng.choice("xy")
            return f"{kind}({v});", comp(kind, A(v))
        if r < 0.72:
            (ctext, cterm), (ttext, tterm) = cond(), block(depth - 1)
            if rng.random() < 0.5:
                etext, eterm = block(depth - 1)
                return f"if ({ctext}) {ttext} else {etext}", comp("ite", cterm, tterm, eterm)
            return f"if ({ctext}) {ttext}", comp("ite", cterm, tterm)
        if r < 0.8:
            (ctext, cterm), (btext, bterm) = cond(), block(depth - 1)
            return f"while ({ctext}) @ true @ {btext}", comp("while", cterm, comp("assert", A("true")), bterm)
        if r < 0.9:
            _, text, term = expr(1)
            return f"helper({text});", comp("funcall", A("helper"), TList((term,)))
        return block(depth - 1)

    def block(depth=2) -> tuple[str, TList]:
        stmts = [stmt(depth) for _ in range(rng.randint(0, 3))]
        text = "{\n" + "".join(f"{t}\n" for t, _ in stmts) + "}"
        return text, TList(tuple(term for _, term in stmts))

    functions = []
    for i in range(rng.randint(1, 2)):
        text, body = block()
        functions.append((
            f"int f{i}(int a) @ true @ {text} @ true @",
            comp("function", A(f"f{i}"), A("int"), TList((comp("param", A("a"), A("int")),)), body),
        ))
    classes = [
        (f"class K{i} {{ int val; }}", comp("class", A(f"K{i}"), TList((comp("field", A("val"), A("int")),)), TList(())))
        for i in range(rng.randint(0, 1))
    ]
    items = classes + functions
    # the class goes anywhere among the functions, which keep their order
    sources = [text for text, _ in functions]
    for text, _ in classes:
        sources.insert(rng.randint(0, len(sources)), text)
    if len(items) == 1:
        return sources[0], items[0][1]
    return "\n".join(sources) + "\n", comp("program", TList(tuple(term for _, term in items)))


def test_generated_programs_parse_to_their_terms():
    rng = random.Random(7)
    for _ in range(200):
        text, term = rand_program(rng)
        assert lower_program(parse_program(text)) == term, text


def test_long_walk_parses():
    from test_symexec import walk_source

    # the arity check once recursed per chain link and ran out of stack here
    program = parse_program(walk_source(600))
    assert (program.predicates, program.classes) == ((), ())
    assert [fn.args[0] for fn in program.functions] == [A("walk600")]
