import random

import pytest

from heapcheck import astnodes as ast
from heapcheck import formula as fm
from heapcheck.astnodes import pretty_program
from heapcheck.errors import AssertionSyntaxError, ParseError
from heapcheck.parser import parse_assertion, parse_program


def first_stmt(body_src: str) -> ast.Stmt:
    p = parse_program("int f() {\n" + body_src + "\n}")
    return p.functions[0].body.stmts[0]


def test_field_assignment_example():
    s = first_stmt("object1.next=object1;")
    assert s == ast.AssignStmt(
        (ast.Lhs(ast.FieldBase("object1", "next"), heap=False),),
        ast.LocExpr(ast.VarBase("object1")),
    )


def test_empty_class():
    p = parse_program("class C { }")
    assert p.classes[0] == ast.ClassDecl("C", (), ())


def test_mem_read_with_offset_example():
    s = first_stmt("value = [object1.ref + 0];")
    assert s == ast.AssignStmt(
        (ast.Lhs(ast.VarBase("value"), heap=False),),
        ast.MemReadExpr(ast.Location(ast.FieldBase("object1", "ref"), 0)),
    )


def test_negative_offset():
    s = first_stmt("value = [x - 3];")
    assert s.value == ast.MemReadExpr(ast.Location(ast.VarBase("x"), -3))


@pytest.mark.parametrize("a,b,c", [("a", "b", "c"), ("p", "q", "r"), ("u1", "u2", "u3")])
def test_multiplication_precedence(a, b, c):
    lhs = first_stmt(f"t = {a}+{b}*{c};")
    rhs = first_stmt(f"t = {a}+({b}*{c});")
    assert lhs == rhs


def test_chained_assignment_right_associative():
    s = first_stmt("a = b = 6;")
    assert isinstance(s, ast.AssignStmt)
    assert [t.target for t in s.targets] == [ast.VarBase("a"), ast.VarBase("b")]
    assert s.value == ast.IntExpr(6)


def test_chain_through_heap_lhs():
    s = first_stmt("[x] = y = 5;")
    assert s.targets[0].heap and not s.targets[1].heap


def test_condition_boolean_connectives():
    s = first_stmt("if (a < b && c != d || e == 1) { a = 1; }")
    assert isinstance(s, ast.IfStmt)
    assert isinstance(s.cond, ast.OrCond)
    assert isinstance(s.cond.left, ast.AndCond)


def test_while_with_invariant_and_default():
    p = parse_program(
        "int f() { while (x != null) @ x->5 @ { x = 1; } while (y > 0) { y = 0; } }"
    )
    w1, w2 = p.functions[0].body.stmts
    assert w1.invariant == fm.PointsTo(fm.Var("x"), fm.IntLit(5))
    assert w2.invariant == fm.TrueF()


def test_parse_error_has_span_inside_input():
    src = "int f() {\n  a = ;\n}"
    with pytest.raises(ParseError) as e:
        parse_program(src)
    span = e.value.span
    lines = src.splitlines()
    assert 1 <= span.line <= len(lines)
    assert 1 <= span.col <= len(lines[span.line - 1]) + 1


@pytest.mark.parametrize("src, message", [
    ("class A { int", "expected 'ident' but found '<eof>'"),
    ("class A { int x", "expected '(' but found '<eof>'"),
    ("class A {", "expected 'ident' but found '<eof>'"),
    ("int f(", "expected 'ident' but found '<eof>'"),
    ("int f() { p = x.next", "expected ';' but found '<eof>'"),
])
def test_truncated_program_is_a_parse_error(src, message):
    with pytest.raises(ParseError) as e:
        parse_program(src)
    assert (e.value.message, str(e.value.span)) == (message, "?:?")


def test_duplicate_method_rejected():
    with pytest.raises(ParseError):
        parse_program("class C { int m() {} int m() {} }")


def test_duplicate_field_rejected():
    with pytest.raises(ParseError):
        parse_program("class C { int a; int a; }")


def test_duplicate_param_rejected():
    with pytest.raises(ParseError):
        parse_program("int f(int a, int a) {}")


def test_this_receiver_and_calls():
    p = parse_program("class C { int m() { this.helper(1); obj.run(); go(); } }")
    calls = [s.call for s in p.classes[0].methods[0].body.stmts]
    assert [c.receiver for c in calls] == ["this", "obj", None]


def test_pred_declaration():
    p = parse_program("pred pair(a, b) := a->1 * b->2;")
    d = p.predicates[0].pred
    assert d.params == ("a", "b")
    assert isinstance(d.body, fm.Star)


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


# grammar-driven round trip ---------------------------------------------------


def _rand_program(rng: random.Random) -> ast.SourceProgram:
    def expr(depth=2) -> ast.Expr:
        r = rng.random()
        if depth <= 0 or r < 0.4:
            return rng.choice(
                [ast.IntExpr(rng.randint(0, 9)), ast.LocExpr(ast.VarBase(rng.choice("abxy")))]
            )
        if r < 0.55:
            return ast.BinExpr(rng.choice("+-*"), expr(depth - 1), expr(depth - 1))
        if r < 0.65:
            return ast.NegExpr(expr(depth - 1))
        if r < 0.8:
            return ast.MemReadExpr(ast.Location(ast.VarBase(rng.choice("xy")), rng.randint(-2, 2)))
        return ast.LocExpr(ast.FieldBase(rng.choice(["o", "this"]), rng.choice("fg")))

    def cond() -> ast.Cond:
        c: ast.Cond = ast.CmpCond(rng.choice(fm.CMP_OPS), expr(1), expr(1))
        if rng.random() < 0.3:
            c = ast.AndCond(c, ast.CmpCond(rng.choice(fm.CMP_OPS), expr(1), expr(1)))
        if rng.random() < 0.2:
            c = ast.OrCond(c, ast.CmpCond(rng.choice(fm.CMP_OPS), expr(1), expr(1)))
        return c

    def stmt(depth=2) -> ast.Stmt:
        r = rng.random()
        if depth <= 0 or r < 0.45:
            return ast.AssignStmt((ast.Lhs(ast.VarBase(rng.choice("abxy")), heap=False),), expr())
        if r < 0.55:
            return ast.NewStmt(ast.VarBase(rng.choice("xy")))
        if r < 0.62:
            return ast.DeleteStmt(ast.VarBase(rng.choice("xy")))
        if r < 0.72:
            return ast.IfStmt(cond(), block(depth - 1), block(depth - 1) if rng.random() < 0.5 else None)
        if r < 0.8:
            return ast.WhileStmt(cond(), fm.TrueF(), block(depth - 1))
        if r < 0.9:
            return ast.CallStmt(ast.CallExpr(None, "helper", (expr(1),)))
        return ast.BlockStmt(block(depth - 1))

    def block(depth=2) -> ast.Block:
        return ast.Block(tuple(stmt(depth) for _ in range(rng.randint(0, 3))))

    fns = tuple(
        ast.MethodDecl(f"f{i}", "int", (("a", "int"),), fm.TrueF(), block(), fm.TrueF())
        for i in range(rng.randint(1, 2))
    )
    classes = tuple(
        ast.ClassDecl(f"K{i}", (("val", "int"),), ()) for i in range(rng.randint(0, 1))
    )
    return ast.SourceProgram(classes, fns, ())


def test_pretty_print_roundtrip_property():
    rng = random.Random(7)
    for _ in range(200):
        prog = _rand_program(rng)
        text = pretty_program(prog)
        again = parse_program(text)
        assert again == prog, text


def test_long_walk_parses():
    from test_symexec import walk_source

    # the arity check once recursed per chain link and ran out of stack here
    program = parse_program(walk_source(600))
    assert [m.name for _, m in program.all_methods()] == ["walk600"]
