import random
import re

import pytest

from conftest import DATA, data_text, rand_term

from heapcheck import termir as tir
from heapcheck.errors import NO_SPAN, Span, TermShapeError, TermSyntaxError
from heapcheck.lexer import tokenize
from heapcheck.parser import assertion_term, parse_program

PAPER_TERM = (
    "function(f, int, [param(a,int), param(b,int)], "
    "[assert(le(a,10)), assign(id,2), assign(a,1), assign(b,6), "
    "assert(a->5 * b->c * c->object(myClass1,15))])"
)


def toks(text: str) -> list[str]:
    return re.findall(r"->|\|\||&&|[A-Za-z_][A-Za-z0-9_]*|\d+|[^\sA-Za-z0-9_]", text)


def test_lower_paper_function_token_for_token():
    program = parse_program(data_text("paper_fn.oc"))
    term = tir.lower_program(program)
    assert toks(tir.emit_text(term)) == toks(PAPER_TERM)


def test_expression_operator_becomes_functor():
    program = parse_program("int f() { j = i+7; }")
    term = tir.lower_program(program)
    assert "assign(j, add(i, 7))" in tir.emit_text(term)


def test_negative_offset_uses_minus():
    program = parse_program("int f() { v = [x - 3]; }")
    text = tir.emit_text(tir.lower_program(program))
    assert "mem(offset(x, minus(0, 3)))" in text


def test_emit_examples():
    assert tir.emit_text(tir.comp("add", tir.Atom("i"), tir.Int(7))) == "add(i, 7)"
    assert tir.emit_text(tir.Int(0)) == "0"
    assert tir.emit_text(tir.TList(())) == "[]"


def test_emit_quotes_non_lowercase_atoms():
    assert tir.emit_text(tir.Atom("MyClass")) == "'MyClass'"
    assert tir.emit_text(tir.Atom("it's")) == "'it\\'s'"
    assert tir.parse_term("'MyClass'") == tir.Atom("MyClass")


def test_parse_examples():
    assert tir.parse_term("new(x)") == tir.comp("new", tir.Atom("x"))
    ok = tir.parse_term("ite(lt(a,b), [assign(a,1)])")
    assert ok.functor == "ite" and len(ok.args) == 2
    with pytest.raises(TermShapeError):
        tir.check_shape(tir.parse_term("funcall(f, [1,2,3], extra)"))


def test_shape_errors():
    for bad in [
        "ite(lt(a,b), [x], [y], [z])",
        "new(offset(x,1))",
        "assign(1, 2)",
        "while(lt(a,b), [ ], [ ])",
        "offset(x, minus(1, 2))",
    ]:
        with pytest.raises(TermShapeError):
            tir.check_shape(tir.parse_term(bad))


def test_syntax_errors():
    for bad in ["f(", "f(a,)", "", "f(a)) ", "[a,]"]:
        with pytest.raises(TermSyntaxError):
            tir.parse_term(bad)


# term text, the error's message and its span (line, column, end line, end column)
TERM_SYNTAX_ERRORS = [
    ("f(", "expected term, found '<eof>'", (1, 2, 1, 3)),
    ("f(a,)", "expected term, found ')'", (1, 5, 1, 6)),
    ("", "empty term text", (0, 0, 0, 0)),
    ("f(a)) ", "unexpected ')' after term", (1, 5, 1, 6)),
    ("[a,]", "expected term, found ']'", (1, 4, 1, 5)),
    ("x -> y -> z", "'->' does not chain", (1, 11, 1, 12)),
    ("a->b * c->d->e", "'->' does not chain", (1, 14, 1, 15)),
    ("f(a b)", "expected ')', found 'b'", (1, 5, 1, 6)),
    ("'abc", "unterminated quoted atom", (1, 1, 1, 2)),
    ("@x", "unterminated '@' annotation", (1, 1, 1, 2)),
    ("x /* c", "unterminated comment", (1, 3, 1, 4)),
    ("x # y", "illegal character '#'", (1, 3, 1, 4)),
    ("f(²)", "illegal character '²'", (1, 3, 1, 4)),
    ("9" * 5000, "integer literal too long", (1, 1, 1, 5001)),
    ("g(1,\n  " + "9" * 5000 + ")", "integer literal too long", (2, 3, 2, 5003)),
    ("f(a) # " + "9" * 5000, "illegal character '#'", (1, 6, 1, 7)),
    ("oa(x y)", "expected '.', found 'y'", (1, 6, 1, 7)),
    ("oa(x.)", "expected name, found ')'", (1, 6, 1, 7)),
    ("f(a).g", "unexpected 'g' after term", (1, 6, 1, 7)),
    ("f(a:)", "expected term, found ')'", (1, 5, 1, 6)),
    ("f('')", "expected term, found ''", (1, 3, 1, 4)),
    ("f('a\\'b' c)", "expected ')', found 'c'", (1, 10, 1, 11)),
    ("- x", "expected term, found '-'", (1, 1, 1, 2)),
    ("[a", "expected ']', found '<eof>'", (1, 2, 1, 3)),
    ("f(a\n,\n", "expected term, found '<eof>'", (2, 1, 2, 2)),
    ("f(x,\n  @y@)", "expected term, found 'y'", (2, 4, 2, 6)),
    ("f(x) ]", "unexpected ']' after term", (1, 6, 1, 7)),
    ("f(x, y: )", "expected term, found ')'", (1, 9, 1, 10)),
    ("(a", "expected ')', found '<eof>'", (1, 2, 1, 3)),
]


@pytest.mark.parametrize("text, message, span", TERM_SYNTAX_ERRORS,
                         ids=[repr(row[0][:12]) for row in TERM_SYNTAX_ERRORS])
def test_term_syntax_errors_keep_text_and_span(text, message, span):
    # the term reader asks the lexer for spans only on an error, and a
    # lexical error anywhere in the text comes before a syntax error
    with pytest.raises(TermSyntaxError) as info:
        tir.parse_term(text)
    assert (info.value.message, tuple(info.value.span)) == (message, span)


def test_term_file_terminator():
    t = tir.comp("new", tir.Atom("x"))
    assert tir.emit_term_file(t) == "new(x).\n"
    assert tir.parse_term("new(x).") == t
    assert tir.parse_term("new(x).\n") == t


def test_roundtrip_property():
    rng = random.Random(23)
    for _ in range(500):
        t = rand_term(rng)
        text = tir.emit_text(t)
        assert tir.parse_term(text) == t, text


def test_term_key_is_equal_exactly_for_equal_terms():
    rng = random.Random(29)
    terms = [rand_term(rng) for _ in range(300)]
    for a, b in zip(terms, terms[1:] + terms[:1]):
        assert (tir.term_key(a) == tir.term_key(b)) == (a == b)
        assert tir.term_key(a) == tir.term_key(tir.parse_term(tir.emit_text(a)))
    # an atom and an int, or a list and a compound, do not share a key
    assert tir.term_key(tir.Atom("1")) != tir.term_key(tir.Int(1))
    assert tir.term_key(tir.TList((tir.Atom("a"),))) != tir.term_key(tir.comp("[", tir.Atom("a")))
    assert tir.term_key(tir.TList((tir.Atom("..."), tir.Int(0)))) != tir.term_key(tir.TList((tir.TList(()),)))


def test_lowering_total_on_parse_valid_programs():
    from test_parser import rand_program

    rng = random.Random(47)
    for _ in range(200):
        text, _ = rand_program(rng)
        term = tir.lower_program(parse_program(text))
        tir.check_shape(term)
        assert tir.parse_term(tir.emit_text(term)) == term


def test_formula_term_roundtrip():
    from heapcheck.parser import assertion_term, parse_assertion
    from heapcheck import formula as fm

    for text in (
        "a->5 * b->c * c->object(myClass1,15)",
        "x->a,b,c",
        "(s==e && emp) || exists t, v. s->object(node, v, t) * list(t, e)",
        "emp",
        "true",
        "x+1->(2*y)",
    ):
        f = parse_assertion(text)
        t = assertion_term(text)
        back = tir.term_to_formula(tir.parse_term(tir.emit_text(t)))
        assert back == f, text
        assert fm.normalize(back) == fm.normalize(f), text


def test_comparison_functors_bijective():
    assert tir.CMP_TO_FUNCTOR["<"] == "le"  # kept verbatim from the worked example
    assert len(set(tir.CMP_TO_FUNCTOR.values())) == 6
    for op, functor in tir.CMP_TO_FUNCTOR.items():
        assert tir.FUNCTOR_TO_CMP[functor] == op


def test_method_call_lowered_with_receiver_first():
    program = parse_program("class C { int m(int v) {} } int f() { o.m(3); }")
    text = tir.emit_text(tir.lower_program(program))
    assert "funcall(m, [o, 3])" in text
    assert "param(this, 'C')" in text


def test_chained_assignment_lowering_order():
    program = parse_program("int f() { a = b = 6; }")
    text = tir.emit_text(tir.lower_program(program))
    assert text.index("assign(b, 6)") < text.index("assign(a, b)")


def test_program_wrapper_for_multiple_items():
    program = parse_program("int f() {} int g() {}")
    t = tir.lower_program(program)
    assert isinstance(t, tir.Compound) and t.functor == "program"
    assert [fn.args[0].name for fn in tir.term_functions(t)] == ["f", "g"]
    # only a lone function is its own term; a lone class or predicate is not
    for text in ("class K { int v; }", "pred p(a) := a->1;"):
        t = tir.lower_program(parse_program(text))
        assert t.functor == "program" and len(t.args[0].items) == 1, text


def test_split_contracts():
    program = parse_program(data_text("paper_fn.oc"))
    fn = tir.term_functions(tir.lower_program(program))[0]
    pre, body, post = tir.split_contracts(fn)
    from heapcheck import formula as fm

    assert pre == fm.PureAtom("<", fm.Var("a"), fm.IntLit(10))
    assert len(body) == 3
    assert isinstance(post, fm.Star)


# -- syntax errors, recorded before the term parser became one loop ----------

TERM_ERROR_TABLE = [
    ('f(', "expected term, found '<eof>'", (1, 2, 1, 3)),
    ('f(a) g', "unexpected 'g' after term", (1, 6, 1, 7)),
    ('f(a', "expected ')', found '<eof>'", (1, 3, 1, 4)),
    ('[a, b', "expected ']', found '<eof>'", (1, 5, 1, 6)),
    # the chain error points at the token after the whole chain
    ('a -> b -> c * d', "'->' does not chain", (1, 13, 1, 14)),
    ('a -> b -> c', "'->' does not chain", (1, 11, 1, 12)),
    ('f(a -> b -> c, d)', "'->' does not chain", (1, 14, 1, 15)),
    ('oa(x y)', "expected '.', found 'y'", (1, 6, 1, 7)),
    ('oa(1.f)', "expected name, found '1'", (1, 4, 1, 5)),
    ('a * ', "expected term, found '<eof>'", (1, 3, 1, 4)),
    ('f(a).\n.', "unexpected '.' after term", (2, 1, 2, 2)),
    # a lexer error keeps its message and its span
    ('a # b', "illegal character '#'", (1, 3, 1, 4)),
    ('', 'empty term text', (0, 0, 0, 0)),
]


@pytest.mark.parametrize("text, message, span", TERM_ERROR_TABLE)
def test_term_syntax_error_table(text, message, span):
    with pytest.raises(TermSyntaxError) as e:
        tir.parse_term(text)
    s = e.value.span
    assert (e.value.message, (s.line, s.col, s.end_line, s.end_col)) == (message, span)



# -- formula shape errors along star/and/or/exists chains, recorded before the
# checker and the converter read a chain in a loop: (text, the one error that
# the load-time shape check and term_to_formula both give)

FORMULA_SHAPE_TABLE = [
    ('star(a->1, star(b->2))', 'TermShapeError: formula expected, found star(b->2)'),
    ('exists(x, exists(f(y), x->1))', 'TermShapeError: exists binder must be an atom'),
    ('exists(f(y), x->1)', 'TermShapeError: exists binder must be an atom'),
    ('exists(x)', 'TermShapeError: formula expected, found exists(x)'),
    ('star(a->1, exists(x, and(x->1, foo)))', 'TermShapeError: formula expected, found foo'),
    ('star(foo, star(bar, b->2))', 'TermShapeError: formula expected, found foo'),
    ('or(a->1, or(b->2, 3))', 'TermShapeError: formula expected, found 3'),
    ('exists(x, star(x->1, exists(y, pred(p, q))))', 'TermShapeError: pred: pred args must be a list'),
    ('star(a->1, star(b->2, c->3), d)', 'TermShapeError: formula expected, found star(a->1, b->2 * c->3, d)'),
    ('and(star(a->1, b), c->2)', 'TermShapeError: formula expected, found b'),
    ('exists(x, exists(y, star(x->oa(y.f), y->object(_, 1, v: 2))))', 'TermShapeError: record mixes positional and named components'),
    ('x->1 * exists(y, 2 * y->1)', 'TermShapeError: formula expected, found 2'),
]


def _error(fn) -> str:
    try:
        fn()
    except (TermShapeError, TermSyntaxError) as e:
        return f"{type(e).__name__}: {e.message}"
    return "ok"


@pytest.mark.parametrize("text, error", FORMULA_SHAPE_TABLE)
def test_formula_shape_error_table(text, error):
    assert _error(lambda: tir.check_shape(tir.parse_term(text))) == error
    assert _error(lambda: tir.term_to_formula(tir.parse_term(text))) == error


def test_empty_quoted_atom_is_a_syntax_error():
    for text, message in (("''", "expected term, found ''"), ("f('', a)", "expected term, found ''"),
                          ("''(a)", "expected term, found ''"), ("oa(''.f)", "expected name, found ''")):
        with pytest.raises(TermSyntaxError) as e:
            tir.parse_term(text)
        assert e.value.message == message


def test_parser_depth_is_one_frame_per_nesting_level():
    # the parent parser spent about six frames per level, so 300 levels failed
    nested = "f(" * 300 + "a" + ")" * 300
    t = tir.parse_term(nested)
    for _ in range(300):
        t = t.args[0]
    assert t == tir.Atom("a")
    # an infix chain costs no depth at all, and folds to the right
    chain = tir.parse_term(" * ".join(["a -> 1"] * 5000) + " || b")
    assert chain.functor == "or"
    left = chain.args[0]
    for _ in range(4999):
        assert left.functor == "star" and left.args[0] == tir.comp("pto", tir.Atom("a"), tir.Int(1))
        left = left.args[1]
    assert left == tir.comp("pto", tir.Atom("a"), tir.Int(1))


def test_emit_loops_down_long_chains():
    pto = tir.comp("pto", tir.Atom("x"), tir.Int(1))
    chain = pto
    for _ in range(4999):
        chain = tir.comp("star", pto, chain)
    assert tir.emit_text(chain) == " * ".join(["x->1"] * 5000)
    nest: tir.Term = tir.Atom("emp")
    for _ in range(5000):
        nest = tir.comp("exists", tir.Atom("v"), tir.TList((tir.Int(0), nest)))
    assert tir.emit_text(nest) == "exists(v, [0, " * 5000 + "emp" + "])" * 5000


def test_long_walk_term_text_round_trips():
    from test_symexec import walk_source

    text = tir.emit_term_file(tir.lower_program(parse_program(walk_source(256))))
    # compare texts: record equality recurses down the deep term
    assert tir.emit_term_file(tir.parse_term(text)) == text


# -- spans on statement terms --------------------------------------------------

SPAN_SOURCE = """\
int f(node x) @ x->1 @ {
  a = b = 6;
  if (a == 6) {
    while (b > 0) @ true @ {
      b = b - 1;
      { c = b; }
    }
  } else {
    g();
  }
  @ x->1 @;
}
@ x->1 @
class C { int m() { new(y); delete(y); } }
"""


def _term_spans(items) -> list:
    out = []
    for t in items:
        out.append(t.span)
        if isinstance(t, tir.TList):
            out += _term_spans(t.items)
        elif t.functor == "ite":
            for block in t.args[1:]:
                out += _term_spans(block.items)
        elif t.functor == "while":
            out += _term_spans(t.args[2].items)
    return out


# (source, function) -> spans of its statement terms, each as (line, col,
# end_line, end_col), in the order ``_term_spans`` walks them; an assignment
# chain gives one term per target, all with the statement's span
STATEMENT_SPANS = {
    ("append_copy.oc", "append_copy"): [
        (4, 3, 4, 5), (5, 3, 5, 5), (6, 3, 6, 5), (7, 3, 7, 5), (8, 3, 8, 6), (9, 3, 9, 5),
        (10, 3, 10, 5), (11, 3, 11, 6), (12, 3, 12, 5), (13, 3, 13, 5), (14, 3, 14, 6),
        (15, 3, 15, 5), (16, 3, 16, 5), (17, 3, 17, 6), (18, 3, 18, 5), (19, 3, 19, 5),
        (20, 3, 20, 6), (21, 3, 21, 5), (22, 3, 22, 5), (23, 3, 23, 6), (24, 3, 24, 5),
        (25, 3, 25, 5), (26, 3, 26, 4),
    ],
    ("append_destructive.oc", "append"): [
        (4, 3, 4, 4), (5, 3, 5, 4), (6, 3, 6, 4), (7, 3, 7, 6), (8, 3, 8, 4), (9, 3, 9, 4),
        (10, 3, 10, 4), (11, 3, 11, 4), (12, 3, 12, 5), (13, 3, 13, 4),
    ],
    # ten `y = y + 1;` a line, eleven columns apart
    ("arith.oc", "count"): [(line, 3 + 11 * i, line, 4 + 11 * i) for line in range(7, 57) for i in range(10)],
    ("arith.oc", "bump"): [(63, 3, 63, 4), (64, 3, 64, 4), (65, 3, 65, 4)],
    ("arith.oc", "mix"): [(72, 3, 72, 4), (73, 3, 73, 4), (74, 3, 74, 4), (75, 3, 75, 4)],
    ("ex1.oc", "f"): [(3, 3, 3, 6), (4, 3, 4, 6), (5, 3, 5, 9)],
    ("ex2.oc", "f"): [(3, 3, 3, 6), (4, 3, 4, 4), (5, 5, 5, 8), (6, 5, 6, 12), (8, 3, 8, 9)],
    ("ex3.oc", "f"): [(3, 3, 3, 6), (4, 3, 4, 10), (5, 3, 5, 8), (6, 3, 6, 9)],
    ("ex4.oc", "main"): [
        (3, 3, 3, 6), (4, 3, 4, 10), (5, 3, 5, 7), (6, 3, 6, 8), (7, 5, 7, 11), (8, 5, 8, 9),
        (10, 3, 10, 9),
    ],
    # one statement a line: a span covers the target name or the keyword
    ("list_ops.oc", "walk12"): [(n, 3, n, 5) for n in range(8, 17)] + [(n, 3, n, 6) for n in range(17, 20)],
    ("list_ops.oc", "copy6_free"): [(n, 3, n, 5) for n in range(26, 32)]
    + [(n, 3, n, 6) for n in range(32, 50)] + [(50, 3, 50, 4), (51, 3, 51, 9), (52, 3, 52, 9)],
    ("list_ops.oc", "walk10_leak"): [(n, 3, n, 5) for n in range(59, 68)]
    + [(68, 3, 68, 6), (69, 3, 69, 6), (70, 3, 70, 5)],
    ("list_ops.oc", "seg_walk"): [(79, 3, 79, 5), (80, 5, 80, 6), (81, 5, 81, 13)],
    ("list_ops.oc", "seg_nil"): [],
    ("paper_fn.oc", "f"): [(2, 3, 2, 5), (2, 9, 2, 10), (2, 14, 2, 15)],
    ("SPAN_SOURCE", "m"): [(14, 21, 14, 24), (14, 29, 14, 35)],
    ("SPAN_SOURCE", "f"): [
        (2, 3, 2, 4), (2, 3, 2, 4), (3, 3, 3, 5), (4, 5, 4, 10), (5, 7, 5, 8), (6, 7, 6, 8),
        (6, 9, 6, 10), (9, 5, 9, 6), (11, 4, 11, 11),
    ],
}


def test_statement_terms_carry_their_source_spans():
    sources = [(p.name, data_text(p.name)) for p in sorted(DATA.glob("*.oc"))]
    sources.append(("SPAN_SOURCE", SPAN_SOURCE))
    checked, seen = 0, []
    for name, text in sources:
        for fn in tir.term_functions(tir.lower_program(parse_program(text))):
            key = (name, fn.args[0].name)
            seen.append(key)
            assert fn.span == NO_SPAN
            _, stmts, _ = tir.split_contracts(fn)
            contracts = [t for t in fn.args[3].items if not any(t is s for s in stmts)]
            # a contract carries its annotation's span, one written for an
            # absent contract none (see the annotation span test below)
            assert all(t.span != NO_SPAN or t.args[0] == tir.Atom("true") for t in contracts)
            assert _term_spans(stmts) == STATEMENT_SPANS[key], key
            checked += len(STATEMENT_SPANS[key])
    assert seen == list(STATEMENT_SPANS)
    assert checked > 60


def test_span_source_covers_nested_blocks_and_chains():
    program = parse_program(SPAN_SOURCE)
    fn = tir.term_functions(tir.lower_program(program))[1]
    _, stmts, _ = tir.split_contracts(fn)
    assign_b, assign_a, ite, check = stmts
    assert (assign_b.span.line, assign_a.span.line) == (2, 2)
    assert ite.span.line == 3 and check.span.line == 11
    loop = ite.args[1].items[0]
    assert loop.functor == "while" and loop.span.line == 4
    assert [t.span.line for t in loop.args[2].items] == [5, 6]
    assert ite.args[2].items[0].span.line == 9
    # branch and loop-body lists carry no span; the invariant assert carries
    # its annotation's, which starts after the opening '@'
    parts = (ite.args[1], ite.args[2], loop.args[2])
    assert [t.span for t in parts] == [NO_SPAN] * 3
    assert loop.args[1].span == Span(4, 20, 4, 27)


def _asserts(items, out: list) -> list:
    """Every assert term under a statement list, loop invariants included;
    each is paired with whether an absent annotation may have written it."""
    for i, t in enumerate(items):
        if isinstance(t, tir.TList):
            _asserts(t.items, out)
        elif t.functor == "assert":
            out.append((t, i in (0, len(items) - 1)))
        elif t.functor == "ite":
            for block in t.args[1:]:
                _asserts(block.items, out)
        elif t.functor == "while":
            out.append((t.args[1], True))
            _asserts(t.args[2].items, out)
    return out


def test_annotation_terms_carry_their_token_spans():
    sources = [(p.name, data_text(p.name)) for p in sorted(DATA.glob("*.oc"))]
    sources.append(("SPAN_SOURCE", SPAN_SOURCE))
    spanned = 0
    for name, text in sources:
        annots = {t.span: t for t in tokenize(text) if t.kind == "annot"}
        pred_spans = [t.span for t in tokenize(text) if t.kind == "pred"]
        program = parse_program(text)
        assert [p.span for p in program.predicates] == pred_spans, name
        term = tir.lower_program(program)
        fields = tir.term_class_fields(term)
        found = []
        for fn in tir.term_functions(term):
            for a, may_be_absent in _asserts(fn.args[3].items, []):
                if a.span == NO_SPAN:
                    # only an absent contract or invariant is written unspanned
                    assert may_be_absent and a.args[0] == tir.Atom("true"), (name, a)
                    continue
                tok = annots[a.span]
                assert a.args[0] == assertion_term(tok.text, a.span.line, a.span.col, fields)
                found.append(a.span)
        assert sorted(found) == sorted(annots), name
        spanned += len(found) + len(pred_spans)
    assert spanned > 20


def test_term_spans_take_no_part_in_equality_or_text():
    span = Span(3, 4, 3, 9)
    pairs = [
        (tir.comp("new", tir.Atom("x"), span=span), tir.comp("new", tir.Atom("x"))),
        (tir.TList((tir.Atom("x"),), span), tir.TList((tir.Atom("x"),))),
    ]
    for with_span, without in pairs:
        assert with_span.span == span and without.span != span
        assert with_span == without
        assert hash(with_span) == hash(without)
        assert repr(with_span) == repr(without)
        assert tir.emit_text(with_span) == tir.emit_text(without)
    for text in [data_text(p.name) for p in sorted(DATA.glob("*.oc"))] + [SPAN_SOURCE]:
        term = tir.lower_program(parse_program(text))
        assert tir.parse_term(tir.emit_term_file(term)) == term
