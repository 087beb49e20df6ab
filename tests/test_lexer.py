from pathlib import Path

import pytest

from heapcheck.errors import LexError
from heapcheck.lexer import tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)]


def test_new_call_tokens():
    assert kinds("new(x)") == ["new", "(", "ident", ")"]


def test_empty_input_is_empty_stream():
    assert tokenize("") == []


def test_annotation_captured_raw():
    toks = tokenize("int f() @ a<10 @ {}")
    annots = [t for t in toks if t.kind == "annot"]
    assert len(annots) == 1
    assert annots[0].text.strip() == "a<10"


def test_annotation_span_points_into_input():
    toks = tokenize("@ a<10 @")
    annot = toks[0]
    assert annot.span.line == 1
    assert annot.span.col > 1


def test_unterminated_annotation():
    with pytest.raises(LexError) as e:
        tokenize("int f() @ a<10")
    assert e.value.span.line == 1


def test_illegal_character():
    with pytest.raises(LexError) as e:
        tokenize("a = #;")
    assert e.value.span.col == 5


def test_multi_char_operators():
    assert kinds("a == b != c <= d >= e && f || g -> h") == [
        "ident", "==", "ident", "!=", "ident", "<=", "ident", ">=",
        "ident", "&&", "ident", "||", "ident", "->", "ident",
    ]


def test_comments_skipped():
    assert kinds("a // comment\n b /* c */ d") == ["ident", "ident", "ident"]


def test_line_and_column_tracking():
    toks = tokenize("a\n  bb")
    assert (toks[0].span.line, toks[0].span.col) == (1, 1)
    assert (toks[1].span.line, toks[1].span.col) == (2, 3)


def test_reserved_words_have_own_kinds():
    assert kinds("class while null nil emp exists") == [
        "class", "while", "null", "nil", "emp", "exists",
    ]


def test_quoted_atom_missing_is_error():
    # single quotes only appear in term files; the lexer must not accept a
    # dangling quote silently
    with pytest.raises(LexError):
        tokenize("a'")


# -- token and error table, recorded before the lexer became one regex -------

TOKEN_TABLE = [
    ('class new delete if else while this pred\nnull nil exists emp true false object', 1, 1, [
        ('class', 'class', (1, 1, 1, 6), 0), ('new', 'new', (1, 7, 1, 10), 0),
        ('delete', 'delete', (1, 11, 1, 17), 0), ('if', 'if', (1, 18, 1, 20), 0),
        ('else', 'else', (1, 21, 1, 25), 0), ('while', 'while', (1, 26, 1, 31), 0),
        ('this', 'this', (1, 32, 1, 36), 0), ('pred', 'pred', (1, 37, 1, 41), 0),
        ('null', 'null', (2, 1, 2, 5), 0), ('nil', 'nil', (2, 6, 2, 9), 0),
        ('exists', 'exists', (2, 10, 2, 16), 0), ('emp', 'emp', (2, 17, 2, 20), 0),
        ('true', 'true', (2, 21, 2, 25), 0), ('false', 'false', (2, 26, 2, 31), 0),
        ('object', 'object', (2, 32, 2, 38), 0)]),
    ('foo _x $e1 a?b Ab9 12 007 == != <= >= && || -> := {}()[];,.=<>+-*:', 1, 1, [
        ('ident', 'foo', (1, 1, 1, 4), 0), ('ident', '_x', (1, 5, 1, 7), 0),
        ('ident', '$e1', (1, 8, 1, 11), 0), ('ident', 'a?b', (1, 12, 1, 15), 0),
        ('ident', 'Ab9', (1, 16, 1, 19), 0), ('int', '12', (1, 20, 1, 22), 12),
        ('int', '007', (1, 23, 1, 26), 7), ('==', '==', (1, 27, 1, 29), 0),
        ('!=', '!=', (1, 30, 1, 32), 0), ('<=', '<=', (1, 33, 1, 35), 0),
        ('>=', '>=', (1, 36, 1, 38), 0), ('&&', '&&', (1, 39, 1, 41), 0),
        ('||', '||', (1, 42, 1, 44), 0), ('->', '->', (1, 45, 1, 47), 0),
        (':=', ':=', (1, 48, 1, 50), 0), ('{', '{', (1, 51, 1, 52), 0),
        ('}', '}', (1, 52, 1, 53), 0), ('(', '(', (1, 53, 1, 54), 0),
        (')', ')', (1, 54, 1, 55), 0), ('[', '[', (1, 55, 1, 56), 0),
        (']', ']', (1, 56, 1, 57), 0), (';', ';', (1, 57, 1, 58), 0),
        (',', ',', (1, 58, 1, 59), 0), ('.', '.', (1, 59, 1, 60), 0),
        ('=', '=', (1, 60, 1, 61), 0), ('<', '<', (1, 61, 1, 62), 0),
        ('>', '>', (1, 62, 1, 63), 0), ('+', '+', (1, 63, 1, 64), 0),
        ('-', '-', (1, 64, 1, 65), 0), ('*', '*', (1, 65, 1, 66), 0),
        (':', ':', (1, 66, 1, 67), 0)]),
    ('a /* one\n two */ b // tail\nc @ p->v\n  * q->w @ d', 1, 1, [
        ('ident', 'a', (1, 1, 1, 2), 0), ('ident', 'b', (2, 9, 2, 10), 0),
        ('ident', 'c', (3, 1, 3, 2), 0), ('annot', ' p->v\n  * q->w ', (3, 4, 4, 11), 0),
        ('ident', 'd', (4, 12, 4, 13), 0)]),
    ("'it\\'s' 'a\\\\b' '' 'X'", 1, 1, [
        ('atomq', "it's", (1, 1, 1, 2), 0), ('atomq', 'a\\b', (1, 9, 1, 10), 0),
        ('atomq', '', (1, 16, 1, 17), 0), ('atomq', 'X', (1, 19, 1, 20), 0)]),
    ("x\n  y @ a<10\n@ 'q'", 5, 10, [
        ('ident', 'x', (5, 10, 5, 11), 0), ('ident', 'y', (6, 3, 6, 4), 0),
        ('annot', ' a<10\n', (6, 6, 7, 2), 0), ('atomq', 'q', (7, 3, 7, 4), 0)]),
]

LEX_ERROR_TABLE = [
    ('a = #;', 1, 1, "illegal character '#'", (1, 5, 1, 6)),
    ('a\n  /* open\n x', 1, 1, 'unterminated comment', (2, 3, 2, 4)),
    ('int f() @ a<10', 1, 1, "unterminated '@' annotation", (1, 9, 1, 10)),
    ("f('abc", 1, 1, 'unterminated quoted atom', (1, 3, 1, 4)),
    ("b '\\", 1, 1, 'unterminated quoted atom', (1, 3, 1, 4)),
    ('ok\n #', 3, 7, "illegal character '#'", (4, 2, 4, 3)),
    ('\n\n  @ x', 2, 4, "unterminated '@' annotation", (4, 3, 4, 4)),
    ('/', 1, 1, "illegal character '/'", (1, 1, 1, 2)),
]


def _span(s):
    return (s.line, s.col, s.end_line, s.end_col)


@pytest.mark.parametrize("text, base_line, base_col, expected", TOKEN_TABLE)
def test_token_table(text, base_line, base_col, expected):
    got = [(t.kind, t.text, _span(t.span), t.value) for t in tokenize(text, base_line, base_col)]
    assert got == expected


@pytest.mark.parametrize("text, base_line, base_col, message, span", LEX_ERROR_TABLE)
def test_lex_error_table(text, base_line, base_col, message, span):
    with pytest.raises(LexError) as e:
        tokenize(text, base_line, base_col)
    assert e.value.message == message
    assert _span(e.value.span) == span


def _source_slice(lines, span):
    return lines[span.line - 1][span.col - 1 : span.end_col - 1]


def test_single_line_spans_slice_the_token_text():
    data = Path(__file__).resolve().parent / "data"
    for path in sorted(data.glob("*")):
        if not path.is_file():
            continue
        # '|-' separates the sides of a query and is no token of its own
        source = path.read_text(encoding="utf-8").replace("|-", "  ")
        lines = source.split("\n")
        toks = tokenize(source)
        for annot in [t for t in toks if t.kind == "annot"]:
            # an annotation's span runs past its closing '@'
            if annot.span.line == annot.span.end_line:
                assert _source_slice(lines, annot.span) == annot.text + "@", path.name
            toks += tokenize(annot.text, annot.span.line, annot.span.col)
        checked = 0
        for t in toks:
            if t.kind in ("annot", "atomq") or t.span.line != t.span.end_line:
                continue
            assert _source_slice(lines, t.span) == t.text, (path.name, t)
            checked += 1
        assert checked > 0, path.name


def test_digit_run_is_what_int_reads():
    # '²' passes str.isdigit but not int(); it ends a digit run and is refused
    with pytest.raises(LexError) as e:
        tokenize("x = 2²;")
    assert (e.value.message, _span(e.value.span)) == ("illegal character '²'", (1, 6, 1, 7))
    for text in ("²", "½", "Ⅻ"):
        with pytest.raises(LexError) as e:
            tokenize(text)
        assert e.value.message == f"illegal character {text!r}"
    # other decimal digits read as numbers; letters start words and any
    # alphanumeric character goes on with one
    assert [(t.kind, t.value) for t in tokenize("٣7")] == [("int", 37)]
    assert [t.text for t in tokenize("λx x² y½ zⅫ")] == ["λx", "x²", "y½", "zⅫ"]


def test_integer_literal_longer_than_int_reads():
    with pytest.raises(LexError) as e:
        tokenize("a = " + "9" * 5000)
    assert (e.value.message, _span(e.value.span)) == ("integer literal too long", (1, 5, 1, 5005))
