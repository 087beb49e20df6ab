"""Tokenizer for source files and for assertion text inside annotations."""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import LexError, Span

RESERVED = {
    "class", "new", "delete", "if", "else", "while", "this", "pred",
    "null", "nil", "exists", "emp", "true", "false", "object",
}


class Token(NamedTuple):
    kind: str  # "ident", "int", "annot", a reserved word, or a punctuation literal
    text: str
    span: Span
    value: int = 0

    def __repr__(self) -> str:
        return f"Token({self.kind!r}, {self.text!r})"


# One alternative per token class, tried in order; all but whitespace and
# comments in the group, and the last takes any character, an error.  '$'
# starts internally generated symbols (chain links, skolems); accepting it
# keeps pretty-printed output re-parseable.  A digit run is exactly what int()
# reads (\d is str.isdecimal).  A word may go on with any \w character
# (str.isalnum), but must start with a letter: the second word class catches
# the non-ASCII starts, and one that is no letter, such as '²', is an error.
_OPS = ("==", "!=", "<=", ">=", "&&", "||", "->", ":=", *"{}()[];,.=<>+-*:")
_TOKEN = re.compile(
    r"""[ \t\r\n]+|//[^\n]*|/\*.*?\*/
      |([A-Za-z_$][\w$?]*
      |%s|[%s]
      |\d+
      |@[^@]*@
      |'(?:\\.|[^'\\])*'
      |[^\W\d_][\w$?]*
      |.)""" % ("|".join(map(re.escape, _OPS[:8])), re.escape("".join(_OPS[8:]))),
    re.VERBOSE | re.DOTALL,
)
# the kind of a punctuation or reserved word, and of a word by its first character
_KINDS = dict.fromkeys("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$", "ident")
_KINDS.update(dict.fromkeys("0123456789", "int"))
_KINDS.update((w, w) for w in (*RESERVED, *_OPS))
# the hot paths build records with tuple.__new__, under half the cost of a class call
_new = tuple.__new__
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_UNTERMINATED = {
    "/": "unterminated comment",
    "@": "unterminated '@' annotation",
    "'": "unterminated quoted atom",
}


def tokenize(text: str, base_line: int = 1, base_col: int = 1) -> list[Token]:
    """Lex source text; ``@ ... @`` segments become single raw 'annot' tokens.

    base_line/base_col shift reported positions, so assertion text extracted
    from an annotation can be re-lexed with its original coordinates.
    """
    toks: list[Token] = []
    line, line_start = base_line, -base_col  # the column of offset i is i - line_start
    for m in _TOKEN.finditer(text):
        word = m.group(1)
        if word is None:  # whitespace or a comment
            skip = m.group()
            if "\n" in skip:
                line += skip.count("\n")
                line_start = m.start() + skip.rindex("\n")
            continue
        start, end = m.span()
        first_line, col = line, start - line_start
        if "\n" in word:  # an annotation or a quoted atom
            line += word.count("\n")
            line_start = start + word.rindex("\n")
        kind = _KINDS.get(word) or _KINDS.get(word[0]) or _rare_kind(word)
        value, span = 0, _new(Span, (line, col, line, col + end - start))
        if kind == "int":
            try:
                value = int(word)
            except ValueError:  # more digits than int() converts
                raise LexError("integer literal too long", span) from None
        elif kind == "annot":
            # the span starts after the opening '@' and ends after the closing one
            word, span = word[1:-1], Span(first_line, col + 1, line, end - line_start)
        elif kind == "atomq":
            # the span marks the opening quote only
            word, span = _ESCAPE.sub(r"\1", word[1:-1]), Span(first_line, col, first_line, col + 1)
        elif kind == "bad":
            ch = word[0]
            if ch in "@'" or ch == "/" and text.startswith("/*", start):
                raise LexError(_UNTERMINATED[ch], Span(line, col, line, col + 1))
            raise LexError(f"illegal character {ch!r}", Span(line, col, line, col + 1))
        toks.append(_new(Token, (kind, word, span, value)))
    return toks


def scan(text: str) -> tuple[list[str], list[str]]:
    """The texts and kinds of the tokens, by one ``findall``: 'bad' for a
    character ``tokenize`` rejects, and a quoted atom's text is the name it
    quotes.  An over-long digit run is an 'int' here; ``int()`` rejects it."""
    found = [w for w in _TOKEN.findall(text) if w]
    get = _KINDS.get
    kinds = [get(w) or get(w[0]) or _rare_kind(w) for w in found]
    if "atomq" in kinds:
        found = [_ESCAPE.sub(r"\1", w[1:-1]) if k == "atomq" else w for w, k in zip(found, kinds)]
    return found, kinds


def _rare_kind(w: str) -> str:
    if len(w) > 1 and w[0] in "'@":
        return "atomq" if w[0] == "'" else "annot"
    return "ident" if w[0].isalpha() else "int" if w[0].isdecimal() else "bad"
