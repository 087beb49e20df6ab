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


# One alternative per token class, tried in order at each position; 'bad'
# takes any character the others refuse, so every position matches.  '$'
# starts internally generated symbols (chain links, skolems); accepting it
# keeps pretty-printed output re-parseable.  A digit run is exactly what int()
# reads (\d is str.isdecimal).  A word may go on with any \w character
# (str.isalnum), but must start with a letter: 'uword' catches the non-ASCII
# starts, and one that is no letter, such as '²', is an illegal character.
_TOKEN = re.compile(
    r"""(?P<skip>[ \t\r\n]+|//[^\n]*|/\*.*?\*/)
      |(?P<word>[A-Za-z_$][\w$?]*)
      |(?P<op>==|!=|<=|>=|&&|\|\||->|:=|[{}()\[\];,.=<>+\-*:])
      |(?P<int>\d+)
      |(?P<annot>@[^@]*@)
      |(?P<atomq>'(?:\\.|[^'\\])*')
      |(?P<uword>[^\W\d_][\w$?]*)
      |(?P<bad>.)""",
    re.VERBOSE | re.DOTALL,
)
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
        group = m.lastgroup
        if group == "skip":
            word = m.group()
            if "\n" in word:
                line += word.count("\n")
                line_start = m.start() + word.rindex("\n")
            continue
        start, end = m.span()
        word = text[start:end]
        first_line, col = line, start - line_start
        if "\n" in word:  # an annotation or a quoted atom
            line += word.count("\n")
            line_start = start + word.rindex("\n")
        value = 0
        if group == "word" or group == "uword" and word[0].isalpha():
            kind = word if word in RESERVED else "ident"
        elif group == "op":
            kind = word
        elif group == "int":
            kind = "int"
            try:
                value = int(word)
            except ValueError:  # more digits than int() converts
                span = Span(line, col, line, col + len(word))
                raise LexError("integer literal too long", span) from None
        elif group == "annot":
            # the span starts after the opening '@' and ends after the closing one
            span = Span(first_line, col + 1, line, end - line_start)
            toks.append(Token("annot", word[1:-1], span))
            continue
        elif group == "atomq":
            # the span marks the opening quote only
            span = Span(first_line, col, first_line, col + 1)
            toks.append(Token("atomq", _ESCAPE.sub(r"\1", word[1:-1]), span))
            continue
        else:
            ch = word[0]
            if ch in "@'" or ch == "/" and text.startswith("/*", start):
                raise LexError(_UNTERMINATED[ch], Span(line, col, line, col + 1))
            raise LexError(f"illegal character {ch!r}", Span(line, col, line, col + 1))
        span = _new(Span, (line, col, line, col + end - start))
        toks.append(_new(Token, (kind, word, span, value)))
    return toks
