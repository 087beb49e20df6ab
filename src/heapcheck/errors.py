"""Source spans and the exception hierarchy shared by all pipeline stages."""

from __future__ import annotations

from typing import NamedTuple


class Span(NamedTuple):
    """Half-open source region, 1-based lines and columns.

    Spans never participate in structural equality of terms;
    they exist for diagnostics only.
    """

    line: int = 0
    col: int = 0
    end_line: int = 0
    end_col: int = 0

    def __str__(self) -> str:
        if self.line == 0:
            return "?:?"
        return f"{self.line}:{self.col}"


NO_SPAN = Span()


class HeapcheckError(Exception):
    """Base for all diagnosable errors; carries a span into the input."""

    def __init__(self, message: str, span: Span = NO_SPAN):
        super().__init__(message)
        self.message = message
        self.span = span

    def __str__(self) -> str:
        return f"{self.span}: {self.message}"


class LexError(HeapcheckError):
    """Illegal character or unterminated annotation."""


class ParseError(HeapcheckError):
    """Program syntax error; carries the expected-token set."""

    def __init__(self, message: str, span: Span = NO_SPAN, expected: tuple[str, ...] = ()):
        super().__init__(message, span)
        self.expected = expected


class AssertionSyntaxError(HeapcheckError):
    """Bad formula text inside an @ ... @ annotation."""


class TermSyntaxError(HeapcheckError):
    """Malformed term text."""


class TermShapeError(HeapcheckError):
    """Syntactically valid term violating the statement/expression shapes."""


class UnknownPredicateError(HeapcheckError):
    """Predicate application whose name has no definition."""


class UnsupportedFormulaError(HeapcheckError):
    """Formula outside the symbolic-heap fragment (e.g. spatial conjunction)."""
