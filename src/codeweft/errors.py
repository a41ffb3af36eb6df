"""Exception types shared across the toolkit."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .rast import SrcSpan


class CodeweftError(Exception):
    """Base class for all toolkit errors."""


class SourceError(CodeweftError):
    """An error anchored to a location in some source text.

    `source`, once set, names the file or URL and leads `str()`.
    """

    def __init__(self, message: str, span: Optional[SrcSpan] = None):
        self.span = span
        self.source: Optional[str] = None
        if span is not None:
            message = f"{message} (line {span.start_line}, col {span.start_col})"
        super().__init__(message)

    def __str__(self) -> str:
        message = super().__str__()
        return message if self.source is None else f"{self.source}: {message}"


class UnterminatedString(SourceError):
    pass


class UnterminatedBacktick(SourceError):
    pass


class InvalidCharacter(SourceError):
    pass


class RSyntaxError(SourceError):
    """Parse failure; `expected` is a hint about what would have helped."""

    def __init__(self, message: str, span: Optional[SrcSpan] = None, expected: Optional[str] = None):
        self.expected = expected
        if expected:
            message = f"{message}; expected {expected}"
        super().__init__(message, span)


class IncompleteInput(RSyntaxError):
    """Input ended mid-expression; more lines could complete it."""


class NestingTooDeep(RSyntaxError):
    """An expression nests deeper than `parser.MAX_NESTING` levels."""


class MultipleExpressions(CodeweftError):
    pass


class SchemaError(CodeweftError):
    pass


class UnknownLexicon(CodeweftError):
    pass


class UnknownCategory(SchemaError):
    pass


class ScoreOutOfRange(SchemaError):
    pass


class UnknownColumn(CodeweftError):
    pass


class EmptyInput(CodeweftError):
    pass


class IoError(CodeweftError):
    def __init__(self, source: str, message: str):
        self.source = source
        super().__init__(f"{source}: {message}")


class HttpError(CodeweftError):
    def __init__(self, source: str, status: Optional[int], message: str = ""):
        self.source = source
        self.status = status
        detail = f"HTTP {status}" if status is not None else message or "request failed"
        super().__init__(f"{source}: {detail}")


class MissingLog(CodeweftError):
    pass
