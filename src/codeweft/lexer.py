"""Tokenizer for the supported R subset.

Comments are dropped. Newlines are emitted as tokens only where they can
terminate an expression: inside `(`, `[` and `[[` groups they are
swallowed, inside `{` blocks they separate statements, mirroring the R
grammar's newline handling.

The scan is one pass over a single compiled alternation, dispatched on
the name of the alternative that matched.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .errors import InvalidCharacter, UnterminatedBacktick, UnterminatedString
from .rast import SrcSpan

# token kinds
NUM = "num"
STRING = "string"
NAME = "name"
SPECIAL = "special"  # %...% user/builtin infix, includes %% and %/%
OP = "op"
KEYWORD = "keyword"
NEWLINE = "newline"
SEMI = "semi"
EOF = "eof"

KEYWORDS = frozenset(
    ["if", "else", "for", "while", "repeat", "function", "break", "next", "in"]
)

# longest match first
_OPERATORS = [
    ":::", "<<-", "->>",
    "::", "<-", "->", "<=", ">=", "==", "!=", "&&", "||", "[[",
    "+", "-", "*", "/", "^", "<", ">", "!", "&", "|", "~", "?", ":",
    "=", "$", "@", "(", ")", "[", "]", "{", "}", ",",
]

# Alternatives are tried in order; none matches the empty string, and
# `bad` takes any character the others refuse, so the scan has no gaps.
# A string or backtick name that runs out of input, and a `%` with no
# closing `%` on its line, still match: the missing close is the error.
_TOKEN_RE = re.compile(
    r"""
    (?P<skip>[ \t\r\f]+ | \#[^\n]*)
    | (?P<newline>\n)
    | (?P<semi>;)
    | (?P<string>
        (?P<quote>["'])
        (?P<body>(?:[^"'\\]+ | \\.? | (?!(?P=quote))["'])*)
        (?P<close>(?P=quote))?)
    | (?P<backtick>`[^`\n]*`?)
    | (?P<special>%[^%\n]*%?)
    | (?P<num>0[xX][0-9a-fA-F]+L? | (?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?L?)
    | (?P<name>[a-zA-Z.][a-zA-Z0-9._]*)
    | (?P<op>"""
    + "|".join(map(re.escape, _OPERATORS))
    + r""")
    | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

# one escape: x/u/U with up to 2/4/8 hex digits, 1-3 octal digits, or a
# single character; empty for a backslash that ends the input
_ESCAPE_RE = re.compile(
    r"\\(x[0-9a-fA-F]{0,2}|u[0-9a-fA-F]{0,4}|U[0-9a-fA-F]{0,8}|[0-7]{1,3}|.?)", re.DOTALL
)

_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "a": "\a", "b": "\b",
    "f": "\f", "v": "\v", "\\": "\\", '"': '"', "'": "'", "`": "`",
    "": "",  # the string is unterminated; that error is raised after escapes
}

# delimiter stack entries pushed per opener: True = newlines significant
_OPENERS = {"(": [False], "[": [False], "[[": [False, False], "{": [True]}
_CLOSERS = frozenset([")", "]", "}"])


@dataclass(frozen=True, slots=True)
class Token:
    """One lexical token with its source span."""

    kind: str
    text: str
    span: SrcSpan
    value: object = field(default=None, compare=False)  # decoded string / number
    quoted: bool = False  # backtick-quoted name


def _number(raw: str) -> tuple[float, bool]:
    is_int = raw.endswith("L")
    body = raw[:-1] if is_int else raw
    if body[:2] not in ("0x", "0X"):
        return float(body), is_int
    try:
        return float(int(body, 16)), is_int
    except OverflowError:  # R reads hex into a double, which overflows to Inf
        return math.inf, is_int


def tokenize(text: str, keep_newlines: bool = False) -> list[Token]:
    """Lex `text` into tokens.

    With keep_newlines the stream includes expression-terminating NEWLINE
    tokens (those outside `(`/`[` groups); `tokenize` callers who only want
    the lexical content leave it off.
    """
    tokens: list[Token] = []
    stack: list[bool] = []
    line, line_start = 1, 0  # current line number and the offset it starts at

    def span(start: int, end: int) -> SrcSpan:
        """1-based inclusive span of text[start:end] in a string token; `start` is on `line`.

        A span ending in a line break ends at column 0 of the next line.
        """
        start_col = start - line_start + 1
        breaks = text.count("\n", start, end)
        if breaks:
            return SrcSpan(line, start_col, line + breaks, end - text.rindex("\n", start, end) - 1)
        return SrcSpan(line, start_col, line, end - line_start)

    def unescape(esc: re.Match) -> str:
        """Decode one escape in the body of the string token `m`."""
        code = esc[1]
        if code in _ESCAPES:
            return _ESCAPES[code]
        octal = code[0] in "01234567"
        digits = code if octal else code[1:]
        point = int(digits, 8 if octal else 16) if digits else None
        if point and point <= 0x10FFFF and not 0xD800 <= point <= 0xDFFF:
            return chr(point)
        # a NUL, an unknown letter, a hex escape with no digits, or a code point
        # above U+10FFFF or in D800-DFFF, which names no character; R rejects all
        if point == 0:
            message = "nul character not allowed"
        else:
            message = f"{'invalid' if code[0] in 'xuU' else 'unknown'} escape \\{code}"
        raise InvalidCharacter(message, span(m.start(), m.start("body") + esc.end()))

    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "skip":
            continue
        start, end = m.span()
        if kind == "newline":
            if keep_newlines and (stack[-1] if stack else True):
                col = start - line_start + 1
                tokens.append(Token(NEWLINE, "\n", SrcSpan(line, col, line + 1, 0)))
            line, line_start = line + 1, end
            continue
        if kind == "string":
            value = _ESCAPE_RE.sub(unescape, m["body"])
            token_span = span(start, end)
            if m["close"] is None:
                raise UnterminatedString("unterminated string literal", token_span)
            tokens.append(Token(STRING, m[0], token_span, value=value))
            if token_span.end_line != line:
                line, line_start = token_span.end_line, text.rindex("\n", start, end) + 1
            continue
        # every other token lies on one line and is not empty
        raw = m[0]
        here = SrcSpan(line, start - line_start + 1, line, end - line_start)
        if kind == "name":
            tokens.append(Token(KEYWORD if raw in KEYWORDS else NAME, raw, here))
        elif kind == "op":
            tokens.append(Token(OP, raw, here))
            if raw in _OPENERS:
                stack.extend(_OPENERS[raw])
            elif raw in _CLOSERS and stack:
                stack.pop()
        elif kind == "num":
            tokens.append(Token(NUM, raw, here, value=_number(raw)))
        elif kind == "semi":
            tokens.append(Token(SEMI, ";", here))
        elif kind == "special":
            if len(raw) < 2 or raw[-1] != "%":
                raise InvalidCharacter("unterminated %..% operator", here)
            tokens.append(Token(SPECIAL, raw, here))
        elif kind == "backtick":
            if len(raw) < 2 or raw[-1] != "`":
                raise UnterminatedBacktick("unterminated backtick name", here)
            tokens.append(Token(NAME, raw[1:-1], here, quoted=True))
        else:  # bad
            raise InvalidCharacter(f"invalid character {raw!r}", here)
    return tokens
