"""Tokenizer for the supported R subset.

Comments are dropped. Newlines are emitted as tokens only where they can
terminate an expression: inside `(`, `[` and `[[` groups they are
swallowed, inside `{` blocks they separate statements, mirroring the R
grammar's newline handling. A kept newline's value says which of the two
it is: True inside a `{` block, where `else` may start a line.

The scan is one pass over a single compiled alternation, dispatched on
the name of the alternative that matched.
"""

from __future__ import annotations

import math
import re

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


class Tokens:
    """The tokens of one text, held in parallel lists.

    Token i has kind `kinds[i]`, text `texts[i]` and decoded value
    `values[i]` (for a NEWLINE, whether a `{` block is open); it runs from
    line `lines[i]`, column `cols[i]` to line `end_lines[i]`, column
    `end_cols[i]`, the bounds of its span. `len()` is the token count; the
    parser reads the lists, packs the positions of the nodes it keeps and
    builds a `SrcSpan` only for an error. `stack`,
    `line` and `line_start` are where `scan` stopped: for a scan a lexer
    error cut, at the start of the token that raised. Equal texts are one
    object: `shared` maps each text to the first string scanned with it, so
    the trees built from the tokens hold each name once.
    """

    __slots__ = ("kinds", "texts", "values", "lines", "cols", "end_lines", "end_cols",
                 "stack", "line", "line_start", "shared")

    def __init__(self):
        self.kinds: list[str] = []
        self.texts: list[str] = []
        self.values: list[object] = []
        # one int object per line, shared by its tokens and the spans built from them
        self.lines: list[int] = []
        self.cols: list[int] = []
        self.end_lines: list[int] = []
        self.end_cols: list[int] = []
        self.stack: list[bool] = []  # open delimiters, True where newlines are significant
        self.line, self.line_start = 1, 0  # current line number and the offset it starts at
        # one table per token stream, not `sys.intern`'s process-wide one: the
        # names of a source are freed with its tokens and trees
        self.shared: dict[str, str] = {}

    def __len__(self) -> int:
        return len(self.kinds)

    def span(self, first: int, last: int) -> SrcSpan:
        """From the start of token `first` to the end of token `last`, for
        first <= last: no token ends before it starts, so `SrcSpan`'s
        backwards-span check always passes."""
        return SrcSpan(
            self.lines[first], self.cols[first], self.end_lines[last], self.end_cols[last]
        )

    def position(self, first: int, last: int) -> int | SrcSpan:
        """`span(first, last)` packed as a tree node keeps it (`codeweft.rast`),
        or that `SrcSpan` where the start line or a column is too wide to pack."""
        start_col, end_col = self.cols[first], self.end_cols[last]
        start = self.lines[first] << 14 | start_col
        if start_col | end_col < 1 << 14 and start < 1 << 30:
            return ((self.end_lines[last] << 14 | end_col) - start) << 30 | start
        return self.span(first, last)

    def quoted(self, i: int) -> bool:
        """Whether token i is a backtick-quoted name, two characters wider than its text."""
        return self.kinds[i] == NAME and self.end_cols[i] - self.cols[i] - 1 == len(self.texts[i])


def _number(raw: str) -> tuple[float, bool]:
    is_int = raw.endswith("L")
    body = raw[:-1] if is_int else raw
    if body[:2] not in ("0x", "0X"):
        return float(body), is_int
    try:
        return float(int(body, 16)), is_int
    except OverflowError:  # R reads hex into a double, which overflows to Inf
        return math.inf, is_int


def tokenize(text: str, keep_newlines: bool = False) -> Tokens:
    """Lex `text` into tokens.

    With keep_newlines the stream includes expression-terminating NEWLINE
    tokens (those outside `(`/`[` groups); `tokenize` callers who only want
    the lexical content leave it off.
    """
    tokens = Tokens()
    scan(tokens, text, 0, keep_newlines)
    return tokens


def scan(tokens: Tokens, text: str, pos: int, keep_newlines: bool) -> None:
    """Append the tokens of text[pos:], carrying on from where the scan of text[:pos] stopped."""
    kinds, texts, values = tokens.kinds, tokens.texts, tokens.values
    lines, cols, end_lines, end_cols = tokens.lines, tokens.cols, tokens.end_lines, tokens.end_cols
    stack, line, line_start = tokens.stack, tokens.line, tokens.line_start
    shared = tokens.shared.setdefault

    def span(start: int, end: int) -> SrcSpan:
        """1-based inclusive span of text[start:end], which starts on `line`.

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

    try:
        for m in _TOKEN_RE.finditer(text, pos):
            kind = m.lastgroup
            if kind == "skip":
                continue
            start, end = m.span()
            raw = m[0]
            value = None
            if kind == "name":
                if raw in KEYWORDS:
                    kind = KEYWORD
            elif kind == "op":
                if raw in _OPENERS:
                    stack.extend(_OPENERS[raw])
                elif raw in _CLOSERS and stack:
                    stack.pop()
            elif kind == "newline":
                if not keep_newlines or (stack and not stack[-1]):
                    line, line_start = line + 1, end
                    continue
                value = bool(stack)  # kept, so either inside a `{` block or at top level
            elif kind == "num":
                value = _number(raw)
            elif kind == "string":
                value = _ESCAPE_RE.sub(unescape, m["body"])
                if m["close"] is None:
                    raise UnterminatedString("unterminated string literal", span(start, end))
            elif kind == "special":
                if len(raw) < 2 or raw[-1] != "%":
                    raise InvalidCharacter("unterminated %..% operator", span(start, end))
            elif kind == "backtick":
                if len(raw) < 2 or raw[-1] != "`":
                    raise UnterminatedBacktick("unterminated backtick name", span(start, end))
                kind, raw = NAME, raw[1:-1]
            elif kind == "bad":
                raise InvalidCharacter(f"invalid character {raw!r}", span(start, end))
            kinds.append(kind)
            texts.append(shared(raw, raw))
            values.append(value)
            lines.append(line)
            cols.append(start - line_start + 1)
            if kind == NEWLINE or kind == STRING:  # the only tokens that can hold a line break
                breaks = raw.count("\n")
                if breaks:
                    line, line_start = line + breaks, text.rindex("\n", start, end) + 1
            # a token ending in a line break ends at column 0 of the next line
            end_lines.append(line)
            end_cols.append(end - line_start)
    finally:  # a scan cut by an error stops on the error's line
        tokens.line, tokens.line_start = line, line_start
