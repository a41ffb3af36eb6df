"""Tokenizer for the supported R subset.

Comments are dropped. Newlines are emitted as tokens only where they can
terminate an expression: inside `(`, `[` and `[[` groups they are
swallowed, inside `{` blocks they separate statements, mirroring the R
grammar's newline handling. A kept newline's value says which of the two
it is: True inside a `{` block, where `else` may start a line.

The scan is one pass over a single compiled alternation, one match per
token: the blanks before a token are inside its match, and the scan
dispatches on the index of the group that matched (`m.lastindex`).
"""

from __future__ import annotations

import math
import re
from functools import partial

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

# longest match first; the one-character operators are one class
_OPERATORS = [":::", "<<-", "->>", "::", "<-", "->", "<=", ">=", "==", "!=", "&&", "||", "[["]

# One match per token: the blanks before a token are part of its match, and `skip`
# takes a comment or trailing blanks, which would otherwise backtrack into `bad`.
# Frequent alternatives come first; `name` leaves a `.` before a digit to `num`, and
# `bad` takes any other character, so the scan has no gaps. An unclosed string,
# backtick name or `%` (on its line) still matches: the missing close is the error.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r\f]*
    (?: (?P<name>(?:[a-zA-Z]|\.(?![0-9]))[a-zA-Z0-9._]*)
    | (?P<op>"""
    + "|".join(map(re.escape, _OPERATORS))
    + r"""|[-+*/^<>!&|~?:=$@()\[\]{},])
    | (?P<newline>\n)
    | (?P<num>0[xX][0-9a-fA-F]+L? | (?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?L?)
    | (?P<skip>\#[^\n]* | (?<=[ \t\r\f])\Z)
    | (?P<special>%[^%\n]*%?)
    | (?P<string>
        (?P<quote>["'])
        (?P<body>(?:[^"'\\]+ | \\.? | (?!(?P=quote))["'])*)
        (?P<close>(?P=quote))?)
    | (?P<backtick>`[^`\n]*`?)
    | (?P<semi>;)
    | (?P<bad>.) )
    """,
    re.VERBOSE | re.DOTALL,
)
_NAME, _OP, _NEWLINE, _NUM, _SKIP, _SPECIAL, _STRING, _BACKTICK, _BAD = map(
    _TOKEN_RE.groupindex.get, "name op newline num skip special string backtick bad".split())
_KINDS = (None, *sorted(_TOKEN_RE.groupindex, key=_TOKEN_RE.groupindex.get))  # kind by group

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


def _span(m: re.Match, end: int = -1) -> SrcSpan:
    """1-based inclusive span of the token `m`, or of its text up to `end`; one
    ending in a line break ends at column 0 of the next line."""
    text, start, end = m.string, m.start(m.lastindex), m.end() if end < 0 else end
    line, start_col = text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)
    breaks = text.count("\n", start, end)
    if breaks:
        return SrcSpan(line, start_col, line + breaks, end - text.rindex("\n", start, end) - 1)
    return SrcSpan(line, start_col, line, start_col + end - start - 1)


def _unescape(m: re.Match, esc: re.Match) -> str:
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
    raise InvalidCharacter(message, _span(m, m.start("body") + esc.end()))


def scan(tokens: Tokens, text: str, pos: int, keep_newlines: bool) -> None:
    """Append the tokens of text[pos:], carrying on from where the scan of text[:pos] stopped."""
    kinds, texts, values = tokens.kinds, tokens.texts, tokens.values
    lines, cols, end_lines, end_cols = tokens.lines, tokens.cols, tokens.end_lines, tokens.end_cols
    stack, line, line_start = tokens.stack, tokens.line, tokens.line_start
    shared = tokens.shared.setdefault
    try:
        for m in _TOKEN_RE.finditer(text, pos):
            i = m.lastindex
            start, end = m.span(i)
            raw = m[i]
            kind = _KINDS[i]
            value = None
            if i == _NAME:
                if raw in KEYWORDS:
                    kind = KEYWORD
            elif i == _OP:
                if raw in _OPENERS:
                    stack.extend(_OPENERS[raw])
                elif raw in _CLOSERS and stack:
                    stack.pop()
            elif i == _NEWLINE:
                if not keep_newlines or (stack and not stack[-1]):
                    line, line_start = line + 1, end
                    continue
                value = bool(stack)  # kept, so either inside a `{` block or at top level
            elif i == _NUM:
                value = _number(raw)
            elif i == _SKIP:
                continue
            elif i == _STRING:
                value = _ESCAPE_RE.sub(partial(_unescape, m), m["body"])
                if m["close"] is None:
                    raise UnterminatedString("unterminated string literal", _span(m))
            elif i == _SPECIAL:
                if len(raw) < 2 or raw[-1] != "%":
                    raise InvalidCharacter("unterminated %..% operator", _span(m))
            elif i == _BACKTICK:
                if len(raw) < 2 or raw[-1] != "`":
                    raise UnterminatedBacktick("unterminated backtick name", _span(m))
                kind, raw = NAME, raw[1:-1]
            elif i == _BAD:
                raise InvalidCharacter(f"invalid character {raw!r}", _span(m))
            kinds.append(kind)
            texts.append(shared(raw, raw))
            values.append(value)
            lines.append(line)
            cols.append(start - line_start + 1)
            if i == _NEWLINE or i == _STRING:  # the only tokens that can hold a line break
                breaks = raw.count("\n")
                if breaks:
                    line, line_start = line + breaks, text.rindex("\n", start, end) + 1
            # a token ending in a line break ends at column 0 of the next line
            end_lines.append(line)
            end_cols.append(end - line_start)
    finally:  # a scan cut by an error stops on the error's line
        tokens.line, tokens.line_start = line, line_start
