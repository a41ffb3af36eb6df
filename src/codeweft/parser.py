"""Recursive precedence-climbing parser for the supported R subset.

Binding powers follow R's documented operator precedence. `->`/`->>` are
rewritten to `<-`/`<<-` with swapped operands at parse time, as R's own
parser does, so the rightward forms never appear in result trees.

Expressions terminate at a newline only when syntactically complete: a
pending operator, an open delimiter or an unfinished call continues onto
the following lines. Semicolons separate expressions on a single line.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, NoReturn, Sequence

from . import lexer
from .errors import (
    IncompleteInput,
    MultipleExpressions,
    NestingTooDeep,
    RSyntaxError,
    SourceError,
    UnterminatedBacktick,
    UnterminatedString,
)
from .frozen import nogc
from .lexer import EOF, KEYWORD, NAME, NEWLINE, NUM, OP, SEMI, SPECIAL, STRING, Tokens
from .rast import (
    Arg,
    Call,
    Expr,
    LogicalLit,
    NullLit,
    NumLit,
    SrcSpan,
    StringLit,
    SymbolRef,
)

# infix binding powers: name -> (left bp, right-assoc flag)
_INFIX: dict[str, tuple[int, bool]] = {
    "?": (2, False),
    "=": (4, True),
    "<-": (6, True),
    "<<-": (6, True),
    "->": (8, False),
    "->>": (8, False),
    "~": (10, False),
    "|": (12, False),
    "||": (12, False),
    "&": (14, False),
    "&&": (14, False),
    "<": (18, False),
    ">": (18, False),
    "<=": (18, False),
    ">=": (18, False),
    "==": (18, False),
    "!=": (18, False),
    "+": (20, False),
    "-": (20, False),
    "*": (22, False),
    "/": (22, False),
    # SPECIAL %..% operators sit here, at 24
    ":": (26, False),
    "^": (30, True),
}
_SPECIAL_BP = 24
_UNARY_BP = {"-": 28, "+": 28, "!": 16, "~": 10, "?": 2}
_POSTFIX_BP = 34  # ( [ [[ $ @
_NS_BP = 36  # :: :::
_RIGHTWARD = {"->": "<-", "->>": "<<-"}
_PREFIX = frozenset(("(", "{", *_UNARY_BP))  # operators that can start an operand
# every operator that can follow an operand, the one table parse_expr reads
_OPERATOR_BP: dict[str, tuple[int, bool]] = {
    **_INFIX,
    **{op: (_POSTFIX_BP, False) for op in ("(", "[", "[[", "$", "@")},
    **{op: (_NS_BP, False) for op in ("::", ":::")},
}

# Nesting levels an expression may have. Parentheses, braces, call and
# index arguments, prefix operators, keyword bodies and right-associative
# operands each add a level (one parse_expr call); left-associative chains
# add none. R refuses deep nesting too ("contextstack overflow"); at this
# depth the tree helpers that recurse (deparse, to_json, strip_parens)
# still have stack to spare.
MAX_NESTING = 100

# each constant's literal, built from its packed source position
_CONSTANTS = {
    "TRUE": lambda pos: LogicalLit(True, pos),
    "FALSE": lambda pos: LogicalLit(False, pos),
    "NA": lambda pos: LogicalLit(None, pos),
    "NULL": NullLit,
    "Inf": lambda pos: NumLit("Inf", math.inf, span=pos),
    "NaN": lambda pos: NumLit("NaN", math.nan, span=pos),
}


class ProgramResult:
    """Top-level expressions plus per-expression syntax errors.

    `trees` holds the expressions; `exprs` pairs each with its span, built
    when read, so a caller that needs no span builds none. `incomplete` is
    True when more input could repair the text: its first error is an end
    of input mid-expression, or a string or backtick name cut by the end
    of the text. A lexer error ends the tokens, and the expression it cuts
    off fails with it; the expressions before it keep their records.
    """

    def __init__(self, trees: list[Expr] | None = None,
                 errors: list[SourceError] | None = None, incomplete: bool = False,
                 parser: _Parser | None = None):
        self.trees = [] if trees is None else trees
        self.errors = [] if errors is None else errors
        self.incomplete = incomplete
        # an incomplete parse stopped at the end of its text, for resume_program
        self._parser = parser

    @property
    def exprs(self) -> list[tuple[Expr, SrcSpan]]:
        return [(expr, expr.span) for expr in self.trees]  # type: ignore[misc]


class _Parser:
    """Recursive descent over the parallel lists of a `lexer.Tokens`.

    Tokens are addressed by index. A tree node gets its position packed
    (`position`), and a `SrcSpan` is built only for an error. `node` is the
    one owner of the span rule: a node runs from its first token to the
    last one consumed, `self.pos - 1` once it is parsed. That token is never
    before the first, so a node span is ordered by construction and always
    passes the nodes' check.
    """

    __slots__ = ("text", "tokens", "kinds", "texts", "values", "position", "pos", "depth", "resumes",
                 "kept", "else_at", "cut")

    def __init__(self, tokens: Tokens, text: str, cut: SourceError | None = None):
        self.text = text
        self.tokens = tokens
        # a final EOF token stops every scan
        self.kinds = tokens.kinds + [EOF]
        self.texts = tokens.texts + [""]
        self.values = tokens.values
        self.position = tokens.position
        self.pos = 0
        self.depth = 0  # parse_expr calls open
        # where to resume the constructs open where the input ran out, innermost
        # first: (token, depth, routine, arguments), for routine(self, *arguments)
        self.resumes: list[tuple] = []
        # once resumed, each block or list read through its closer: opener -> (items, token after)
        self.kept: dict[int, tuple[list[Arg], int]] | None = None
        # the token after an `if` whose `else` lookahead ran into the end of the tokens
        self.else_at = -1
        # the lexer error that ended the tokens, until the parse raises it at their end
        self.cut = cut

    # --- token plumbing -------------------------------------------------

    def advance(self) -> int:
        """Step past the current token, never past EOF; returns its index."""
        i = self.pos
        if self.kinds[i] != EOF:
            self.pos = i + 1
        return i

    def at(self, kind: str, text: str | None = None) -> bool:
        i = self.pos
        return self.kinds[i] == kind and (text is None or self.texts[i] == text)

    def expect(self, kind: str, text: str | None = None, what: str = "") -> int:
        if not self.at(kind, text):
            self.fail(what or repr(text or kind))
        return self.advance()

    def skip_newlines(self) -> None:
        while self.kinds[self.pos] == NEWLINE:
            self.pos += 1

    def skip_separators(self) -> None:
        while self.kinds[self.pos] in (NEWLINE, SEMI):
            self.pos += 1

    def here(self) -> SrcSpan:
        """The span of the current token; EOF sits at column 1 of the line the scan stopped on."""
        i = self.pos
        if self.kinds[i] == EOF:
            return SrcSpan(self.tokens.line, 1, self.tokens.line, 1)
        return self.tokens.span(i, i)

    def fail(self, expected: str) -> NoReturn:
        if self.kinds[self.pos] == EOF:
            cut, self.cut = self.cut, None
            raise cut or IncompleteInput("unexpected end of input", self.here(), expected)
        raise RSyntaxError(f"unexpected {self.texts[self.pos]!r}", self.here(), expected)

    def symbol(self, i: int) -> SymbolRef:
        """Name token `i` as a symbol. R has no zero-length name, and
        codeweft's empty symbol is the missing argument."""
        text = self.texts[i]
        if not text:
            raise RSyntaxError("attempt to use zero-length variable name", self.tokens.span(i, i))
        return SymbolRef(text, self.position(i, i))

    def node(self, op: int, args: Sequence[Arg], first: int, name: str | None = None) -> Call:
        """The call of operator or keyword token `op` (called `name` if given),
        spanning token `first` through the last token consumed."""
        callee = SymbolRef(name or self.texts[op], self.position(op, op))
        return Call(callee, tuple(args), self.position(first, self.pos - 1))

    # --- expressions ----------------------------------------------------

    def parse_expr(self, min_bp: int = 0, left: Expr | None = None, first: int = 0) -> Expr:
        """An expression binding at least `min_bp`; given `left` (begun at `first`), its rest."""
        depth = self.depth
        if depth > MAX_NESTING:
            message = f"expression nested more than {MAX_NESTING} levels deep"
            raise NestingTooDeep(message, self.here())
        self.depth = depth + 1
        if left is None:
            first = self.pos
            left = self.parse_operand()
        kinds, texts = self.kinds, self.texts
        while True:
            i = self.pos
            kind, text = kinds[i], texts[i]
            if kind == SPECIAL:
                lbp, right = _SPECIAL_BP, False
            elif kind == OP and text in _OPERATOR_BP:
                lbp, right = _OPERATOR_BP[text]
            else:
                break
            if lbp < min_bp:
                break
            try:
                if text in ("(", "[", "[["):
                    left = self.parse_suffix_call(left, first)
                    continue
                self.pos = i + 1  # an operator, never EOF
                self.skip_newlines()
                if text in ("$", "@", "::", ":::"):
                    operand = self.parse_member_name()
                else:
                    operand = self.parse_expr(lbp if right else lbp + 1)
            except IncompleteInput:
                self.resumes.append((i, depth, _Parser.parse_expr, (min_bp, left, first)))
                raise
            name = _RIGHTWARD.get(text)  # R rewrites rightward assignment
            lhs, rhs = Arg(left), Arg(operand)
            args = (rhs, lhs) if name else (lhs, rhs)
            left = self.node(i, args, first, name)
        self.depth = depth
        return left

    def parse_operand(self) -> Expr:
        i = self.pos
        kind = self.kinds[i]
        if kind == NUM:
            self.pos = i + 1
            value, is_int = self.values[i]  # type: ignore[misc]
            text = self.texts[i]
            if is_int:  # the spelling without its L, shared like a token's text
                text = self.tokens.shared.setdefault(text[:-1], text[:-1])
            return NumLit(text, value, is_int, self.position(i, i))
        if kind == STRING:
            self.pos = i + 1
            return StringLit(self.values[i], self.position(i, i))  # type: ignore[arg-type]
        if kind == NAME:
            self.pos = i + 1
            text = self.texts[i]
            if text in _CONSTANTS and not self.tokens.quoted(i):
                return _CONSTANTS[text](self.position(i, i))
            return self.symbol(i)
        if kind == KEYWORD:
            return self.parse_keyword()
        text = self.texts[i]
        if kind != OP or text not in _PREFIX:
            self.fail("an expression")
        self.pos = i + 1
        if text == "(":
            args = [Arg(self.parse_expr(0))]
            self.expect(OP, ")")
        elif text == "{":
            args = self.parse_block()
        else:
            self.skip_newlines()
            args = [Arg(self.parse_expr(_UNARY_BP[text]))]
        return self.node(i, args, i)

    def parse_block(self, opener: int = 0, stmts: list[Arg] | None = None) -> list[Arg]:
        """The statements after a `{`, through its `}`. A resume passes the `{`
        token `opener` and the statements before the one it starts at: the
        current one, or the one before if a later `else` can still join that. A
        resumed parser keeps each block read through its `}`: a later read takes it."""
        if stmts is None:
            opener, stmts = self.pos - 1, []
            if self.kept and opener in self.kept:
                stmts, self.pos = self.kept[opener]
                return stmts
        # a resume reads again at `at`, after n statements: past the last, if no `else` can follow
        depth, at, n = self.depth, self.pos, len(stmts)
        try:
            while True:
                self.skip_separators()
                if self.at(OP, "}"):
                    break
                stmts.append(Arg(self.parse_expr(0)))
                if self.pos != self.else_at:
                    at, n = self.pos, len(stmts)
                if not (self.at(NEWLINE) or self.at(SEMI) or self.at(OP, "}")):
                    self.fail("'}', newline or ';'")
        except IncompleteInput:
            del stmts[n:]
            self.resumes.append((at, depth, _Parser.parse_block, (opener, stmts)))
            raise
        self.advance()
        if self.kept is not None:
            self.kept[opener] = (stmts, self.pos)
        return stmts

    def parse_member_name(self) -> Expr:
        i = self.pos
        kind = self.kinds[i]
        if kind in (NAME, KEYWORD):
            self.pos = i + 1
            return self.symbol(i)
        if kind == STRING:
            self.pos = i + 1
            return StringLit(self.values[i], self.position(i, i))  # type: ignore[arg-type]
        self.fail("a name or string")

    def parse_suffix_call(self, callee: Expr, first: int) -> Expr:
        """`callee` followed by `(`, `[` or `[[`; the callee began at token `first`."""
        i = self.advance()  # ( [ [[
        text = self.texts[i]
        closer = ")" if text == "(" else "]"
        args = self.parse_list(closer, _Parser.parse_arg)
        self.expect(OP, closer)
        if text == "[[":
            self.expect(OP, "]", what="']]'")
        if text == "(":
            return Call(callee, tuple(args), self.position(first, self.pos - 1))
        # an empty subscript keeps R's missing-argument slot: x[] has one
        return self.node(i, [Arg(callee), *(args or [Arg(SymbolRef(""))])], first)

    def parse_list(self, closer: str, item: Callable[[_Parser, str], Arg], opener: int = 0,
                   items: list[Arg] | None = None) -> list[Arg]:
        """Comma-separated items before `closer`, each read by `item(self, closer)`.
        A resume passes the opener token `opener` and the items read before; a
        list read up to `closer` is kept, as `parse_block` keeps a block. One whose
        last item reaches the end of the tokens is open at that item: the next
        line may go on with it, so it fails where the caller's `closer` would."""
        if items is None:
            opener, items = self.pos - 1, []
            if self.kept and opener in self.kept:
                items, self.pos = self.kept[opener]
                return items
        if not items and self.at(OP, closer):
            return items
        depth = self.depth
        try:
            while True:
                start = self.pos  # a comma ends the item before for good
                items.append(item(self, closer))
                if not self.at(OP, ","):
                    break
                self.advance()
            if self.at(EOF):
                del items[-1]
                self.fail(repr(closer))
        except IncompleteInput:
            self.resumes.append((start, depth, _Parser.parse_list, (closer, item, opener, items)))
            raise
        if self.kept is not None and self.at(OP, closer):
            self.kept[opener] = (items, self.pos)
        return items

    def parse_arg(self, closer: str) -> Arg:
        """One argument, maybe named; an empty value before a comma or `closer`
        is R's missing argument (`x[, 1]`, `alist(x = )`)."""
        i = self.pos
        kind = self.kinds[i]
        name = None
        if kind in (NAME, STRING) and self.kinds[i + 1] == OP and self.texts[i + 1] == "=":
            self.pos = i + 2
            name = self.texts[i] if kind == NAME else self.values[i]
            self.skip_newlines()
        if self.at(OP, ",") or self.at(OP, closer):
            return Arg(SymbolRef(""), name)  # type: ignore[arg-type]
        return Arg(self.parse_expr(0), name)  # type: ignore[arg-type]

    def parse_formal(self, closer: str) -> Arg:
        """One formal; without a default it holds R's missing argument."""
        name = self.symbol(self.expect(NAME, what="formal argument name")).name
        if not self.at(OP, "="):
            return Arg(SymbolRef(""), name=name)
        self.advance()
        return Arg(self.parse_body(), name=name)

    # --- keyword constructs --------------------------------------------

    def parse_keyword(self) -> Expr:
        i = self.pos
        kw = self.texts[i]
        if kw in ("else", "in"):  # R: unexpected 'else', at the keyword
            self.fail("an expression")
        self.pos = i + 1
        args: list[Arg] = []
        if kw in ("if", "while", "for", "function"):
            args = [*self.parse_head(kw), Arg(self.parse_body())]
            if kw == "if" and self._else_follows():
                self.advance()
                args.append(Arg(self.parse_body()))
        elif kw == "repeat":
            args = [Arg(self.parse_body())]
        return self.node(i, args, i)

    def parse_head(self, kw: str) -> list[Arg]:
        """The parenthesised head after if or while (the condition), for (the
        variable and the sequence) or function (the formals)."""
        self.expect(OP, "(", what=f"'(' after {kw}")
        if kw == "function":
            args = self.parse_list(")", _Parser.parse_formal)
        elif kw == "for":
            var = self.symbol(self.expect(NAME, what="loop variable"))
            self.expect(KEYWORD, "in", what="'in'")
            args = [Arg(var), Arg(self.parse_expr(0))]
        else:
            args = [Arg(self.parse_expr(0))]
        self.expect(OP, ")")
        return args

    def parse_body(self) -> Expr:
        """The expression after a keyword head, an `else` or a `name =`,
        which may start on a later line."""
        self.skip_newlines()
        return self.parse_expr(0)

    def _else_follows(self) -> bool:
        # `else` may start a new line only inside a braced block, where the
        # lexer gives each newline the value True
        i = self.pos
        while self.kinds[i] == NEWLINE and self.values[i]:
            i += 1
        if self.kinds[i] == KEYWORD and self.texts[i] == "else":
            self.pos = i
            return True
        if self.kinds[i] == EOF:  # a later line may still bring it
            self.else_at = self.pos
        return False

    # --- program level --------------------------------------------------

    def parse_top_level(self) -> Expr:
        self.depth = 0  # an error may have left parse_expr calls unclosed
        expr = self.parse_expr(0)
        # the end of tokens a lexer error cut ends no expression
        if not (self.at(NEWLINE) or self.at(SEMI) or self.at(EOF) and self.cut is None):
            self.fail("newline, ';' or end of input")
        return expr

    def resync(self) -> None:
        """Skip to the next top-level expression boundary after an error."""
        depth = 0
        while not self.at(EOF):
            i = self.advance()
            kind, text = self.kinds[i], self.texts[i]
            if kind == OP and text in lexer._OPENERS:
                depth += len(lexer._OPENERS[text])  # the delimiters the lexer's stack holds
            elif kind == OP and text in lexer._CLOSERS:
                depth = max(0, depth - 1)
            elif kind in (NEWLINE, SEMI) and depth == 0:
                return


@nogc
def parse_program(text: str) -> ProgramResult:
    """Parse every top-level expression, recovering at expression boundaries."""
    try:
        tokens, cut = lexer.tokenize(text, keep_newlines=True), None
    except SourceError as err:
        # the tokens before the error, scanned again: `tokenize` stays the one hot call
        tokens, cut = lexer.Tokens(), err
        with contextlib.suppress(SourceError):
            lexer.scan(tokens, text, 0, keep_newlines=True)
    return _parse_tokens(_Parser(tokens, text, cut), cut)


def _parse_tokens(parser: _Parser, cut: SourceError | None) -> ProgramResult:
    """Parse all of `parser`'s tokens, which `cut`, if given, ended before its text's end."""
    result = ProgramResult()
    parser.pos, parser.resumes, parser.else_at, parser.cut = 0, [], -1, cut
    while True:
        parser.skip_separators()
        if parser.at(EOF) and parser.cut is None:
            break
        try:
            result.trees.append(parser.parse_top_level())
        except SourceError as err:
            # errors are kept without their traceback, whose frames would hold
            # the result and make every failed parse a reference cycle
            result.errors.append(err.with_traceback(None))
            parser.resync()
    first = result.errors[0] if result.errors else None
    if isinstance(first, IncompleteInput):
        result.incomplete, result._parser = True, parser  # its one error, at the end of the text
    elif first is cut and isinstance(cut, (UnterminatedString, UnterminatedBacktick)):
        # a backtick name cannot cross a line: only one cut by the end of the
        # text can still be closed, as a string always can
        result.incomplete = cut.span.end_line > parser.text.count("\n")
    return result


@nogc
def resume_program(result: ProgramResult, text: str) -> ProgramResult:
    """`parse_program(text)` for a text that extends an incomplete result's
    text by whole lines: it lexes those lines and parses again each construct
    open at the old end where it stopped (a block at its current statement, or
    the one before if an `else` can still join that; a comma list at its current
    item; a chain at its last operator), innermost first, then all. A resumed
    parser keeps every block or list it reads through its closer: a later read
    takes it unread. A result is resumed once; one that cannot be is parsed in full."""
    parser, result._parser = result._parser, None
    if not (parser and text.startswith(parser.text) and text.startswith("\n", len(parser.text))):
        return parse_program(text)
    if parser.kept is None:
        parser.kept = {}
    tokens, n, resumes, cut = parser.tokens, len(parser.tokens), parser.resumes, None
    try:
        lexer.scan(tokens, text, len(parser.text), keep_newlines=True)
    except SourceError as err:
        cut = err
    parser.kinds[n:] = [*tokens.kinds[n:], EOF]
    parser.texts[n:] = [*tokens.texts[n:], ""]
    parser.text, parser.cut = text, cut
    for i, (pos, depth, routine, arguments) in enumerate(resumes):
        parser.pos, parser.depth, parser.resumes, parser.else_at = pos, depth, [], -1
        try:
            routine(parser, *arguments)
        except IncompleteInput as err:
            parser.resumes += resumes[i + 1 :]
            return ProgramResult(list(result.trees), [err.with_traceback(None)], True, parser)
        except SourceError:
            break
    return _parse_tokens(parser, cut)


def parse_expr(text: str) -> Expr:
    """Parse exactly one complete expression."""
    tokens = lexer.tokenize(text, keep_newlines=True)
    parser = _Parser(tokens, text)
    parser.skip_newlines()
    if parser.at(EOF):
        raise RSyntaxError("empty input", None, "an expression")
    expr = parser.parse_top_level()
    parser.skip_separators()
    if not parser.at(EOF):
        raise MultipleExpressions("input contains more than one expression")
    return expr


def is_complete(text: str) -> bool:
    """REPL completeness: False when more lines could finish the input.

    Raises the first hard syntax error, so callers can distinguish the three
    outcomes complete / incomplete / invalid.
    """
    result = parse_program(text)
    if result.incomplete:
        return False
    if result.errors:
        raise result.errors[0]
    return True
