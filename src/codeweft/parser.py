"""Recursive precedence-climbing parser for the supported R subset.

Binding powers follow R's documented operator precedence. `->`/`->>` are
rewritten to `<-`/`<<-` with swapped operands at parse time, as R's own
parser does, so the rightward forms never appear in result trees.

Expressions terminate at a newline only when syntactically complete: a
pending operator, an open delimiter or an unfinished call continues onto
the following lines. Semicolons separate expressions on a single line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import lexer
from .errors import (
    IncompleteInput,
    MultipleExpressions,
    RSyntaxError,
    SourceError,
    UnterminatedBacktick,
    UnterminatedString,
)
from .lexer import EOF, KEYWORD, NAME, NEWLINE, NUM, OP, SEMI, SPECIAL, STRING, Token
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
# every operator that can follow an operand, the one table parse_expr reads
_OPERATOR_BP: dict[str, tuple[int, bool]] = {
    **_INFIX,
    **{op: (_POSTFIX_BP, False) for op in ("(", "[", "[[", "$", "@")},
    **{op: (_NS_BP, False) for op in ("::", ":::")},
}

# each constant's literal, built from its source span
_CONSTANTS = {
    "TRUE": lambda span: LogicalLit(True, span),
    "FALSE": lambda span: LogicalLit(False, span),
    "NA": lambda span: LogicalLit(None, span),
    "NULL": NullLit,
    "Inf": lambda span: NumLit("Inf", math.inf, span=span),
    "NaN": lambda span: NumLit("NaN", math.nan, span=span),
}

@dataclass
class ProgramResult:
    """Top-level expressions plus per-expression syntax errors.

    `incomplete` is True when the first error is one that more input could
    repair: the text ends mid-expression, inside a string, or inside a
    backtick name.
    """

    exprs: list[tuple[Expr, SrcSpan]] = field(default_factory=list)
    errors: list[SourceError] = field(default_factory=list)
    incomplete: bool = False


class _Parser:
    def __init__(self, tokens: list[Token], text: str):
        last_line = text.count("\n") + 1
        self.tokens = tokens + [Token(EOF, "", SrcSpan(last_line, 1, last_line, 1))]
        self.pos = 0
        self.brace_depth = 0

    # --- token plumbing -------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != EOF:
            self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, text: str | None = None, what: str = "") -> Token:
        if not self.at(kind, text):
            self.fail(what or repr(text or kind))
        return self.advance()

    def skip_newlines(self) -> None:
        while self.tokens[self.pos].kind == NEWLINE:  # the final EOF token stops the scan
            self.pos += 1

    def skip_separators(self) -> None:
        while self.tokens[self.pos].kind in (NEWLINE, SEMI):
            self.pos += 1

    def fail(self, expected: str) -> None:
        tok = self.peek()
        if tok.kind == EOF:
            raise IncompleteInput("unexpected end of input", tok.span, expected)
        raise RSyntaxError(f"unexpected {tok.text!r}", tok.span, expected)

    # --- expressions ----------------------------------------------------

    def parse_expr(self, min_bp: int = 0) -> Expr:
        left = self.parse_operand()
        while True:
            tok = self.tokens[self.pos]
            text = tok.text
            if tok.kind == SPECIAL:
                lbp, right = _SPECIAL_BP, False
            elif tok.kind == OP and text in _OPERATOR_BP:
                lbp, right = _OPERATOR_BP[text]
            else:
                break
            if lbp < min_bp:
                break
            if text in ("(", "[", "[["):
                left = self.parse_suffix_call(left)
                continue
            self.pos += 1  # tok is an operator, never EOF
            if text in ("$", "@", "::", ":::"):
                self.skip_newlines()
                rhs = self.parse_member_name()
                left = Call(
                    SymbolRef(text, tok.span),
                    (Arg(left), Arg(rhs)),
                    SrcSpan.cover(left.span, rhs.span),
                )
                continue
            self.skip_newlines()
            rhs = self.parse_expr(lbp if right else lbp + 1)
            op = text
            a, b = left, rhs
            if op in ("->", "->>"):  # R rewrites rightward assignment
                op = "<-" if op == "->" else "<<-"
                a, b = rhs, left
            span = SrcSpan.cover(left.span, rhs.span)
            left = Call(SymbolRef(op, tok.span), (Arg(a), Arg(b)), span)
        return left

    def parse_operand(self) -> Expr:
        tok = self.peek()
        if tok.kind == NUM:
            self.advance()
            value, is_int = tok.value  # type: ignore[misc]
            text = tok.text[:-1] if is_int else tok.text
            return NumLit(text, value, is_int, tok.span)
        if tok.kind == STRING:
            self.advance()
            return StringLit(tok.value, tok.span)  # type: ignore[arg-type]
        if tok.kind == NAME:
            self.advance()
            if not tok.quoted and tok.text in _CONSTANTS:
                return _CONSTANTS[tok.text](tok.span)
            return SymbolRef(tok.text, tok.span)
        if tok.kind == KEYWORD:
            return self.parse_keyword()
        if tok.kind == OP:
            if tok.text == "(":
                self.advance()
                inner = self.parse_expr(0)
                close = self.expect(OP, ")")
                return Call(
                    SymbolRef("(", tok.span),
                    (Arg(inner),),
                    SrcSpan.cover(tok.span, close.span),
                )
            if tok.text == "{":
                return self.parse_block()
            if tok.text in _UNARY_BP:
                self.advance()
                self.skip_newlines()
                operand = self.parse_expr(_UNARY_BP[tok.text])
                return Call(
                    SymbolRef(tok.text, tok.span),
                    (Arg(operand),),
                    SrcSpan.cover(tok.span, operand.span),
                )
        self.fail("an expression")
        raise AssertionError("unreachable")

    def parse_block(self) -> Expr:
        open_tok = self.expect(OP, "{")
        self.brace_depth += 1
        stmts: list[Arg] = []
        while True:
            self.skip_separators()
            if self.at(OP, "}"):
                break
            stmts.append(Arg(self.parse_expr(0)))
            if not (self.at(NEWLINE) or self.at(SEMI) or self.at(OP, "}")):
                self.fail("'}', newline or ';'")
        close = self.advance()
        self.brace_depth -= 1
        return Call(
            SymbolRef("{", open_tok.span),
            tuple(stmts),
            SrcSpan.cover(open_tok.span, close.span),
        )

    def parse_member_name(self) -> Expr:
        tok = self.peek()
        if tok.kind in (NAME, KEYWORD):
            self.advance()
            return SymbolRef(tok.text, tok.span)
        if tok.kind == STRING:
            self.advance()
            return StringLit(tok.value, tok.span)  # type: ignore[arg-type]
        self.fail("a name or string")
        raise AssertionError("unreachable")

    def parse_suffix_call(self, callee: Expr) -> Expr:
        tok = self.advance()  # ( [ [[
        args = self.parse_args(closer=")" if tok.text == "(" else "]")
        close = self.expect(OP, ")" if tok.text == "(" else "]")
        if tok.text == "[[":
            close = self.expect(OP, "]", what="']]'")
        if tok.text == "(":
            span = SrcSpan.cover(callee.span, close.span)
            return Call(callee, tuple(args), span)
        # empty subscript keeps R's missing-argument slot: x[] has one
        if not args:
            args = [Arg(SymbolRef(""))]
        span = SrcSpan.cover(callee.span, close.span)
        return Call(SymbolRef(tok.text, tok.span), (Arg(callee), *args), span)

    def parse_args(self, closer: str) -> list[Arg]:
        args: list[Arg] = []
        if self.at(OP, closer):
            return args
        while True:
            if self.at(OP, ","):
                args.append(Arg(SymbolRef("")))  # missing argument slot
                self.advance()
                if self.at(OP, closer):  # `f(,)` has two missing args
                    args.append(Arg(SymbolRef("")))
                    break
                continue
            if self.at(OP, closer):
                break
            args.append(self.parse_one_arg())
            if self.at(OP, ","):
                self.advance()
                if self.at(OP, closer):  # trailing comma: missing final arg
                    args.append(Arg(SymbolRef("")))
                    break
                continue
            break
        return args

    def parse_one_arg(self) -> Arg:
        tok = self.peek()
        if tok.kind in (NAME, STRING) and self._next_is_plain_eq():
            self.advance()
            self.advance()  # =
            self.skip_newlines()
            name = tok.text if tok.kind == NAME else tok.value
            return Arg(self.parse_expr(0), name=name)  # type: ignore[arg-type]
        return Arg(self.parse_expr(0))

    def _next_is_plain_eq(self) -> bool:
        nxt = self.tokens[self.pos + 1]
        return nxt.kind == OP and nxt.text == "="

    # --- keyword constructs --------------------------------------------

    def parse_keyword(self) -> Expr:
        tok = self.advance()
        kw = tok.text
        if kw in ("break", "next"):
            return Call(SymbolRef(kw, tok.span), (), tok.span)
        if kw == "if":
            self.expect(OP, "(", what="'(' after if")
            cond = self.parse_expr(0)
            self.expect(OP, ")")
            self.skip_newlines()
            body = self.parse_expr(0)
            args = [Arg(cond), Arg(body)]
            last: Expr = body
            if self._else_follows():
                self.advance()
                self.skip_newlines()
                last = self.parse_expr(0)
                args.append(Arg(last))
            return Call(SymbolRef("if", tok.span), tuple(args), SrcSpan.cover(tok.span, last.span))
        if kw == "while":
            self.expect(OP, "(", what="'(' after while")
            cond = self.parse_expr(0)
            self.expect(OP, ")")
            self.skip_newlines()
            body = self.parse_expr(0)
            span = SrcSpan.cover(tok.span, body.span)
            return Call(SymbolRef("while", tok.span), (Arg(cond), Arg(body)), span)
        if kw == "repeat":
            self.skip_newlines()
            body = self.parse_expr(0)
            span = SrcSpan.cover(tok.span, body.span)
            return Call(SymbolRef("repeat", tok.span), (Arg(body),), span)
        if kw == "for":
            self.expect(OP, "(", what="'(' after for")
            var = self.expect(NAME, what="loop variable")
            self.expect(KEYWORD, "in", what="'in'")
            seq = self.parse_expr(0)
            self.expect(OP, ")")
            self.skip_newlines()
            body = self.parse_expr(0)
            return Call(
                SymbolRef("for", tok.span),
                (Arg(SymbolRef(var.text, var.span)), Arg(seq), Arg(body)),
                SrcSpan.cover(tok.span, body.span),
            )
        if kw == "function":
            self.expect(OP, "(", what="'(' after function")
            formals = self.parse_formals()
            self.expect(OP, ")")
            self.skip_newlines()
            body = self.parse_expr(0)
            return Call(
                SymbolRef("function", tok.span),
                (*formals, Arg(body)),
                SrcSpan.cover(tok.span, body.span),
            )
        self.fail("an expression")
        raise AssertionError("unreachable")

    def parse_formals(self) -> list[Arg]:
        formals: list[Arg] = []
        if self.at(OP, ")"):
            return formals
        while True:
            name = self.expect(NAME, what="formal argument name")
            if self.at(OP, "="):
                self.advance()
                self.skip_newlines()
                formals.append(Arg(self.parse_expr(0), name=name.text))
            else:
                # no default: value slot holds R's missing argument
                formals.append(Arg(SymbolRef(""), name=name.text))
            if self.at(OP, ","):
                self.advance()
                continue
            break
        return formals

    def _else_follows(self) -> bool:
        if self.at(KEYWORD, "else"):
            return True
        # `else` may start a new line only inside a braced block
        if self.brace_depth > 0:
            i = self.pos
            while self.tokens[i].kind == NEWLINE:
                i += 1
            if self.tokens[i].kind == KEYWORD and self.tokens[i].text == "else":
                self.pos = i
                return True
        return False

    # --- program level --------------------------------------------------

    def parse_top_level(self) -> tuple[Expr, SrcSpan]:
        expr = self.parse_expr(0)
        if not (self.at(NEWLINE) or self.at(SEMI) or self.at(EOF)):
            self.fail("newline, ';' or end of input")
        return expr, expr.span

    def resync(self) -> None:
        """Skip to the next top-level expression boundary after an error."""
        depth = 0
        while not self.at(EOF):
            tok = self.advance()
            if tok.kind == OP and tok.text in ("(", "[", "[[", "{"):
                depth += 2 if tok.text == "[[" else 1
            elif tok.kind == OP and tok.text in (")", "]", "}"):
                depth = max(0, depth - 1)
            elif tok.kind in (NEWLINE, SEMI) and depth == 0:
                return


def parse_program(text: str) -> ProgramResult:
    """Parse every top-level expression, recovering at expression boundaries."""
    # errors are kept without their traceback, whose frames would hold the
    # result and make every failed parse a reference cycle
    result = ProgramResult()
    try:
        tokens = lexer.tokenize(text, keep_newlines=True)
    except SourceError as err:
        result.errors.append(err.with_traceback(None))
        # a backtick name cannot cross a line: only one cut by the end of the
        # text can still be closed
        result.incomplete = isinstance(err, UnterminatedString) or (
            isinstance(err, UnterminatedBacktick) and err.span.end_line > text.count("\n")
        )
        return result
    parser = _Parser(tokens, text)
    while True:
        parser.skip_separators()
        if parser.at(EOF):
            break
        try:
            result.exprs.append(parser.parse_top_level())
        except SourceError as err:
            result.errors.append(err.with_traceback(None))
            parser.resync()
    result.incomplete = bool(result.errors) and isinstance(result.errors[0], IncompleteInput)
    return result


def parse_expr(text: str) -> Expr:
    """Parse exactly one complete expression."""
    tokens = lexer.tokenize(text, keep_newlines=True)
    parser = _Parser(tokens, text)
    parser.skip_newlines()
    if parser.at(EOF):
        raise RSyntaxError("empty input", None, "an expression")
    expr, _ = parser.parse_top_level()
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
