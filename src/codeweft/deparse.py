"""Turn expression trees back into canonical R source.

Output uses canonical spacing (spaces around loose binary operators, none
around `^ : $ @ ::`), double-quoted strings, and backticks only where a
name is not syntactic. Parentheses are added where a tree could not
otherwise re-parse to the same shape (explicit parens are `(` call nodes),
and more often than needed: around a keyword form right of an operator
and a call left of `::`.
"""

from __future__ import annotations

import re

from .lexer import KEYWORDS
from .parser import _CONSTANTS, _INFIX, _NS_BP, _POSTFIX_BP, _SPECIAL_BP, _UNARY_BP
from .rast import Arg, Call, Expr, LogicalLit, NullLit, NumLit, StringLit, SymbolRef

_TIGHT_OPS = {"^", ":"}
# names a symbol can only have in backticks
_RESERVED = KEYWORDS | _CONSTANTS.keys() | {
    f"NA_{t}_" for t in ("integer", "real", "character", "complex")
}
_SYNTACTIC_NAME = re.compile(r"^(\.\.\.|[a-zA-Z][a-zA-Z0-9._]*|\.(?:[a-zA-Z._][a-zA-Z0-9._]*)?)$")

_SPECIAL_RE = re.compile(r"^%[^%]*%$")

_ESCAPE_MAP = {
    "\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r",
    "\a": "\\a", "\b": "\\b", "\f": "\\f", "\v": "\\v",
}
# every other character below 0x20 prints as a \xNN escape
_ESCAPE_TABLE = str.maketrans({chr(c): f"\\x{c:02x}" for c in range(0x20)} | _ESCAPE_MAP)

_ATOM_BP = 100
_KEYWORD_BP = 0  # if/for/while/repeat/function extend greedily rightwards
_ARG_BP = 5  # `=` inside call parens would read as a named argument
_SIGN_BP = _UNARY_BP["-"]  # only a unary - or + prints with this power
_LOGICAL_TEXT = {True: "TRUE", False: "FALSE", None: "NA"}


def escape_string(value: str) -> str:
    return '"' + value.translate(_ESCAPE_TABLE) + '"'


def symbol_text(name: str) -> str:
    if name == "":
        return ""
    if _SYNTACTIC_NAME.match(name) and name not in _RESERVED:
        return name
    return f"`{name}`"


def deparse(expr: Expr) -> str:
    return _dp(expr, 0)


def deparse_arg(arg: Arg) -> str:
    """Canonical text of one call argument (`name = value`, '' if missing)."""
    # nested arguments print through _dp_arg, so a wrapper put around
    # deparse_arg (a profiler's) sees one call per outside use
    return _dp_arg(arg)


def _dp_arg(arg: Arg) -> str:
    value = _dp(arg.value, _ARG_BP)  # '' for a missing argument, as in x[, 1]
    if arg.name is None:
        return value
    # symbol_text leaves the empty name empty, as the missing-argument slot prints
    name = symbol_text(arg.name) or '""'
    return f"{name} = {value}"


def _dp(expr: Expr, required_bp: int, prefix_ok: bool = False) -> str:
    text, bp = _form(expr)
    # a sign is always accepted in operand position, so it never needs parens
    # on the right-hand side (2^-3, x + -y): nothing binds between it and `^`,
    # and a `^` after the operand belongs to the operand itself. The weaker
    # prefixes (!, ~, ?) would absorb a following tighter operator on re-parse.
    if bp < required_bp and not (prefix_ok and bp == _SIGN_BP):
        return f"({text})"
    return text


def _form(expr: Expr) -> tuple[str, int]:
    """The text `expr` prints as, with the binding power of the form printed."""
    if isinstance(expr, SymbolRef):
        return symbol_text(expr.name), _ATOM_BP
    if isinstance(expr, NumLit):
        return expr.text + ("L" if expr.is_int else ""), _ATOM_BP
    if isinstance(expr, StringLit):
        return escape_string(expr.value), _ATOM_BP
    if isinstance(expr, LogicalLit):
        return _LOGICAL_TEXT[expr.value], _ATOM_BP
    if isinstance(expr, NullLit):
        return "NULL", _ATOM_BP

    name = _form_name(expr)
    args = expr.args
    n = len(args)
    positional = not any(a.name for a in args)
    if name == "(" and n == 1 and args[0].name is None:
        return f"({_dp(args[0].value, 0)})", _ATOM_BP
    if name == "{":
        return "{\n" + "".join(f"    {_dp(a.value, 0)}\n" for a in args) + "}", _ATOM_BP
    if name in ("break", "next") and not args:
        return name, _ATOM_BP
    if name == "if" and n in (2, 3) and positional:
        text = f"if ({_dp(args[0].value, 0)}) "
        if n == 2:
            return text + _dp(args[1].value, 0), _KEYWORD_BP
        # only a keyword form can end in an open `if`, which would take the
        # else on re-parse; every other form closes or parenthesises its end
        text += f"{_dp(args[1].value, _KEYWORD_BP + 1)} else {_dp(args[2].value, 0)}"
        return text, _KEYWORD_BP
    if name == "while" and n == 2 and positional:
        return f"while ({_dp(args[0].value, 0)}) {_dp(args[1].value, 0)}", _KEYWORD_BP
    if name == "repeat" and n == 1 and args[0].name is None:
        return f"repeat {_dp(args[0].value, 0)}", _KEYWORD_BP
    if name == "for" and n == 3 and positional and isinstance(args[0].value, SymbolRef):
        head = f"for ({symbol_text(args[0].value.name)} in {_dp(args[1].value, 0)}) "
        return head + _dp(args[2].value, 0), _KEYWORD_BP
    if name == "function" and args and args[-1].name is None and all(
        a.name is not None for a in args[:-1]
    ):
        formals = ", ".join(
            symbol_text(a.name)  # type: ignore[arg-type]
            + ("" if isinstance(a.value, SymbolRef) and a.value.name == ""
               else f" = {_dp(a.value, _ARG_BP)}")
            for a in args[:-1]
        )
        return f"function({formals}) {_dp(args[-1].value, 0)}", _KEYWORD_BP
    if name in ("[", "[[") and args and args[0].name is None:
        inner = ", ".join(_dp_arg(a) for a in args[1:])
        close = "]" if name == "[" else "]]"
        return f"{_dp(args[0].value, _POSTFIX_BP)}{name}{inner}{close}", _POSTFIX_BP
    if n == 2 and positional and name in ("$", "@", "::", ":::"):
        bp = _POSTFIX_BP if name in ("$", "@") else _NS_BP
        return f"{_dp(args[0].value, bp)}{name}{_form(args[1].value)[0]}", bp
    power = _binary_power(expr)
    if power:
        return _binary_text(expr, *power), power[0]
    if name in _UNARY_BP and n == 1 and args[0].name is None:
        bp = _UNARY_BP[name]
        # the operand of ~ or ? absorbs the matching binary operator on
        # re-parse, so in a same-precedence context they need parens
        return name + _dp(args[0].value, bp, True), bp - (name in ("~", "?"))
    callee = _dp(expr.callee, _POSTFIX_BP)
    return f"{callee}({', '.join(_dp_arg(a) for a in args)})", _POSTFIX_BP


def _form_name(expr: Call) -> str | None:
    """The callee name that picks a call's form, or None (the call form) for an empty operand."""
    name, args = expr.callee_name(), expr.args
    operands = args[:1] if name in ("[", "[[") else args[-1:] if name == "function" else args
    for a in operands:
        if isinstance(a.value, SymbolRef) and not a.value.name:
            return None
    return name


def _binary_power(expr: Expr) -> tuple[int, bool] | None:
    """(binding power, right-associative) of an infix or `%op%` call with
    two positional arguments; None for any other form."""
    if not isinstance(expr, Call) or len(expr.args) != 2 or expr.args[0].name or expr.args[1].name:
        return None
    name = _form_name(expr)
    if name and _SPECIAL_RE.match(name):
        return _SPECIAL_BP, False
    return _INFIX.get(name)  # type: ignore[arg-type]


def _binary_text(expr: Call, bp: int, right: bool) -> str:
    """The text of a binary operator call. A left-associative chain (a
    `%>%` pipeline, a long sum) nests only leftwards, to any length, so
    its left spine is walked in a loop; operands and parenthesised forms
    recurse, and the parser's nesting cap bounds them."""
    parts = []
    while True:
        name = expr.callee_name()
        sep = "" if name in _TIGHT_OPS else " "
        parts.append(f"{sep}{name}{sep}{_dp(expr.args[1].value, bp + (not right), True)}")
        lhs, required = expr.args[0].value, bp + right
        power = _binary_power(lhs)
        if power is None or power[0] < required:  # not on the spine: printed as an operand
            parts.append(_dp(lhs, required))
            return "".join(reversed(parts))
        expr, (bp, right) = lhs, power  # type: ignore[assignment]
