"""Turn expression trees back into canonical R source.

Output uses canonical spacing (spaces around loose binary operators, none
around `^ : $ @ ::`), double-quoted strings, and backticks only where a
name is not syntactic. Parentheses are added only when a synthesised tree
could not otherwise re-parse to the same shape; trees that came from the
parser never need them because explicit parens are `(` call nodes.
"""

from __future__ import annotations

import re

from .parser import _INFIX, _NS_BP, _POSTFIX_BP, _SPECIAL_BP, _UNARY_BP
from .rast import Arg, Expr, LogicalLit, NullLit, NumLit, StringLit, SymbolRef

_TIGHT_OPS = {"^", ":"}
_RESERVED = {
    "if", "else", "for", "while", "repeat", "function", "break", "next", "in",
    "TRUE", "FALSE", "NULL", "NA", "Inf", "NaN",
    "NA_integer_", "NA_real_", "NA_character_", "NA_complex_",
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
    if isinstance(arg.value, SymbolRef) and arg.value.name == "" and arg.name is None:
        return ""  # missing argument slot, as in x[, 1]
    value = _dp(arg.value, _ARG_BP)
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

    name = expr.callee_name()
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
    if n == 2 and positional:
        lhs, rhs = args[0].value, args[1].value
        if name in ("$", "@", "::", ":::"):
            bp = _POSTFIX_BP if name in ("$", "@") else _NS_BP
            return f"{_dp(lhs, bp)}{name}{_form(rhs)[0]}", bp
        if name is not None and _SPECIAL_RE.match(name):
            text = f"{_dp(lhs, _SPECIAL_BP)} {name} {_dp(rhs, _SPECIAL_BP + 1, True)}"
            return text, _SPECIAL_BP
        if name in _INFIX:
            bp, right = _INFIX[name]
            sep = "" if name in _TIGHT_OPS else " "
            text = f"{_dp(lhs, bp + right)}{sep}{name}{sep}{_dp(rhs, bp + (not right), True)}"
            return text, bp
    if name in _UNARY_BP and n == 1 and args[0].name is None:
        bp = _UNARY_BP[name]
        # the operand of ~ or ? absorbs the matching binary operator on
        # re-parse, so in a same-precedence context they need parens
        return name + _dp(args[0].value, bp, True), bp - (name in ("~", "?"))
    callee = _dp(expr.callee, _POSTFIX_BP)
    return f"{callee}({', '.join(_dp_arg(a) for a in args)})", _POSTFIX_BP
