"""Turn expression trees back into canonical R source.

Output uses canonical spacing (spaces around loose binary operators, none
around `^ : $ @ ::`), double-quoted strings, and backticks only where a
name is not syntactic. Parentheses are added only when a synthesised tree
could not otherwise re-parse to the same shape; trees that came from the
parser never need them because explicit parens are `(` call nodes.
"""

from __future__ import annotations

import re

from .parser import _INFIX, _NS_BP, _OPERATOR_BP, _POSTFIX_BP, _SPECIAL_BP, _UNARY_BP
from .rast import (
    Arg,
    Call,
    Expr,
    LogicalLit,
    NullLit,
    NumLit,
    StringLit,
    SymbolRef,
)

_TIGHT_OPS = {"^", ":", "$", "@", "::", ":::"}
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

_ATOM_BP = 100
_KEYWORD_BP = 0  # if/for/while/repeat/function extend greedily rightwards
_ARG_BP = 5  # `=` inside call parens would read as a named argument


def escape_string(value: str) -> str:
    out = ['"']
    for ch in value:
        if ch in _ESCAPE_MAP:
            out.append(_ESCAPE_MAP[ch])
        elif ord(ch) < 0x20:
            out.append(f"\\x{ord(ch):02x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def symbol_text(name: str) -> str:
    if name == "":
        return ""
    if _SYNTACTIC_NAME.match(name) and name not in _RESERVED:
        return name
    return f"`{name}`"


def _own_bp(expr: Expr) -> int:
    """Binding power of the tree's top construct, for paren insertion."""
    if not isinstance(expr, Call):
        return _ATOM_BP
    name = expr.callee_name()
    if name is None:
        return _POSTFIX_BP
    if name in ("(", "{", "break", "next"):
        return _ATOM_BP
    if name in ("if", "while", "for", "repeat", "function"):
        return _KEYWORD_BP
    if name in ("::", ":::") and len(expr.args) == 2:
        return _NS_BP
    if name in ("[", "[["):
        return _POSTFIX_BP
    if _SPECIAL_RE.match(name) and len(expr.args) == 2:
        return _SPECIAL_BP
    if name in _OPERATOR_BP and len(expr.args) == 2 and not any(a.name for a in expr.args):
        return _OPERATOR_BP[name][0]
    if name in _UNARY_BP and len(expr.args) == 1 and expr.args[0].name is None:
        bp = _UNARY_BP[name]
        # the operand of ~ or ? absorbs the matching binary operator on
        # re-parse, so in a same-precedence context they need parens
        return bp - 1 if name in ("~", "?") else bp
    return _POSTFIX_BP  # ordinary call


def deparse(expr: Expr) -> str:
    return _dp(expr, 0)


def _dp(expr: Expr, required_bp: int, prefix_ok: bool = False) -> str:
    text = _dp_inner(expr)
    if _own_bp(expr) < required_bp:
        # a prefix operator is always accepted in operand position, so it
        # never needs parens on the right-hand side (2^-3, x + -y)
        if prefix_ok and _is_unary_call(expr):
            return text
        return f"({text})"
    return text


def _is_unary_call(expr: Expr) -> bool:
    # only - and + qualify: nothing binds between them and `^`, and a `^`
    # after the operand always belongs to the operand itself. The weaker
    # prefixes (!, ~, ?) would absorb a following tighter operator on
    # re-parse, so they keep their parens.
    return (
        isinstance(expr, Call)
        and expr.callee_name() in ("-", "+")
        and len(expr.args) == 1
        and expr.args[0].name is None
    )


def _dp_inner(expr: Expr) -> str:
    if isinstance(expr, NullLit):
        return "NULL"
    if isinstance(expr, LogicalLit):
        return {True: "TRUE", False: "FALSE", None: "NA"}[expr.value]
    if isinstance(expr, NumLit):
        return expr.text + ("L" if expr.is_int else "")
    if isinstance(expr, StringLit):
        return escape_string(expr.value)
    if isinstance(expr, SymbolRef):
        return symbol_text(expr.name)
    assert isinstance(expr, Call)
    return _dp_call(expr)


def _dp_call(expr: Call) -> str:
    name = expr.callee_name()
    args = expr.args

    if name == "(" and len(args) == 1 and args[0].name is None:
        return f"({_dp(args[0].value, 0)})"
    if name == "{":
        if not args:
            return "{\n}"
        body = "\n".join("    " + _dp(a.value, 0) for a in args)
        return "{\n" + body + "\n}"
    if name in ("break", "next") and not args:
        return name
    if name == "if" and len(args) in (2, 3) and not any(a.name for a in args):
        cond = _dp(args[0].value, 0)
        if len(args) == 2:
            return f"if ({cond}) {_dp(args[1].value, 0)}"
        # a greedy consequent would swallow the else on re-parse
        cons = args[1].value
        cons_text = _dp(cons, 0)
        if _own_bp(cons) == _KEYWORD_BP or _ends_with_open_if(cons):
            cons_text = f"({cons_text})"
        return f"if ({cond}) {cons_text} else {_dp(args[2].value, 0)}"
    if name == "while" and len(args) == 2 and not any(a.name for a in args):
        return f"while ({_dp(args[0].value, 0)}) {_dp(args[1].value, 0)}"
    if name == "repeat" and len(args) == 1 and args[0].name is None:
        return f"repeat {_dp(args[0].value, 0)}"
    if (
        name == "for"
        and len(args) == 3
        and isinstance(args[0].value, SymbolRef)
        and not any(a.name for a in args)
    ):
        return (
            f"for ({symbol_text(args[0].value.name)} in {_dp(args[1].value, 0)}) "
            f"{_dp(args[2].value, 0)}"
        )
    if name == "function" and args and args[-1].name is None and all(
        a.name is not None for a in args[:-1]
    ):
        formals = []
        for a in args[:-1]:
            if isinstance(a.value, SymbolRef) and a.value.name == "":
                formals.append(symbol_text(a.name))  # type: ignore[arg-type]
            else:
                formals.append(f"{symbol_text(a.name)} = {_dp(a.value, _ARG_BP)}")  # type: ignore[arg-type]
        return f"function({', '.join(formals)}) {_dp(args[-1].value, 0)}"
    if name in ("[", "[[") and args and args[0].name is None:
        obj = _dp(args[0].value, _POSTFIX_BP)
        inner = ", ".join(_dp_arg(a) for a in args[1:])
        return f"{obj}[{inner}]" if name == "[" else f"{obj}[[{inner}]]"
    if name in ("$", "@", "::", ":::") and len(args) == 2 and not any(a.name for a in args):
        lhs = _dp(args[0].value, _POSTFIX_BP if name in ("$", "@") else _NS_BP)
        rhs = _dp_inner(args[1].value)
        return f"{lhs}{name}{rhs}"
    if name is not None and _SPECIAL_RE.match(name) and len(args) == 2 and not any(
        a.name for a in args
    ):
        lhs = _dp(args[0].value, _SPECIAL_BP)
        rhs = _dp(args[1].value, _SPECIAL_BP + 1, prefix_ok=True)
        return f"{lhs} {name} {rhs}"
    if name in _INFIX and len(args) == 2 and not any(a.name for a in args):
        lbp, right = _INFIX[name]
        lhs = _dp(args[0].value, lbp + 1 if right else lbp)
        rhs = _dp(args[1].value, lbp if right else lbp + 1, prefix_ok=True)
        if name in _TIGHT_OPS:
            return f"{lhs}{name}{rhs}"
        return f"{lhs} {name} {rhs}"
    if name in _UNARY_BP and len(args) == 1 and args[0].name is None:
        operand = _dp(args[0].value, _UNARY_BP[name], prefix_ok=True)
        if name == "~":
            return f"~{operand}"
        return f"{name}{operand}"

    callee = _dp(expr.callee, _POSTFIX_BP)
    return f"{callee}({', '.join(_dp_arg(a) for a in args)})"


def deparse_arg(arg: Arg) -> str:
    """Canonical text of one call argument (`name = value`, '' if missing)."""
    return _dp_arg(arg)


def _dp_arg(arg: Arg) -> str:
    if isinstance(arg.value, SymbolRef) and arg.value.name == "" and arg.name is None:
        return ""  # missing argument slot, as in x[, 1]
    value = _dp(arg.value, _ARG_BP)
    if arg.name is None:
        return value
    return f"{symbol_text(arg.name)} = {value}"


def _ends_with_open_if(expr: Expr) -> bool:
    """True when the deparsed text ends in an `if` lacking its `else`."""
    while isinstance(expr, Call):
        name = expr.callee_name()
        if name == "if" and len(expr.args) == 2:
            return True
        if name in _INFIX and len(expr.args) == 2 and not any(a.name for a in expr.args):
            expr = expr.args[1].value
            continue
        if name in ("while", "repeat") or (name == "for" and len(expr.args) == 3):
            expr = expr.args[-1].value
            continue
        if name == "function" and expr.args:
            expr = expr.args[-1].value
            continue
        break
    return False
