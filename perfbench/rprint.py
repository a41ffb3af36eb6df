"""The benchmark's own printer for R expression trees.

Trees use the plain-dict schema of the parser goldens
(``{"kind": "call", "callee": ..., "args": [...]}``). This module never
imports codeweft: the inputs and the expected outputs are built from it,
so a change to the package's deparser or parser cannot change them.

`canonical` follows the documented canonical spelling (loose binary
operators spaced, `^ : $ @ ::` tight, double-quoted strings, backticks
only for non-syntactic names, parentheses only where re-parsing needs
them or where a keyword construct sits inside another construct).
`natural` is the spelling a person types: it is `canonical` except that
keyword constructs in argument and right-hand positions stay bare, as in
`f <- function(x) x`. The generator only puts them in such positions.
"""

from __future__ import annotations

import re

# R's documented operator precedence as binding powers: (left bp, right-assoc)
INFIX = {
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
    ":": (26, False),
    "^": (30, True),
}
SPECIAL_BP = 24
UNARY = {"-": 28, "+": 28, "!": 16, "~": 10, "?": 2}
POSTFIX_BP = 34
NS_BP = 36
ATOM_BP = 100
KEYWORD_BP = 0
ARG_BP = 5

TIGHT = {"^", ":", "$", "@", "::", ":::"}
KEYWORDS = {"if", "while", "for", "repeat", "function"}
RESERVED = {
    "if", "else", "for", "while", "repeat", "function", "break", "next", "in",
    "TRUE", "FALSE", "NULL", "NA", "Inf", "NaN",
    "NA_integer_", "NA_real_", "NA_character_", "NA_complex_",
}
_SYNTACTIC = re.compile(r"^(\.\.\.|[a-zA-Z][a-zA-Z0-9._]*|\.(?:[a-zA-Z._][a-zA-Z0-9._]*)?)$")
SPECIAL = re.compile(r"^%[^%]*%$")
_ESCAPES = {
    "\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r",
    "\a": "\\a", "\b": "\\b", "\f": "\\f", "\v": "\\v",
}


# --- tree constructors -----------------------------------------------------


def sym(name: str) -> dict:
    return {"kind": "symbol", "name": name}


def num(text: str) -> dict:
    return {"kind": "num", "text": text, "value": float(text)}


def string(value: str) -> dict:
    return {"kind": "string", "value": value}


def logical(value) -> dict:
    return {"kind": "logical", "value": value}


def arg(value: dict, name: str | None = None) -> dict:
    out = {"value": value}
    if name is not None:
        out["name"] = name
    return out


def call(fn, *args, **named) -> dict:
    """call("f", x, y, na_rm=...) ; dict args pass through as prebuilt Args."""
    callee = sym(fn) if isinstance(fn, str) else fn
    built = [a if "value" in a and "kind" not in a else arg(a) for a in args]
    built += [arg(v, k.replace("_", ".")) for k, v in named.items()]
    return {"kind": "call", "callee": callee, "args": built}


MISSING = sym("")


# --- printing --------------------------------------------------------------


def callee_name(node: dict) -> str | None:
    callee = node["callee"]
    return callee["name"] if callee["kind"] == "symbol" else None


def _named(args) -> bool:
    return any("name" in a for a in args)


def symbol_text(name: str) -> str:
    if name == "":
        return ""
    if _SYNTACTIC.match(name) and name not in RESERVED:
        return name
    return f"`{name}`"


def escape_string(value: str) -> str:
    out = ['"']
    for ch in value:
        if ch in _ESCAPES:
            out.append(_ESCAPES[ch])
        elif ord(ch) < 0x20:
            out.append(f"\\x{ord(ch):02x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def own_bp(node: dict) -> int:
    if node["kind"] != "call":
        return ATOM_BP
    name = callee_name(node)
    args = node["args"]
    if name is None:
        return POSTFIX_BP
    if name in ("(", "{", "break", "next"):
        return ATOM_BP
    if name in KEYWORDS:
        return KEYWORD_BP
    if name in ("::", ":::") and len(args) == 2:
        return NS_BP
    if name in ("[", "[["):
        return POSTFIX_BP
    if SPECIAL.match(name) and len(args) == 2:
        return SPECIAL_BP
    if name in INFIX and len(args) == 2 and not _named(args):
        return INFIX[name][0]
    if name in UNARY and len(args) == 1 and "name" not in args[0]:
        bp = UNARY[name]
        return bp - 1 if name in ("~", "?") else bp
    return POSTFIX_BP


class Printer:
    def __init__(self, natural: bool = False):
        self.natural = natural

    def expr(self, node: dict) -> str:
        return self._dp(node, 0)

    def arg(self, a: dict) -> str:
        value = a["value"]
        if value == MISSING and "name" not in a:
            return ""
        text = self._dp(value, ARG_BP)
        if "name" not in a:
            return text
        return f"{symbol_text(a['name'])} = {text}"

    def _dp(self, node: dict, required: int, prefix_ok: bool = False) -> str:
        text = self._inner(node)
        bp = own_bp(node)
        if bp < required:
            if self.natural and bp == KEYWORD_BP:
                return text
            if prefix_ok and _is_sign(node):
                return text
            return f"({text})"
        return text

    def _inner(self, node: dict) -> str:
        kind = node["kind"]
        if kind == "null":
            return "NULL"
        if kind == "logical":
            return {True: "TRUE", False: "FALSE", None: "NA"}[node["value"]]
        if kind == "num":
            return node["text"] + ("L" if node.get("int") else "")
        if kind == "string":
            return escape_string(node["value"])
        if kind == "symbol":
            return symbol_text(node["name"])
        return self._call(node)

    def _call(self, node: dict) -> str:
        name = callee_name(node)
        args = node["args"]
        dp = self._dp
        if name == "(" and len(args) == 1 and "name" not in args[0]:
            return f"({dp(args[0]['value'], 0)})"
        if name == "{":
            if not args:
                return "{\n}"
            return "{\n" + "\n".join("    " + dp(a["value"], 0) for a in args) + "\n}"
        if name in ("break", "next") and not args:
            return name
        if name == "if" and len(args) in (2, 3) and not _named(args):
            cond = dp(args[0]["value"], 0)
            if len(args) == 2:
                return f"if ({cond}) {dp(args[1]['value'], 0)}"
            cons = args[1]["value"]
            cons_text = dp(cons, 0)
            if own_bp(cons) == KEYWORD_BP or _ends_with_open_if(cons):
                cons_text = f"({cons_text})"
            return f"if ({cond}) {cons_text} else {dp(args[2]['value'], 0)}"
        if name == "while" and len(args) == 2 and not _named(args):
            return f"while ({dp(args[0]['value'], 0)}) {dp(args[1]['value'], 0)}"
        if name == "repeat" and len(args) == 1 and "name" not in args[0]:
            return f"repeat {dp(args[0]['value'], 0)}"
        if (
            name == "for"
            and len(args) == 3
            and args[0]["value"]["kind"] == "symbol"
            and not _named(args)
        ):
            var = symbol_text(args[0]["value"]["name"])
            return f"for ({var} in {dp(args[1]['value'], 0)}) {dp(args[2]['value'], 0)}"
        if name == "function" and args and "name" not in args[-1] and all(
            "name" in a for a in args[:-1]
        ):
            formals = []
            for a in args[:-1]:
                if a["value"] == MISSING:
                    formals.append(symbol_text(a["name"]))
                else:
                    formals.append(f"{symbol_text(a['name'])} = {dp(a['value'], ARG_BP)}")
            return f"function({', '.join(formals)}) {dp(args[-1]['value'], 0)}"
        if name in ("[", "[[") and args and "name" not in args[0]:
            obj = dp(args[0]["value"], POSTFIX_BP)
            inner = ", ".join(self.arg(a) for a in args[1:])
            return f"{obj}[{inner}]" if name == "[" else f"{obj}[[{inner}]]"
        if name in ("$", "@", "::", ":::") and len(args) == 2 and not _named(args):
            lhs = dp(args[0]["value"], POSTFIX_BP if name in ("$", "@") else NS_BP)
            return f"{lhs}{name}{self._inner(args[1]['value'])}"
        if name is not None and SPECIAL.match(name) and len(args) == 2 and not _named(args):
            lhs = dp(args[0]["value"], SPECIAL_BP)
            rhs = dp(args[1]["value"], SPECIAL_BP + 1, prefix_ok=True)
            return f"{lhs} {name} {rhs}"
        if name in INFIX and len(args) == 2 and not _named(args):
            lbp, right = INFIX[name]
            lhs = dp(args[0]["value"], lbp + 1 if right else lbp)
            rhs = dp(args[1]["value"], lbp if right else lbp + 1, prefix_ok=True)
            if name in TIGHT:
                return f"{lhs}{name}{rhs}"
            return f"{lhs} {name} {rhs}"
        if name in UNARY and len(args) == 1 and "name" not in args[0]:
            operand = dp(args[0]["value"], UNARY[name], prefix_ok=True)
            return f"~{operand}" if name == "~" else f"{name}{operand}"
        callee = dp(node["callee"], POSTFIX_BP)
        return f"{callee}({', '.join(self.arg(a) for a in args)})"


def _is_sign(node: dict) -> bool:
    return (
        node["kind"] == "call"
        and callee_name(node) in ("-", "+")
        and len(node["args"]) == 1
        and "name" not in node["args"][0]
    )


def _ends_with_open_if(node: dict) -> bool:
    while node["kind"] == "call":
        name = callee_name(node)
        args = node["args"]
        if name == "if" and len(args) == 2:
            return True
        if name in INFIX and len(args) == 2 and not _named(args):
            node = args[1]["value"]
            continue
        if name in ("while", "repeat") or (name == "for" and len(args) == 3):
            node = args[-1]["value"]
            continue
        if name == "function" and args:
            node = args[-1]["value"]
            continue
        break
    return False


CANONICAL = Printer()
NATURAL = Printer(natural=True)


def calls_preorder(node: dict, cells: bool = True) -> list:
    """(func, args cell, depth) for every call node, depth-first pre-order.

    The function name is the callee's symbol, or its canonical text when
    the callee is itself an expression (`pkg::fn`, `f()`). With
    cells=False the args cell is None, which keeps arbitrarily deep trees
    printable (the walk itself uses an explicit stack).
    """
    out = []
    stack = [(node, 0)]
    while stack:
        cur, d = stack.pop()
        if cur["kind"] != "call":
            continue
        name = callee_name(cur)
        func = name if name is not None else CANONICAL.expr(cur["callee"])
        cell = "; ".join(CANONICAL.arg(a) for a in cur["args"]) if cells else None
        out.append((func, cell, d))
        children = [cur["callee"]] + [a["value"] for a in cur["args"]]
        stack.extend((c, d + 1) for c in reversed(children))
    return out
