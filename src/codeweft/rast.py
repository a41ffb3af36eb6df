"""Expression tree types for the supported subset of the R language.

Everything that is not a literal or a symbol is a call: operators,
assignment, parentheses, braces, subsetting, `function` definitions and
user infixes are all calls whose callee is the operator's symbol. This
mirrors R's own homogeneous language objects, so `a + b` is
``Call(SymbolRef("+"), [a, b])`` and `(x)` is ``Call(SymbolRef("("), [x])``.

Equality between expressions is structural: source spans never take part
in comparisons, and numeric literals compare by value rather than by the
spelling they had in the source.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Union

from .frozen import Frozen, setters


class SrcSpan(Frozen):
    """1-based, inclusive source region."""

    __slots__ = _compared = ("start_line", "start_col", "end_line", "end_col")

    def __init__(self, start_line: int, start_col: int, end_line: int, end_col: int):
        _start_line(self, start_line)
        _start_col(self, start_col)
        _end_line(self, end_line)
        _end_col(self, end_col)
        if start_line > end_line or start_line == end_line and start_col > end_col:
            raise ValueError(f"backwards span: {self}")


class NullLit(Frozen):
    """R's NULL."""

    __slots__ = ("span",)

    def __init__(self, span: Optional[SrcSpan] = None):
        _null_span(self, span)


class LogicalLit(Frozen):
    """TRUE / FALSE / NA (value None means NA)."""

    __slots__ = ("value", "span")
    _compared = ("value",)

    def __init__(self, value: Optional[bool], span: Optional[SrcSpan] = None):
        _logical_value(self, value)
        _logical_span(self, span)


class NumLit(Frozen):
    """Numeric literal keeping its source spelling for faithful deparse."""

    __slots__ = ("text", "value", "is_int", "span")

    def __init__(self, text: str, value: float, is_int: bool = False,
                 span: Optional[SrcSpan] = None):
        _num_text(self, text)
        _num_value(self, value)
        _num_is_int(self, is_int)  # carried an L suffix
        _num_span(self, span)

    def __eq__(self, other: object) -> bool:
        # compare by value, not spelling; NaN literals compare equal
        if not isinstance(other, NumLit):
            return NotImplemented
        if self.is_int != other.is_int:
            return False
        if self.value != self.value and other.value != other.value:
            return True
        return self.value == other.value

    def __hash__(self) -> int:
        # equal values hash equally: 0.0 and -0.0 alike, and every NaN as one
        return hash((NumLit, self.is_int, self.value if self.value == self.value else "NaN"))

    @staticmethod
    def of(value: Union[int, float], is_int: bool = False) -> "NumLit":
        # the text never carries the L suffix; deparse re-adds it from is_int
        if is_int:
            text = str(int(value))
        elif isinstance(value, int) or float(value).is_integer():
            text = str(int(value))
        else:
            text = repr(float(value))
        return NumLit(text=text, value=float(value), is_int=is_int)


class StringLit(Frozen):
    """A string literal with its escapes decoded."""

    __slots__ = ("value", "span")
    _compared = ("value",)

    def __init__(self, value: str, span: Optional[SrcSpan] = None):
        _string_value(self, value)
        _string_span(self, span)


class SymbolRef(Frozen):
    """A name. The empty name is R's missing argument (as in `x[, 1]`)."""

    __slots__ = ("name", "span")
    _compared = ("name",)

    def __init__(self, name: str, span: Optional[SrcSpan] = None):
        _symbol_name(self, name)
        _symbol_span(self, span)


class Arg(Frozen):
    """One call argument, optionally named (`value = TRUE`)."""

    __slots__ = _compared = ("value", "name")

    def __init__(self, value: Expr, name: Optional[str] = None):
        _arg_value(self, value)
        _arg_name(self, name)


class Call(Frozen):
    """A callee applied to arguments: every operator, brace and keyword too."""

    __slots__ = ("callee", "args", "span")
    _compared = ("callee", "args")

    def __init__(self, callee: Expr, args: tuple[Arg, ...] = (), span: Optional[SrcSpan] = None):
        _call_callee(self, callee)
        _call_args(self, args)
        _call_span(self, span)

    def callee_name(self) -> Optional[str]:
        return self.callee.name if isinstance(self.callee, SymbolRef) else None


# the slot setters through which each constructor above fills its instance
_start_line, _start_col, _end_line, _end_col = setters(SrcSpan)
(_null_span,) = setters(NullLit)
_logical_value, _logical_span = setters(LogicalLit)
_num_text, _num_value, _num_is_int, _num_span = setters(NumLit)
_string_value, _string_span = setters(StringLit)
_symbol_name, _symbol_span = setters(SymbolRef)
_arg_value, _arg_name = setters(Arg)
_call_callee, _call_args, _call_span = setters(Call)

Expr = Union[NullLit, LogicalLit, NumLit, StringLit, SymbolRef, Call]


def call(name: str, *args: Union[Expr, Arg], **named: Expr) -> Call:
    """Convenience constructor used by tests: call("+", a, b)."""
    built = [a if isinstance(a, Arg) else Arg(a) for a in args]
    built += [Arg(v, name=k) for k, v in named.items()]
    return Call(SymbolRef(name), tuple(built))


def walk_calls(expr: Expr) -> Iterator[tuple[Call, int]]:
    """Every Call node with its nesting depth, pre-order: a call, then its
    callee subtree, then each argument left to right. The walk keeps its own
    stack, so a tree of any depth is walked."""
    stack: list[tuple[Call, int]] = [(expr, 0)] if isinstance(expr, Call) else []
    while stack:
        node, depth = stack.pop()
        yield node, depth
        depth += 1
        # only calls are pushed: a literal or symbol child holds none
        stack.extend([(v, depth) for a in reversed(node.args) if isinstance(v := a.value, Call)])
        if isinstance(node.callee, Call):
            stack.append((node.callee, depth))


def strip_parens(expr: Expr) -> Expr:
    """Drop `(` wrapper calls everywhere; used by round-trip property tests."""
    if not isinstance(expr, Call):
        return expr
    if expr.callee_name() == "(" and len(expr.args) == 1 and expr.args[0].name is None:
        return strip_parens(expr.args[0].value)
    return Call(
        strip_parens(expr.callee),
        tuple(Arg(strip_parens(a.value), a.name) for a in expr.args),
        expr.span,
    )


def to_json(expr: Expr) -> dict:
    """Plain-dict dump of a tree (spans omitted); the golden-file schema."""
    if isinstance(expr, NullLit):
        return {"kind": "null"}
    if isinstance(expr, LogicalLit):
        return {"kind": "logical", "value": expr.value}
    if isinstance(expr, NumLit):
        out: dict = {"kind": "num", "text": expr.text, "value": expr.value}
        if not math.isfinite(expr.value):  # JSON has no such number: write what R prints
            out["value"] = "NaN" if math.isnan(expr.value) else "Inf" if expr.value > 0 else "-Inf"
        if expr.is_int:
            out["int"] = True
        return out
    if isinstance(expr, StringLit):
        return {"kind": "string", "value": expr.value}
    if isinstance(expr, SymbolRef):
        return {"kind": "symbol", "name": expr.name}
    if isinstance(expr, Call):
        args = []
        for a in expr.args:
            item: dict = {"value": to_json(a.value)}
            if a.name is not None:
                item["name"] = a.name
            args.append(item)
        return {"kind": "call", "callee": to_json(expr.callee), "args": args}
    raise TypeError(f"not an Expr: {expr!r}")


def from_json(data: dict) -> Expr:
    """The tree `to_json` dumped. The empty symbol, R's missing argument, is
    accepted only as an argument's value: no text holds it as a callee or a tree."""
    if data == {"kind": "symbol", "name": ""}:
        raise ValueError("an empty symbol outside an argument's value")
    return _from_json(data)


def _from_json(data: dict) -> Expr:
    kind = data["kind"]
    if kind == "null":
        return NullLit()
    if kind == "logical":
        return LogicalLit(data["value"])
    if kind == "num":
        # float() reads the Inf, -Inf and NaN that to_json writes
        return NumLit(text=data["text"], value=float(data["value"]), is_int=data.get("int", False))
    if kind == "string":
        return StringLit(data["value"])
    if kind == "symbol":
        return SymbolRef(data["name"])
    if kind == "call":
        args = tuple(Arg(_from_json(a["value"]), a.get("name")) for a in data["args"])
        return Call(from_json(data["callee"]), args)
    raise ValueError(f"unknown node kind {kind!r}")
