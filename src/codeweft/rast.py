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
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union


@dataclass(frozen=True, slots=True)
class SrcSpan:
    """1-based, inclusive source region."""

    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __post_init__(self) -> None:
        if (self.start_line, self.start_col) > (self.end_line, self.end_col):
            raise ValueError(f"backwards span: {self}")


_NOSPAN = None  # spans are optional on synthesised trees


@dataclass(frozen=True, slots=True)
class NullLit:
    """R's NULL."""

    span: Optional[SrcSpan] = field(default=_NOSPAN, compare=False)


@dataclass(frozen=True, slots=True)
class LogicalLit:
    """TRUE / FALSE / NA (value None means NA)."""

    value: Optional[bool]
    span: Optional[SrcSpan] = field(default=_NOSPAN, compare=False)


@dataclass(frozen=True, slots=True, eq=False)
class NumLit:
    """Numeric literal keeping its source spelling for faithful deparse."""

    text: str
    value: float
    is_int: bool = False  # carried an L suffix

    span: Optional[SrcSpan] = field(default=_NOSPAN, compare=False)

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
        return hash((NumLit, self.is_int, str(self.value)))

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


@dataclass(frozen=True, slots=True)
class StringLit:
    """A string literal with its escapes decoded."""

    value: str
    span: Optional[SrcSpan] = field(default=_NOSPAN, compare=False)


@dataclass(frozen=True, slots=True)
class SymbolRef:
    """A name. The empty name is R's missing argument (as in `x[, 1]`)."""

    name: str
    span: Optional[SrcSpan] = field(default=_NOSPAN, compare=False)


@dataclass(frozen=True, slots=True)
class Arg:
    """One call argument, optionally named (`value = TRUE`)."""

    value: "Expr"
    name: Optional[str] = None


@dataclass(frozen=True, slots=True)
class Call:
    """A callee applied to arguments: every operator, brace and keyword too."""

    callee: "Expr"
    args: tuple[Arg, ...] = ()
    span: Optional[SrcSpan] = field(default=_NOSPAN, compare=False)

    def callee_name(self) -> Optional[str]:
        return self.callee.name if isinstance(self.callee, SymbolRef) else None


Expr = Union[NullLit, LogicalLit, NumLit, StringLit, SymbolRef, Call]


# Unchecked constructors for the parser's hot path. Each makes the same
# object as the public constructor, but fills the slots through the class's
# own member descriptors: no dataclass `__init__` (one `object.__setattr__`
# per field) and no `SrcSpan.__post_init__`, so a caller passes only a span
# that is already ordered. Written out per class: a loop over the slots
# costs most of what this saves.
def _setters(cls: type) -> list:
    return [getattr(cls, name).__set__ for name in cls.__slots__]


_new = object.__new__
_start_line, _start_col, _end_line, _end_col = _setters(SrcSpan)
_symbol_name, _symbol_span = _setters(SymbolRef)
_arg_value, _arg_name = _setters(Arg)
_call_callee, _call_args, _call_span = _setters(Call)


def unchecked_span(start_line: int, start_col: int, end_line: int, end_col: int) -> SrcSpan:
    span = _new(SrcSpan)
    _start_line(span, start_line)
    _start_col(span, start_col)
    _end_line(span, end_line)
    _end_col(span, end_col)
    return span


def unchecked_symbol(name: str, span: SrcSpan) -> SymbolRef:
    symbol = _new(SymbolRef)
    _symbol_name(symbol, name)
    _symbol_span(symbol, span)
    return symbol


def unchecked_arg(value: Expr, name: Optional[str] = None) -> Arg:
    arg = _new(Arg)
    _arg_value(arg, value)
    _arg_name(arg, name)
    return arg


def unchecked_call(callee: Expr, args: tuple[Arg, ...], span: SrcSpan) -> Call:
    node = _new(Call)
    _call_callee(node, callee)
    _call_args(node, args)
    _call_span(node, span)
    return node


def call(name: str, *args: Union[Expr, Arg], **named: Expr) -> Call:
    """Convenience constructor used by tests: call("+", a, b)."""
    built = [a if isinstance(a, Arg) else Arg(a) for a in args]
    built += [Arg(v, name=k) for k, v in named.items()]
    return Call(SymbolRef(name), tuple(built))


def walk_calls(expr: Expr) -> Iterator[tuple[Call, int]]:
    """Every Call node with its nesting depth, pre-order: a call, then its
    callee subtree, then each argument left to right. The walk keeps its own
    stack, so a tree of any depth is walked."""
    stack: list[tuple[Expr, int]] = [(expr, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, Call):
            yield node, depth
            depth += 1
            stack.extend([(a.value, depth) for a in reversed(node.args)])
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
        args = tuple(Arg(from_json(a["value"]), a.get("name")) for a in data["args"])
        return Call(from_json(data["callee"]), args)
    raise ValueError(f"unknown node kind {kind!r}")
