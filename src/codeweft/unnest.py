"""Flatten expression trees into tidy function/argument rows.

Every Call node becomes one row, visited depth-first in pre-order: a
call's own row comes first, then rows from its callee subtree, then rows
from each argument left to right. Literals and symbols produce nothing.
"""

from __future__ import annotations

from .corpus import CallRecord
from .deparse import deparse
from .frozen import Frozen, setters
from .rast import Arg, Expr, SymbolRef, walk_calls


class FuncToken(Frozen):
    """One flattened call: function name plus its argument expressions."""

    __slots__ = _compared = ("func", "args", "file", "line", "depth")

    def __init__(self, func: str, args: tuple[Arg, ...], file: str, line: int, depth: int):
        _func(self, func)
        _args(self, args)
        _file(self, file)
        _line(self, line)
        _depth(self, depth)  # nesting depth of the call within its top-level expression


_func, _args, _file, _line, _depth = setters(FuncToken)


def func_name(callee: Expr) -> str:
    """Name to report for a call's function position.

    Symbols report their name; anything else (e.g. `f()` in `f()()`, or
    `pkg::fn`) reports its deparsed text.
    """
    if isinstance(callee, SymbolRef):
        return callee.name
    return deparse(callee)


def unnest_calls(record: CallRecord) -> list[FuncToken]:
    """One FuncToken per Call node of the record's expression, pre-order."""
    file, line = record.file, record.line
    return [
        FuncToken(func_name(call.callee), call.args, file, line, depth)
        for call, depth in walk_calls(record.expr)
    ]


def unnest_corpus(records: list[CallRecord]) -> list[FuncToken]:
    """Concatenated unnest_calls per record, preserving record order."""
    out: list[FuncToken] = []
    for record in records:
        out.extend(unnest_calls(record))
    return out
