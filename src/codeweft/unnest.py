"""Flatten expression trees into tidy function/argument rows.

Every Call node becomes one row, visited depth-first in pre-order: a
call's own row comes first, then rows from its callee subtree, then rows
from each argument left to right. Literals and symbols produce nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import CallRecord
from .deparse import deparse
from .rast import Arg, Expr, SymbolRef, walk_calls


@dataclass(frozen=True, slots=True)
class FuncToken:
    """One flattened call: function name plus its argument expressions."""

    func: str
    args: tuple[Arg, ...]
    file: str
    line: int
    depth: int  # nesting depth of the call within its top-level expression


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
