"""The contract of the span, tree-node and row types.

They are frozen slotted dataclasses: immutable, without a per-instance
`__dict__`, compared and hashed by value with spans left out.
"""

import copy
import dataclasses
import math
import pickle

import pytest

from codeweft.corpus import CallRecord
from codeweft.parser import parse_expr
from codeweft.rast import (
    Arg,
    Call,
    LogicalLit,
    NullLit,
    NumLit,
    SrcSpan,
    StringLit,
    SymbolRef,
)
from codeweft.unnest import FuncToken, unnest_calls

SPAN = SrcSpan(1, 1, 1, 3)

INSTANCES = [
    SPAN,
    NullLit(SPAN),
    LogicalLit(True, SPAN),
    NumLit("1", 1.0, span=SPAN),
    StringLit("s", SPAN),
    SymbolRef("x", SPAN),
    Arg(SymbolRef("x"), "name"),
    Call(SymbolRef("f"), (Arg(NullLit()),), SPAN),
    FuncToken("f", (), "a.R", 1, 0),
    CallRecord("a.R", SymbolRef("x"), 1),
]


@pytest.mark.parametrize("obj", INSTANCES, ids=lambda obj: type(obj).__name__)
def test_instances_are_slotted_and_frozen(obj):
    assert not hasattr(obj, "__dict__")
    field = dataclasses.fields(obj)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, field, getattr(obj, field))


def test_span_rejects_a_backwards_region():
    with pytest.raises(ValueError):
        SrcSpan(2, 1, 1, 1)


def test_equal_trees_with_different_spans_compare_and_hash_equal():
    a = parse_expr("f(x, 1L, 'a', TRUE, NULL)")
    b = parse_expr("f(  x,\n  1L, 'a',   TRUE, NULL)")
    assert a.span != b.span
    assert a.args[1].value.span != b.args[1].value.span
    assert a == b
    assert hash(a) == hash(b)
    assert a != parse_expr("f(x, 1L, 'a', TRUE, NA)")


def test_numlit_compares_by_value_and_nan_equals_nan():
    assert NumLit("1e3", 1000.0) == NumLit("1000", 1000.0)
    assert hash(NumLit("1e3", 1000.0)) == hash(NumLit("1000", 1000.0))
    assert NumLit("1", 1.0, is_int=True) != NumLit("1", 1.0)
    nan = NumLit("NaN", math.nan, span=SPAN)
    assert nan == NumLit("NaN", math.nan)
    assert hash(nan) == hash(NumLit("NaN", math.nan))


@pytest.mark.parametrize("clone", [lambda obj: pickle.loads(pickle.dumps(obj)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_trees_and_rows_survive_pickle_and_deepcopy(clone):
    tree = parse_expr("y <- f(x = 1L, 'a', NULL, TRUE, NaN)[[2]]")
    copied = clone(tree)
    assert copied == tree
    assert copied.span == tree.span
    rows = unnest_calls(CallRecord("a.R", tree, 1))
    assert clone(rows) == rows
