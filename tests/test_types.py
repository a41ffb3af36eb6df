"""The contract of the span, tree-node and row types.

They are frozen slotted classes on one base: immutable, without a
per-instance `__dict__`, compared and hashed by value with spans left out.
"""

import copy
import math
import pickle
from datetime import datetime, timezone

import pytest

from codeweft.corpus import CallRecord
from codeweft.lexicon import ClassificationEntry
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
from codeweft.recorder import KIND_EXPRESSION, SessionEvent
from codeweft.unnest import FuncToken, unnest_calls

SPAN = SrcSpan(1, 1, 1, 3)
ENTRY = ClassificationEntry("f", "import", "leeklab", 1.0)
EVENT = SessionEvent(KIND_EXPRESSION, datetime(2024, 1, 2, tzinfo=timezone.utc), "f(x)",
                     {"parsed": True})

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
    ENTRY,
    EVENT,
]

# the parser and the lexer build these from token positions; each is paired
# with the same value spelled out to its constructor
PARSED = parse_expr("f(x, n = y)")
PARSED_AND_PUBLIC = [
    (PARSED.span, SrcSpan(1, 1, 1, 11)),
    (PARSED.callee, SymbolRef("f", SrcSpan(1, 1, 1, 1))),
    (PARSED.args[1], Arg(SymbolRef("y", SrcSpan(1, 10, 1, 10)), "n")),
    (PARSED, Call(
        SymbolRef("f", SrcSpan(1, 1, 1, 1)),
        (Arg(SymbolRef("x", SrcSpan(1, 3, 1, 3))), Arg(SymbolRef("y", SrcSpan(1, 10, 1, 10)), "n")),
        SrcSpan(1, 1, 1, 11),
    )),
]
INSTANCES += [pytest.param(parsed, id=f"parsed-{type(parsed).__name__}")
              for parsed, _ in PARSED_AND_PUBLIC]


@pytest.mark.parametrize("obj", INSTANCES, ids=lambda obj: type(obj).__name__)
def test_instances_are_slotted_and_frozen(obj):
    assert not hasattr(obj, "__dict__")
    assert type(obj).__slots__
    for field in type(obj).__slots__:
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(obj, field, getattr(obj, field))
        with pytest.raises(AttributeError, match="cannot assign to field"):
            delattr(obj, field)


@pytest.mark.parametrize("parsed, public", PARSED_AND_PUBLIC,
                         ids=[type(parsed).__name__ for parsed, _ in PARSED_AND_PUBLIC])
def test_parser_built_objects_match_their_public_constructor(parsed, public):
    assert type(parsed) is type(public)
    assert parsed == public
    assert hash(parsed) == hash(public)
    assert repr(parsed) == repr(public)


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
    assert NumLit.of(0.0) == NumLit.of(-0.0)
    assert hash(NumLit.of(0.0)) == hash(NumLit.of(-0.0))
    assert len({NumLit.of(0.0), NumLit.of(-0.0)}) == 1


def test_numlit_of_spells_its_value():
    assert [NumLit.of(v).text for v in (2.5, 3, 3.0)] == ["2.5", "3", "3"]
    assert NumLit.of(3, is_int=True) == NumLit("3", 3.0, is_int=True)


@pytest.mark.parametrize("clone", [lambda obj: pickle.loads(pickle.dumps(obj)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_trees_and_rows_survive_pickle_and_deepcopy(clone):
    tree = parse_expr("y <- f(x = 1L, 'a', NULL, TRUE, NaN)[[2]]")
    copied = clone(tree)
    assert copied == tree
    assert copied.span == tree.span
    rows = unnest_calls(CallRecord("a.R", tree, 1))
    assert clone(rows) == rows
    assert clone(ENTRY) == ENTRY
    assert clone(EVENT) == EVENT


@pytest.mark.xfail(strict=True, raises=RecursionError,
                   reason="==, hash, repr, pickle and deepcopy recurse down a chain's left spine")
def test_a_long_chain_compares_hashes_prints_pickles_and_copies():
    text = "x" + " %>% f()" * 250
    tree, again = parse_expr(text), parse_expr(text)
    assert tree == again
    assert hash(tree) == hash(again)
    assert repr(tree).startswith("Call(")
    assert pickle.loads(pickle.dumps(tree)) == tree
    assert copy.deepcopy(tree) == tree
