"""The contract of the span, tree-node and row types.

They are frozen slotted classes on one base: immutable, without a
per-instance `__dict__`, compared and hashed by value with spans left out.
"""

import copy
import gc
import math
import pickle
import re
from datetime import datetime, timezone
from pathlib import Path

import pytest

from codeweft.corpus import CallRecord
from codeweft.lexer import tokenize
from codeweft.lexicon import ClassificationEntry
from codeweft.parser import parse_expr, parse_program
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


def _nodes(expr):
    """Every node of a tree: each call, its callee and each argument's value."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Call):
            stack += [node.callee, *(arg.value for arg in node.args)]


def test_a_backwards_span_raises_through_each_constructor():
    backwards = re.escape("backwards span: SrcSpan(start_line=2, start_col=1, end_line=1, end_col=1)")
    with pytest.raises(ValueError, match=backwards):
        Call(SymbolRef("f"), (), SrcSpan(2, 1, 1, 1))
    # the parser's path: token 1's position packed back to the end of token 0
    pos = tokenize("a\nb").position(1, 0)
    builds = [NullLit, lambda p: LogicalLit(True, p), lambda p: NumLit("1", 1.0, span=p),
              lambda p: StringLit("s", p), lambda p: SymbolRef("x", p),
              lambda p: Call(SymbolRef("f"), (), p)]
    for build in builds:
        with pytest.raises(ValueError, match=backwards):
            build(pos)
    # a column too wide to pack leaves the SrcSpan itself, checked as it is built
    with pytest.raises(ValueError, match="backwards span"):
        tokenize("a\n" + " " * 20000 + "b").position(1, 0)
    # no ordered span packs to a negative int
    with pytest.raises(ValueError, match="backwards span"):
        SymbolRef("x", -1)


@pytest.mark.parametrize("text", ["y <- f(x = 1L, 'a', NULL, TRUE, NaN)[[2]]",
                                  " " * 20000 + "g(h = 'i')"], ids=["packed", "too-wide-to-pack"])
def test_parsed_nodes_keep_their_spans_through_repr_pickle_and_copy(text):
    for node in _nodes(parse_expr(text)):
        span = node.span
        assert isinstance(span, SrcSpan), node
        assert repr(node).endswith(f"span={span!r})"), node
        # pickle rebuilds through the public constructor, from the SrcSpan
        copied = pickle.loads(pickle.dumps(node))
        assert (copied, hash(copied), copied.span, repr(copied)) == (node, hash(node), span, repr(node))
        assert copy.copy(node) is node
        assert copy.deepcopy(node) is node


def test_no_parsed_node_references_a_span_object(parser_goldens, example_scripts):
    # a node keeps its position packed in an int, and builds a SrcSpan when it is read
    texts = [entry["src"] for entry in parser_goldens]
    texts += [Path(path).read_text(encoding="utf-8") for path in example_scripts]
    for text in texts:
        for expr, _ in parse_program(text).exprs:
            for node in _nodes(expr):
                assert not any(isinstance(ref, SrcSpan) for ref in gc.get_referents(node)), text


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


def test_immutable_values_copy_as_themselves():
    tree = parse_expr("y <- f(x = 1L)[[2]]")
    values = [tree, tree.args[0], tree.span, CallRecord("a.R", tree, 1), ENTRY,
              *unnest_calls(CallRecord("a.R", tree, 1))]
    for value in values:
        assert copy.copy(value) is value
        assert copy.deepcopy(value) is value
    chain = parse_expr("x" + " %>% f()" * 1000)
    assert copy.deepcopy(chain) is chain
    # an event's meta is a dict, so a deep copy is a new event with a new dict
    copied = copy.deepcopy(EVENT)
    assert copied == EVENT
    assert copied.meta is not EVENT.meta


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
