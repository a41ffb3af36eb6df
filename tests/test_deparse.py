import pytest

from codeweft.deparse import deparse, escape_string, symbol_text
from codeweft.parser import parse_expr
from codeweft.rast import Arg, Call, NumLit, SymbolRef, call, from_json, strip_parens, to_json


@pytest.mark.parametrize(
    "src",
    [
        "x + y",
        "x + y * z",
        "(x + y) * z",
        "x^y^z",
        "2^-3",
        "-x^2",
        "x + -y",
        "1:10",
        "-1:3",
        "a %>% b() %>% c()",
        "x %in% y",
        "x <- y",
        "x <<- f(1)",
        "x = 1",
        "x$y$z",
        "pkg::fn(x)",
        "x[1, ]",
        "x[[1]]",
        "m[1:3, ]",
        "f(a = 1, b)",
        'f("nm" = 1)',
        "f(, 2)",
        "f(x)(y)",
        "!x & y",
        "y ~ x + z",
        "~x",
        "if (x) y else z",
        "while (x > 1) f(x)",
        "for (i in 1:3) print(i)",
        "repeat break",
        "function(a, b = 2) a + b",
        "NULL",
        "TRUE",
        "NA",
        "Inf",
        "42L",
        '"hi there"',
        "`weird name`(1)",
        "x[]",
    ],
)
def test_canonical_text_is_stable(src):
    text = deparse(parse_expr(src))
    assert deparse(parse_expr(text)) == text


@pytest.mark.parametrize(
    "src,expected",
    [
        ("x+y", "x + y"),
        ("x ^ y", "x^y"),
        ("1 : 3", "1:3"),
        ("x $ y", "x$y"),
        ("f( a=1 )", "f(a = 1)"),
        ("1 -> x", "x <- 1"),
        ("x<-y", "x <- y"),
    ],
)
def test_canonical_spacing(src, expected):
    assert deparse(parse_expr(src)) == expected


def test_block_layout():
    assert deparse(parse_expr("{ x; y }")) == "{\n    x\n    y\n}"
    assert deparse(parse_expr("{ }")) == "{\n}"


def test_roundtrip_preserves_structure(parser_goldens):
    for entry in parser_goldens:
        tree = parse_expr(entry["src"])
        again = parse_expr(deparse(tree))
        assert strip_parens(again) == strip_parens(tree), entry["src"]


def test_synthesized_tree_gets_parens():
    tree = call("*", call("+", SymbolRef("a"), SymbolRef("b")), SymbolRef("c"))
    assert deparse(tree) == "(a + b) * c"


def test_synthesized_tree_without_need_for_parens():
    tree = call("+", call("*", SymbolRef("a"), SymbolRef("b")), SymbolRef("c"))
    assert deparse(tree) == "a * b + c"


def test_positional_eq_argument_is_parenthesized():
    # f((a = 1)) and f(a = 1) mean different things; an `=` call passed
    # positionally must keep its parens
    tree = call("f", call("=", SymbolRef("a"), NumLit.of(1)))
    text = deparse(tree)
    assert parse_expr(text) != parse_expr("f(a = 1)")


def test_named_argument_roundtrip():
    tree = Call(SymbolRef("f"), (Arg(NumLit.of(1), name="a"),))
    assert deparse(tree) == "f(a = 1)"


def test_argument_named_by_the_empty_string_keeps_its_quotes():
    tree = parse_expr('f("" = 1, , x)')
    assert tree.args[0].name == ""
    assert deparse(tree) == 'f("" = 1, , x)'
    assert parse_expr(deparse(tree)) == tree
    # an empty backtick name is an error as a symbol, but names an argument
    assert parse_expr("f(`` = 1, , x)") == tree


@pytest.mark.parametrize(
    "tree", [Call(SymbolRef(""), (Arg(NumLit.of(1)),)), SymbolRef("")], ids=["callee", "whole-tree"]
)
def test_from_json_rejects_an_empty_symbol_outside_an_argument(tree):
    # no text holds it: the empty callee would print as `(1)`, the whole tree as nothing
    with pytest.raises(ValueError, match="empty symbol"):
        from_json(to_json(tree))


HOLE = SymbolRef("")


@pytest.mark.parametrize(
    "tree, text",
    [
        (parse_expr("x[, 1]"), "x[, 1]"),
        (parse_expr("x[]"), "x[]"),
        (parse_expr("function(a, b = 1) a"), "function(a, b = 1) a"),
        # an operand prints as a call: ` + 1` would read back as a unary plus
        (call("+", HOLE, NumLit.of(1)), "`+`(, 1)"),
        (call("+", call("+", SymbolRef("x"), HOLE), NumLit.of(1)), "`+`(x, ) + 1"),
        (call("if", HOLE, NumLit.of(1)), "`if`(, 1)"),
        (call("[", HOLE, NumLit.of(1)), "`[`(, 1)"),
    ],
    ids=["index", "empty-index", "formal", "operand", "operand-on-a-chain", "condition", "object"],
)
def test_an_empty_symbol_as_an_argument_loads_and_round_trips(tree, text):
    loaded = from_json(to_json(tree))
    assert loaded == tree
    assert deparse(loaded) == text
    assert parse_expr(text) == tree


def test_nonsyntactic_names_get_backticks():
    assert symbol_text("my var") == "`my var`"
    assert symbol_text("if") == "`if`"
    assert symbol_text("x1") == "x1"
    assert symbol_text("read.csv") == "read.csv"


def test_escape_string():
    assert escape_string('a"b') == '"a\\"b"'
    assert escape_string("tab\there") == '"tab\\there"'
    assert escape_string("plain") == '"plain"'


def test_dangling_else_is_not_captured():
    # inner if must not swallow the outer else on reparse
    tree = parse_expr("if (a) if (b) 1 else 2")
    text = deparse(tree)
    assert strip_parens(parse_expr(text)) == strip_parens(tree)
    outer = call(
        "if", SymbolRef("a"), call("if", SymbolRef("b"), NumLit.of(1), NumLit.of(2)), NumLit.of(3),
    )
    text = deparse(outer)
    assert strip_parens(parse_expr(text)) == strip_parens(outer)


@pytest.mark.parametrize("src", ["`if`(a = x) + 1", "`%in%`(1, y = 2)^2"])
def test_call_printed_plainly_gets_a_plain_calls_parens(src):
    # a reserved callee with named arguments prints as a plain call, which
    # binds as tightly as any call and needs no parens as an operand
    tree = parse_expr(src)
    assert parse_expr(deparse(tree)) == tree
