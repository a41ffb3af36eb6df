import gc
import time

import pytest

from codeweft.corpus import recital
from codeweft.errors import (
    IncompleteInput,
    MultipleExpressions,
    RSyntaxError,
    UnterminatedBacktick,
)
from codeweft.parser import is_complete, parse_expr, parse_program
from codeweft.rast import Call, StringLit, SymbolRef, call, num, sym, to_json, walk_calls


def test_golden_corpus(parser_goldens):
    assert len(parser_goldens) >= 200
    start = time.monotonic()
    for entry in parser_goldens:
        tree = parse_expr(entry["src"])
        assert to_json(tree) == entry["ast"], entry["src"]
    assert time.monotonic() - start < 5.0


def test_operators_covered(parser_goldens):
    joined = " ".join(e["src"] for e in parser_goldens)
    for op in [
        "^", ":", "%in%", "%%", "%/%", "*", "/", "+", "-", "<", ">", "<=",
        ">=", "==", "!=", "&", "&&", "|", "||", "~", "->", "->>", "<-",
        "<<-", "=", "$", "@", "::", ":::", "[", "[[", "!", "{",
    ]:
        assert op in joined, f"operator {op} not exercised"


def test_every_parsed_node_has_a_span(parser_goldens):
    # calls take their spans from their operands, so every node needs one;
    # only the missing-argument slots go without, and they are never operands
    for entry in parser_goldens:
        for expr, span in parse_program(entry["src"]).exprs:
            assert span is expr.span is not None, entry["src"]
            for node, _ in walk_calls(expr):
                assert node.callee.span is not None, entry["src"]
                for arg in node.args:
                    assert arg.value.span is not None or arg.value == SymbolRef(""), entry["src"]


def test_right_assignment_is_rewritten():
    assert parse_expr("1 -> x") == parse_expr("x <- 1")
    assert parse_expr("1 ->> x") == parse_expr("x <<- 1")


def test_pipe_is_an_ordinary_call():
    assert parse_expr("a %>% f(b)") == parse_expr("`%>%`(a, f(b))")


def test_operator_call_by_backtick_name():
    assert parse_expr("`+`(1, 2)") == call("+", num(1), num(2))


def test_structural_equality_ignores_spans_and_spelling():
    assert parse_expr("x+1") == parse_expr("x + 1")
    assert parse_expr("x + 1.0") == parse_expr("x + 1")
    assert parse_expr("x + 1") != parse_expr("x + 1L")


def test_explicit_parens_are_nodes():
    tree = parse_expr("(x)")
    assert isinstance(tree, Call) and tree.callee_name() == "("


def test_member_rhs_is_symbol_not_variable():
    tree = parse_expr("x$if")
    assert tree == call("$", sym("x"), sym("if"))


def test_string_member():
    dumped = to_json(parse_expr('x$"nm"'))
    assert dumped["args"][1]["value"] == {"kind": "string", "value": "nm"}


def test_missing_argument_slots():
    tree = parse_expr("x[1, ]")
    assert to_json(tree)["args"][2]["value"] == {"kind": "symbol", "name": ""}
    tree = parse_expr("f(, 2)")
    assert to_json(tree)["args"][0]["value"] == {"kind": "symbol", "name": ""}


def test_program_lines_and_semicolons():
    result = parse_program("x <- 1\ny; z\n\nw")
    assert not result.errors
    lines = [span.start_line for _, span in result.exprs]
    assert lines == [1, 2, 2, 4]


def test_program_recovers_after_error():
    result = parse_program("x <- ) nonsense\ny <- 1")
    assert len(result.errors) == 1
    assert len(result.exprs) == 1
    assert result.exprs[0][1].start_line == 2


def test_error_mentions_location():
    result = parse_program("x <- ) nonsense")
    assert "line 1" in str(result.errors[0])


def test_parse_expr_rejects_multiple():
    with pytest.raises(MultipleExpressions):
        parse_expr("x\ny")


def test_parse_expr_rejects_garbage():
    with pytest.raises(RSyntaxError):
        parse_expr("x +")


def test_incomplete_signals_distinctly():
    with pytest.raises(IncompleteInput):
        parse_expr("f(")


@pytest.mark.parametrize(
    "text,complete",
    [
        ("f(", False),
        ("f(1,", False),
        ("x +", False),
        ("x <-", False),
        ("function(a)", False),
        ("if (x)", False),
        ("{", False),
        ("x[1", False),
        ('"open', False),
        ("`open", False),
        ("f(1)\ng(", False),
        ("'a\nb", False),
        ("f(1)", True),
        ("x + y", True),
        ("{ x }", True),
        ("if (x) y", True),
        ("NULL", True),
    ],
)
def test_is_complete(text, complete):
    assert is_complete(text) is complete


@pytest.mark.parametrize(
    "text,error",
    [
        # the first error decides, even when the text ends mid-expression
        ("x <- )\nf(", RSyntaxError),
        # a backtick name cut by a line break can no longer be closed
        ("`abc\nx", UnterminatedBacktick),
    ],
)
def test_is_complete_raises_the_first_hard_error(text, error):
    with pytest.raises(error) as exc:
        is_complete(text)
    assert type(exc.value) is error


@pytest.mark.parametrize(
    "text",
    ["\n".join(f"x{i} <- f({i})" for i in range(200)) + "\ny <- )\n", "x <- 1\ny <- '\\q'\n"],
    ids=["syntax-error", "lexer-error"],
)
@pytest.mark.parametrize("parse", [parse_program, recital], ids=["parse_program", "recital"])
def test_failed_parse_leaves_no_reference_cycle(text, parse):
    # a stored error that kept its traceback would hold the parser's frames,
    # and through them the result, so only the cyclic collector could free it
    gc.collect()
    gc.disable()
    try:
        result = parse(text)
        assert result.errors
        del result
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_else_requires_brace_context_after_newline():
    # top level: the if closes at the newline, the dangling else is an error
    result = parse_program("if (x) 1\nelse 2")
    assert result.errors
    # inside braces the else may start a new line
    tree = parse_expr("{\nif (x) 1\nelse 2\n}")
    inner = to_json(tree)["args"][0]["value"]
    assert len(inner["args"]) == 3


def test_newline_inside_call_continues_expression():
    assert parse_expr("f(\n1,\n2\n)") == parse_expr("f(1, 2)")


def test_string_expression_survives():
    result = parse_program('"just a string"')
    assert isinstance(result.exprs[0][0], StringLit)


def test_empty_program():
    result = parse_program("")
    assert result.exprs == [] and result.errors == []


def test_comments_only_program():
    result = parse_program("# nothing here\n# at all\n")
    assert result.exprs == [] and result.errors == []
