import gc
import json
import math
import time

import pytest

from codeweft.corpus import CallRecord, recital
from codeweft.deparse import deparse
from codeweft.errors import (
    IncompleteInput,
    InvalidCharacter,
    MultipleExpressions,
    NestingTooDeep,
    RSyntaxError,
    UnterminatedBacktick,
    UnterminatedString,
)
from codeweft.parser import MAX_NESTING, is_complete, parse_expr, parse_program, resume_program
from codeweft.rast import (
    Arg,
    Call,
    NumLit,
    SrcSpan,
    StringLit,
    SymbolRef,
    call,
    from_json,
    strip_parens,
    to_json,
    walk_calls,
)
from codeweft.unnest import unnest_calls
from nesting_forms import NESTED

HOLE = SymbolRef("")  # R's missing argument


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
            # a span is built when read, so each read is a new, equal SrcSpan
            assert isinstance(span, SrcSpan) and span == expr.span, entry["src"]
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
    assert parse_expr("`+`(1, 2)") == call("+", NumLit.of(1), NumLit.of(2))


def test_structural_equality_ignores_spans_and_spelling():
    assert parse_expr("x+1") == parse_expr("x + 1")
    assert parse_expr("x + 1.0") == parse_expr("x + 1")
    assert parse_expr("x + 1") != parse_expr("x + 1L")


def test_explicit_parens_are_nodes():
    tree = parse_expr("(x)")
    assert isinstance(tree, Call) and tree.callee_name() == "("


def test_member_rhs_is_symbol_not_variable():
    tree = parse_expr("x$if")
    assert tree == call("$", SymbolRef("x"), SymbolRef("if"))


def test_string_member():
    dumped = to_json(parse_expr('x$"nm"'))
    assert dumped["args"][1]["value"] == {"kind": "string", "value": "nm"}


def test_missing_argument_slots():
    tree = parse_expr("x[1, ]")
    assert to_json(tree)["args"][2]["value"] == {"kind": "symbol", "name": ""}
    tree = parse_expr("f(, 2)")
    assert to_json(tree)["args"][0]["value"] == {"kind": "symbol", "name": ""}


@pytest.mark.parametrize(
    "text, tree",
    [
        ("f(a = )", call("f", Arg(HOLE, "a"))),
        ("alist(x = , y = 1)", call("alist", Arg(HOLE, "x"), y=NumLit.of(1))),
        ('f("" = , 2)', call("f", Arg(HOLE, ""), NumLit.of(2))),
        ("x[i = ]", call("[", SymbolRef("x"), Arg(HOLE, "i"))),
    ],
)
def test_a_named_empty_argument_is_the_missing_argument(text, tree):
    # valid R, as in `alist(x = )`: the name holds R's missing argument
    assert parse_expr(text) == tree
    assert deparse(tree) == text


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


@pytest.mark.parametrize(
    "text, kept, errors, incomplete",
    [
        ('x <- 1\ny <- 2\nw <- "unterminated\n', ["x <- 1", "y <- 2"], [(UnterminatedString, 3)],
         True),
        # the expression a lexer error cuts off goes, whether or not its tokens parse
        ("x <- 1\ny <- 2\u00b2\nz <- 3\n", ["x <- 1"], [(InvalidCharacter, 2)], False),
        ("x <- 1; f(a, \u00b2)", ["x <- 1"], [(InvalidCharacter, 1)], False),
        # an error before the lexer error stays, ahead of it, on its own line, and
        # decides `incomplete`: no more input repairs it
        ("x <- )\ny <- 1\n`tick", ["y <- 1"], [(RSyntaxError, 1), (UnterminatedBacktick, 3)],
         False),
        ("x <- 1\n" + "(" * 101 + "\u00b2", ["x <- 1"], [(NestingTooDeep, 2), (InvalidCharacter, 2)],
         False),
    ],
    ids=["string", "after-a-complete-operand", "inside-a-call", "after-a-syntax-error",
         "after-nesting-too-deep"],
)
def test_lexer_error_keeps_the_expressions_before_it(text, kept, errors, incomplete):
    result = parse_program(text)
    assert [deparse(expr) for expr, _ in result.exprs] == kept
    assert [(type(err), err.span.start_line) for err in result.errors] == errors
    assert result.incomplete is incomplete


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
        ('x <- )\n"open', RSyntaxError),
        # a backtick name cut by a line break can no longer be closed
        ("`abc\nx", UnterminatedBacktick),
    ],
)
def test_is_complete_raises_the_first_hard_error(text, error):
    with pytest.raises(error) as exc:
        is_complete(text)
    assert type(exc.value) is error


@pytest.mark.parametrize(
    "text, keyword, col", [("else", "else", 1), ("x <- else", "else", 6), ("f(in", "in", 3)]
)
def test_stray_else_or_in_is_an_error_at_the_keyword(text, keyword, col):
    # R: "unexpected 'else'"; not the next token's error, and no more input repairs it
    with pytest.raises(RSyntaxError) as exc:
        is_complete(text)
    assert type(exc.value) is RSyntaxError
    assert str(exc.value).startswith(f"unexpected {keyword!r}")
    assert (exc.value.span.start_line, exc.value.span.start_col) == (1, col)


@pytest.mark.parametrize(
    "text, error",
    [
        ("function(1) x", "unexpected '1'; expected formal argument name (line 1, col 10)"),
        ("function(a, ) x", "unexpected ')'; expected formal argument name (line 1, col 13)"),
        ("function(a = ) 1", "unexpected ')'; expected an expression (line 1, col 14)"),
    ],
)
def test_formals_errors(text, error):
    result = parse_program(text)
    assert [str(err) for err in result.errors] == [error]
    assert not result.exprs and not result.incomplete


@pytest.mark.parametrize(
    "text, col",
    [("x <- ``", 6), ("`` + 1", 1), ("``(1)", 1), ("function(``) 1", 10), ("x$``", 3),
     ("x::``", 4), ("for (`` in x) y", 6)],
    ids=["operand", "left-operand", "callee", "formal", "member", "namespace", "for-variable"],
)
def test_an_empty_backtick_name_is_a_syntax_error(text, col):
    # R: "attempt to use zero-length variable name"; an empty symbol is codeweft's
    # missing argument, which deparses to nothing
    result = parse_program(f"{text}\ny <- 1")
    assert [(type(err), err.span.start_line, err.span.start_col) for err in result.errors] == [
        (RSyntaxError, 1, col)
    ]
    assert "zero-length variable name" in str(result.errors[0])
    assert [(deparse(expr), span.start_line) for expr, span in result.exprs] == [("y <- 1", 2)]
    assert not result.incomplete


def line_by_line(text):
    """`text` parsed a line at a time, as `record` does: an incomplete result resumes."""
    lines = text.split("\n")
    result = parse_program(lines[0])
    for i in range(2, len(lines) + 1):
        if result.incomplete:
            result = resume_program(result, lines[i - 1])
        else:
            result = parse_program("\n".join(lines[:i]))
    return result


@pytest.mark.parametrize(
    "text",
    ["\n".join(f"x{i} <- f({i})" for i in range(200)) + "\ny <- )\n", "x <- 1\ny <- '\\q'\n",
     "f(\n1,\n'\\q'\n"],
    ids=["syntax-error", "lexer-error", "lexer-error-in-a-call"],
)
@pytest.mark.parametrize(
    "parse", [parse_program, recital, line_by_line], ids=["parse_program", "recital", "resumed"]
)
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


@pytest.mark.parametrize(
    "text, exprs, errors",
    [
        # the error's recovery consumes the block's `}`, so the `if` is at top level
        ("{ x y }\nif (a) b\nelse c\n", ["if (a) b"], [(1, 5), (3, 1)]),
        ("f(x y)\nif (a) b\nelse c\n", ["if (a) b"], [(1, 5), (3, 1)]),
        # the block stays open, so the `else` joins the `if` inside it
        ("{\n x y\n if (a) b\n else c\n}\n", ["if (a) b else c"], [(2, 4), (5, 1)]),
    ],
    ids=["closed-block", "closed-call", "open-block"],
)
def test_recovery_leaves_a_block_its_error_closed(text, exprs, errors):
    result = parse_program(text)
    assert [deparse(e) for e, _ in result.exprs] == exprs
    assert [(e.span.start_line, e.span.start_col) for e in result.errors] == errors


@pytest.mark.parametrize(
    "text, exprs, errors",
    [
        ("f({\n if (a) b\n else c\n})", ["f({\n    if (a) b else c\n})"], []),
        # a closed block leaves the `if` at top level, where its line ends it
        ("{\n}\nif (a) b\nelse c\n", ["{\n}", "if (a) b"], [(4, 1)]),
        # the lexer's stack decides: a stray `]` closes the `{`, so the `else` is stray too
        ("f <- function(a) {\n]\nif (a) b\nelse c\n}", ["if (a) b"], [(2, 1), (4, 1), (5, 1)]),
    ],
    ids=["block-inside-call", "after-a-closed-block", "after-a-stray-closer"],
)
def test_else_on_its_own_line_joins_only_inside_a_block(text, exprs, errors):
    result = parse_program(text)
    assert [deparse(e) for e, _ in result.exprs] == exprs
    assert [(e.span.start_line, e.span.start_col) for e in result.errors] == errors


def test_only_an_incomplete_result_resumes_and_only_once():
    with pytest.raises(ValueError, match="incomplete"):
        resume_program(parse_program("f(1)"), "x")
    result = parse_program("f(")
    resumed = resume_program(result, "1)")
    assert [deparse(e) for e in resumed.trees] == ["f(1)"]
    with pytest.raises(ValueError, match="once"):
        resume_program(result, "1)")


def test_else_on_its_own_line_joins_inside_a_resumed_block():
    # every line before the last leaves the block open, so each one resumes
    result = line_by_line("f({\n if (a) b\n\n else c\n})")
    assert [deparse(e) for e, _ in result.exprs] == ["f({\n    if (a) b else c\n})"]
    assert not result.errors


def test_non_finite_numbers_dump_as_strict_json():
    trees = [e for e, _ in parse_program("Inf\nNaN\n1e999\n").exprs] + [NumLit.of(-math.inf)]
    dumps = [json.dumps(to_json(t)) for t in trees]

    def refuse(name):
        raise ValueError(f"not standard JSON: {name}")

    loaded = [json.loads(d, parse_constant=refuse) for d in dumps]
    assert [d["value"] for d in loaded] == ["Inf", "NaN", "Inf", "-Inf"]
    assert [from_json(d) for d in loaded] == trees


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


def spans(expr):
    """The tree as nested tuples of (callee, args, span), leaves as (value, span);
    a missing argument has no span."""
    s = expr.span
    where = s and (s.start_line, s.start_col, s.end_line, s.end_col)
    if isinstance(expr, Call):
        return (spans(expr.callee), [spans(a.value) for a in expr.args], where)
    return (getattr(expr, "name", getattr(expr, "value", None)), where)


@pytest.mark.parametrize(
    "text, expected, errors",
    [
        (
            'f("a\nb", x)',
            [(("f", (1, 1, 1, 1)), [("a\nb", (1, 3, 2, 2)), ("x", (2, 5, 2, 5))], (1, 1, 2, 6))],
            [],
        ),
        (
            # the rewritten `<-` keeps the `->` token's span; operands swap
            "1 -> x",
            [(("<-", (1, 3, 1, 4)), [("x", (1, 6, 1, 6)), (1.0, (1, 1, 1, 1))], (1, 1, 1, 6))],
            [],
        ),
        (
            "x[[\ni\n]]",
            [(("[[", (1, 2, 1, 3)), [("x", (1, 1, 1, 1)), ("i", (2, 1, 2, 1))], (1, 1, 3, 2))],
            [],
        ),
        (
            "`if`(a)",
            [(("if", (1, 1, 1, 4)), [("a", (1, 6, 1, 6))], (1, 1, 1, 7))],
            [],
        ),
        (
            "x <- 1; y; f(z)",
            [
                (("<-", (1, 3, 1, 4)), [("x", (1, 1, 1, 1)), (1.0, (1, 6, 1, 6))], (1, 1, 1, 6)),
                ("y", (1, 9, 1, 9)),
                (("f", (1, 12, 1, 12)), [("z", (1, 14, 1, 14))], (1, 12, 1, 15)),
            ],
            [],
        ),
        (
            "f(1,\n",
            [],
            [(IncompleteInput, "unexpected end of input; expected an expression (line 2, col 1)",
              (2, 1, 2, 1))],
        ),
        (
            "for (i in x)\n y",
            [(("for", (1, 1, 1, 3)), [("i", (1, 6, 1, 6)), ("x", (1, 11, 1, 11)), ("y", (2, 2, 2, 2))],
              (1, 1, 2, 2))],
            [],
        ),
        (
            "while (a) b",
            [(("while", (1, 1, 1, 5)), [("a", (1, 8, 1, 8)), ("b", (1, 11, 1, 11))], (1, 1, 1, 11))],
            [],
        ),
        (
            "repeat break",
            [(("repeat", (1, 1, 1, 6)), [(("break", (1, 8, 1, 12)), [], (1, 8, 1, 12))], (1, 1, 1, 12))],
            [],
        ),
        ("next", [(("next", (1, 1, 1, 4)), [], (1, 1, 1, 4))], []),
        (
            "function(a, b = 1)\n a",
            [(("function", (1, 1, 1, 8)), [("", None), (1.0, (1, 17, 1, 17)), ("a", (2, 2, 2, 2))],
              (1, 1, 2, 2))],
            [],
        ),
        (
            "{ if (a) b\n else c }",
            [(("{", (1, 1, 1, 1)),
              [(("if", (1, 3, 1, 4)), [("a", (1, 7, 1, 7)), ("b", (1, 10, 1, 10)), ("c", (2, 7, 2, 7))],
                (1, 3, 2, 7))],
              (1, 1, 2, 9))],
            [],
        ),
        ("f(,)", [(("f", (1, 1, 1, 1)), [("", None), ("", None)], (1, 1, 1, 4))], []),
        ("f(a,)", [(("f", (1, 1, 1, 1)), [("a", (1, 3, 1, 3)), ("", None)], (1, 1, 1, 5))], []),
        ("x[]", [(("[", (1, 2, 1, 2)), [("x", (1, 1, 1, 1)), ("", None)], (1, 1, 1, 3))], []),
        (
            "x[[1, ]]",
            [(("[[", (1, 2, 1, 3)), [("x", (1, 1, 1, 1)), (1.0, (1, 4, 1, 4)), ("", None)], (1, 1, 1, 8))],
            [],
        ),
        ("-x", [(("-", (1, 1, 1, 1)), [("x", (1, 2, 1, 2))], (1, 1, 1, 2))], []),
        ("(x)", [(("(", (1, 1, 1, 1)), [("x", (1, 2, 1, 2))], (1, 1, 1, 3))], []),
    ],
    ids=["multiline-string-arg", "right-assign", "double-bracket-lines", "backtick-callee",
         "semicolons", "unterminated-call", "for-body-next-line", "while", "repeat-break", "next",
         "function-formals", "braced-if-else", "two-missing-args", "trailing-comma",
         "empty-subscript", "double-bracket-trailing-comma", "unary-minus", "parens"],
)
def test_node_spans(text, expected, errors):
    result = parse_program(text)
    assert [spans(expr) for expr, _ in result.exprs] == expected
    assert [span for _, span in result.exprs] == [expr.span for expr, _ in result.exprs]
    assert [
        (type(e), str(e), (e.span.start_line, e.span.start_col, e.span.end_line, e.span.end_col))
        for e in result.errors
    ] == errors


@pytest.mark.parametrize("form", NESTED)
def test_nesting_at_the_cap_parses_deparses_unnests_and_dumps(form):
    tree = parse_expr(NESTED[form](MAX_NESTING))
    assert strip_parens(parse_expr(deparse(tree))) == strip_parens(tree)
    assert len(unnest_calls(CallRecord("a.R", tree, 1))) == sum(1 for _ in walk_calls(tree))
    assert to_json(tree)["kind"] == "call"


@pytest.mark.parametrize("form", NESTED)
def test_nesting_past_the_cap_is_a_per_expression_error(form):
    deep = NESTED[form](MAX_NESTING + 1)
    with pytest.raises(NestingTooDeep):
        parse_expr(deep)
    result = parse_program(f"a <- 1\n{deep}\nb <- 2\n")
    assert [type(err) for err in result.errors] == [NestingTooDeep]
    assert not result.incomplete
    assert [span.start_line for _, span in result.exprs] == [1, 3]


def test_nesting_far_past_the_cap_is_not_a_recursion_error():
    # deep enough that an uncapped recursive descent runs out of stack
    result = parse_program("x <- " + "(" * 1000 + "y" + ")" * 1000 + "\nz\n")
    assert [type(err) for err in result.errors] == [NestingTooDeep]
    assert isinstance(result.errors[0], RSyntaxError)
    assert result.exprs[0][0] == SymbolRef("z")
    with pytest.raises(NestingTooDeep):
        is_complete("f(" * 1000)


@pytest.mark.parametrize("n", [MAX_NESTING, MAX_NESTING + 1])
@pytest.mark.parametrize("opener, closer", [("{", "}"), ("f(", ")"), ("x[", "]")])
def test_resumed_parse_keeps_the_nesting_cap(opener, closer, n):
    # a bracket a line: each line resumes the parse inside the innermost list
    lines = [opener] * n + ["x"] + [closer] * n
    result = None
    for i in range(1, len(lines) + 1):
        text = "\n".join(lines[:i])
        resumable = result and result.incomplete
        result = resume_program(result, lines[i - 1]) if resumable else parse_program(text)
        full = parse_program(text)
        assert (result.incomplete, [str(e) for e in result.errors]) == (
            full.incomplete, [str(e) for e in full.errors]
        ), i
    assert [type(e) for e in result.errors[:1]] == ([] if n == MAX_NESTING else [NestingTooDeep])
