from codeweft.corpus import CallRecord, read_rfiles, recital
from codeweft.parser import parse_expr
from codeweft.rast import SymbolRef, call, walk_calls
from codeweft.unnest import func_name, unnest_calls, unnest_corpus


def rec(src, file="<test>", line=1):
    return CallRecord(file=file, expr=parse_expr(src), line=line)


def funcs(src):
    return [t.func for t in unnest_calls(rec(src))]


def test_simple_call():
    (token,) = unnest_calls(rec("library(tidyverse)"))
    assert token.func == "library"
    assert token.file == "<test>"
    assert token.line == 1
    assert token.depth == 0


def test_preorder_call_then_callee_then_args():
    assert funcs("f(g(x), h(y))") == ["f", "g", "h"]
    assert funcs("f(x)(y)") == ["f(x)", "f"]
    # a call callee and a call argument among a literal one
    tree = parse_expr("f()(g(x), 1)")
    assert [(func_name(c.callee), d) for c, d in walk_calls(tree)] == [("f()", 0), ("f", 1), ("g", 1)]


def test_operators_are_tokens():
    assert funcs("x <- a + b * c") == ["<-", "+", "*"]
    assert funcs("a %>% b()") == ["%>%", "b"]
    assert funcs("(x)") == ["("]
    assert funcs("x[1]") == ["["]
    assert funcs("x[[1]]") == ["[["]
    assert funcs("x$y") == ["$"]


def test_literals_and_symbols_yield_nothing():
    assert funcs("x") == []
    assert funcs('"str"') == []
    assert funcs("NULL") == []


def test_depth_tracks_nesting():
    tokens = unnest_calls(rec("f(g(h(x)))"))
    assert [(t.func, t.depth) for t in tokens] == [("f", 0), ("g", 1), ("h", 2)]


def test_token_count_equals_call_count():
    for src in [
        "x", "f()", "f(g(h(1)), k(2) + 3)", "a %>% b() %>% c()",
        "if (x) { y <- 1 } else z", "function(a) a + 1",
    ]:
        expr = parse_expr(src)
        assert len(unnest_calls(rec(src))) == sum(1 for _ in walk_calls(expr))


def test_func_name_of_non_symbol_callee():
    expr = parse_expr("pkg::fn(x)")
    assert func_name(expr.callee) == "pkg::fn"


def test_unnest_corpus_keeps_record_order():
    records = [rec("f(1)", line=1), rec("g(2)", line=2)]
    tokens = unnest_corpus(records)
    assert [(t.func, t.line) for t in tokens] == [("f", 1), ("g", 2)]


def test_recital_string_tokens():
    result = recital("1 + 2\nmean(1:10)")
    tokens = unnest_corpus(result.records)
    assert [t.func for t in tokens] == ["+", "mean", ":"]
    assert all(t.file == "<string>" for t in tokens)


def test_example_scripts_token_table(example_scripts):
    tokens = unnest_corpus(read_rfiles(example_scripts).records)
    assert len(tokens) == 35
    assert [t.func for t in tokens[:10]] == [
        "library", "library", "<-", "%>%", "%>%", "mutate", "/", "(", "^", "(",
    ]


def test_ten_thousand_stage_pipe_unnests():
    # the walk keeps its own stack: a chain far deeper than the recursion
    # limit unnests and counts
    tree = SymbolRef("x")
    for _ in range(10_000):
        tree = call("%>%", tree, call("f"))
    tokens = unnest_corpus([CallRecord("deep.R", tree, 1)])
    assert sum(1 for _ in walk_calls(tree)) == len(tokens) == 20_000
    assert [(t.func, t.depth) for t in tokens[:3]] == [("%>%", 0), ("%>%", 1), ("%>%", 2)]
    assert [(t.func, t.depth) for t in tokens[9_999:10_001]] == [("%>%", 9_999), ("f", 10_000)]
    assert (tokens[-1].func, tokens[-1].depth) == ("f", 1)
