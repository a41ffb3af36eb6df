"""Property suites: round trips against brute-force and naive oracles."""

import random
import string
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codeweft.analyze import class_percentages, count_funcs, top_n_by_group
from codeweft.corpus import CallRecord
from codeweft.deparse import deparse
from codeweft.errors import SourceError
from codeweft.lexer import Tokens, tokenize
from codeweft.lexicon import ClassificationEntry, classify, load_classifications, remove_stopfuncs
from codeweft.parser import parse_expr, parse_program, resume_program
from codeweft.rast import (
    Arg,
    Call,
    LogicalLit,
    NullLit,
    NumLit,
    SrcSpan,
    StringLit,
    SymbolRef,
    start_line,
    strip_parens,
    walk_calls,
)
from codeweft.recorder import KIND_EXPRESSION, _expression_texts, record
from codeweft.unnest import FuncToken, unnest_corpus

# --- random tree generation ---------------------------------------------

_NAMES = ["x", "y", "z", "foo", "df", "val2", "read.csv", "my var", "if"]
# reserved words are valid operands (backticked) but not plain callees,
# where their deparse is the keyword construct
_CALLEES = [n for n in _NAMES if n != "if"]
_OPS = [
    "+", "-", "*", "/", "^", ":", "==", "!=", "<", ">", "<=", ">=", "&",
    "&&", "|", "||", "~", "<-", "<<-", "=", "%in%", "%>%", "$", "@", "::",
]
_UNARY = ["-", "+", "!", "~"]
_MEMBER = {"$", "@", "::"}


def random_tree(rng, depth):
    if depth <= 0 or rng.random() < 0.3:
        pick = rng.random()
        if pick < 0.4:
            return SymbolRef(rng.choice(_NAMES))
        if pick < 0.6:
            return NumLit.of(rng.randint(0, 99), is_int=rng.random() < 0.3)
        if pick < 0.75:
            return StringLit("".join(rng.choices(string.printable, k=rng.randint(0, 6))))
        if pick < 0.85:
            return LogicalLit(rng.choice([True, False, None]))
        return NullLit()
    pick = rng.random()
    if pick < 0.45:
        op = rng.choice(_OPS)
        left = random_tree(rng, depth - 1)
        right = SymbolRef(rng.choice(_NAMES)) if op in _MEMBER else random_tree(rng, depth - 1)
        return Call(SymbolRef(op), (Arg(left), Arg(right)))
    if pick < 0.55:
        return Call(SymbolRef(rng.choice(_UNARY)), (Arg(random_tree(rng, depth - 1)),))
    if pick < 0.65:
        return Call(SymbolRef("("), (Arg(random_tree(rng, depth - 1)),))
    if pick < 0.72:
        stmts = tuple(Arg(random_tree(rng, depth - 1)) for _ in range(rng.randint(0, 3)))
        return Call(SymbolRef("{"), stmts)
    if pick < 0.8:
        callee = rng.choice([SymbolRef("["), SymbolRef("[[")])
        return Call(callee, (Arg(random_tree(rng, depth - 1)), Arg(random_tree(rng, depth - 1))))
    # plain call, possibly with named and missing arguments
    args = []
    for _ in range(rng.randint(0, 3)):
        kind = rng.random()
        if kind < 0.2:
            args.append(Arg(random_tree(rng, depth - 1), name=rng.choice(_NAMES[:6])))
        elif kind < 0.3:
            args.append(Arg(SymbolRef("")))
        else:
            args.append(Arg(random_tree(rng, depth - 1)))
    if len(args) == 1 and args[0] == Arg(SymbolRef("")):
        # f(<missing>) has no source spelling: f() means zero arguments
        # and f(,) means two missing ones
        args = []
    return Call(SymbolRef(rng.choice(_CALLEES)), tuple(args))


def test_roundtrip_on_ten_thousand_random_trees():
    rng = random.Random(20240817)
    for i in range(10_000):
        tree = random_tree(rng, rng.randint(1, 5))
        text = deparse(tree)
        again = parse_expr(text)
        assert strip_parens(again) == strip_parens(tree), f"seed case {i}: {text!r}"
        # canonical text is a fixed point
        assert deparse(again) == text, f"seed case {i}: {text!r}"


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**63))
def test_roundtrip_hypothesis(seed):
    rng = random.Random(seed)
    tree = random_tree(rng, rng.randint(1, 6))
    text = deparse(tree)
    again = parse_expr(text)
    assert strip_parens(again) == strip_parens(tree)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**63))
def test_record_logs_each_deparsed_program_once(seed):
    # a console session typing canonical programs, a line at a time
    rng = random.Random(seed)
    trees = [random_tree(rng, rng.randint(1, 5)) for _ in range(rng.randint(1, 5))]
    lines = "\n".join(deparse(t) for t in trees).split("\n")
    with tempfile.TemporaryDirectory() as tmp:
        events = record(lines, log_path=Path(tmp) / "session.jsonl")
    exprs = [e for e in events if e.kind == KIND_EXPRESSION]
    assert [e.meta["parsed"] for e in exprs] == [True] * len(trees)
    for event, tree in zip(exprs, trees):
        assert strip_parens(parse_expr(event.expr_text)) == strip_parens(tree), event.expr_text


# lines that open or close a bracket, continue an if or an operator, break
# off a string or fail at once, inserted among the lines of deparsed programs
_SESSION_NOISE = [
    "", "  ", "# note", "else c", "if (a) b", "f(a b", "g(", "1,", "k = 2)", ")", "]", "]]", "}",
    "{", "x[1,", "y[[", "h <- function(x) {", "function(a,", "x <-", "%>% f()", "'open", "close'",
    "a b", ",", "c)", "}}", "while (x) {", "else {", "`tick", "x %>%", "(a +", "b +", "b = 1,",
]


def _session_lines(rng):
    text = "\n".join(deparse(random_tree(rng, rng.randint(1, 5))) for _ in range(rng.randint(1, 4)))
    lines = text.split("\n")
    for _ in range(rng.randint(0, 5)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(_SESSION_NOISE))
    return lines


def _spans(tree):
    """Every node's span, in pre-order: tree equality ignores the inner ones."""
    spans, stack = [], [tree]
    while stack:
        node = stack.pop()
        spans.append(node.span)
        if isinstance(node, Call):
            stack += [arg.value for arg in reversed(node.args)]
            stack.append(node.callee)
    return spans


def _outcome(result):
    errors = [(type(err), str(err), err.span) for err in result.errors]
    return result.incomplete, errors, result.exprs, [_spans(tree) for tree in result.trees]


def _reference_events(lines):
    """What `record` logs, from a full parse of the pending text on every line."""
    events, pending = [], []
    for line in lines:
        pending.append(line)
        chunk = "\n".join(pending)
        if not chunk.strip():
            pending.clear()
            continue
        program = parse_program(chunk)
        if program.incomplete:
            continue
        if program.errors:
            events.append((chunk, False))
        else:
            spans = [span for _, span in program.exprs]
            events += [(text, True) for text in _expression_texts(chunk.split("\n"), spans)]
        pending.clear()
    if "\n".join(pending).strip():
        events.append(("\n".join(pending), False))
    return events


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**63).map(lambda s: _session_lines(random.Random(s))))
# seed 6374: a resumed `y[[` list stops at the end of the text, not at its
# closer, so the next line may still continue its last item
@example(["# note", "y[[", "+31L", '((48 >= df) <- "") <<- {', "    `my var`", "    NULL", "}"])
@example(["{", "  if (a) {", "    b", "  }", "  else c", "}"])  # after a closed inner block
@example(["{", "  x <- if (a) b", "  else c", "}"])  # the `if` ends a statement
@example(["f(if (a) b", "else c)"])  # no newline inside a call: `else` always joins
@example(["g(", ")"])  # a list with no item
@example(["y <- df %>%", "  mutate(", "    a = 1", "  ) %>%", "  mutate(", "    b = a", "  )"])
@example(["f(", "  a = 1,", "  b", ")"])  # the last item's line leaves the list open at it
@example(["f(", "g(", "h(", "x", ")", ")", ")"])  # calls nested one a line
def test_resumed_parse_matches_a_full_parse_at_every_line(lines):
    result = None
    for i in range(1, len(lines) + 1):
        prefix = "\n".join(lines[:i])
        full = parse_program(prefix)
        resumable = result and result.incomplete
        result = resume_program(result, prefix) if resumable else parse_program(prefix)
        assert _outcome(result) == _outcome(full), prefix
        if not full.incomplete:
            with tempfile.TemporaryDirectory() as tmp:
                events = record(lines[:i], log_path=Path(tmp) / "session.jsonl")
            logged = [(e.expr_text, e.meta["parsed"]) for e in events if e.kind == KIND_EXPRESSION]
            assert logged == _reference_events(lines[:i]), prefix


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**63))
def test_unnest_count_matches_bruteforce(seed):
    rng = random.Random(seed)
    tree = random_tree(rng, rng.randint(1, 6))
    record = CallRecord(file="<gen>", expr=tree, line=1)
    assert len(unnest_corpus([record])) == sum(1 for _ in walk_calls(tree))


# --- join oracles -------------------------------------------------------

def _random_tokens(rng, n=200):
    trees = [random_tree(rng, 3) for _ in range(n)]
    records = [CallRecord(file="<gen>", expr=t, line=i) for i, t in enumerate(trees, 1)]
    return unnest_corpus(records)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**63))
def test_joins_match_bruteforce_filters(seed):
    rng = random.Random(seed)
    tokens = _random_tokens(rng)
    names = sorted({t.func for t in tokens})
    stops = frozenset(rng.sample(names, k=min(len(names), 5)))

    kept = remove_stopfuncs(tokens, stops)
    assert kept == [t for t in tokens if t.func not in stops]

    lex_funcs = rng.sample(names, k=min(len(names), 8))
    entries = [
        ClassificationEntry(f, "setup", "crowdsource", 1.0) for f in lex_funcs
    ]
    pairs = classify(tokens, entries)
    assert len(pairs) == sum(1 for t in tokens if t.func in set(lex_funcs))
    assert [t.func for t, _ in pairs] == [t.func for t in tokens if t.func in set(lex_funcs)]


_LEXICON = load_classifications()
_LEXICON_FUNCS = sorted({e.func for e in _LEXICON})


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(_LEXICON_FUNCS + ["no_such_func", "x"]), max_size=30),
    st.lists(st.sampled_from(range(len(_LEXICON))), unique=True, max_size=60),
)
def test_classify_matches_a_nested_loop_join(funcs, picked):
    tokens = [FuncToken(f, (), "<gen>", i, 0) for i, f in enumerate(funcs, 1)]
    entries = [_LEXICON[i] for i in picked]  # a random subset, in random order
    naive = [
        (token, entry)
        for token in tokens
        for entry in sorted(
            (e for e in entries if e.func == token.func),
            key=lambda e: (e.lexicon, -e.score, e.classification),
        )
    ]
    assert classify(tokens, entries) == naive


# --- statistics oracles -------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["u1", "u2", "u3", "u4"]),
            st.sampled_from(["setup", "modeling", "export"]),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_counts_match_naive_tally(pairs):
    rows = [{"id": u, "classification": c} for u, c in pairs]
    out = count_funcs(rows, ["id", "classification"], sort=True)
    naive = {}
    for u, c in pairs:
        naive[(u, c)] = naive.get((u, c), 0) + 1
    assert {(r["id"], r["classification"]): r["n"] for r in out} == naive
    counts = [r["n"] for r in out]
    assert counts == sorted(counts, reverse=True)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["u1", "u2", "u3"]),
            st.sampled_from(["setup", "modeling", "export"]),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_percent_matches_naive_average(pairs):
    rows = [{"id": u, "classification": c} for u, c in pairs]
    out = {r["classification"]: r["average_percent"] for r in class_percentages(rows, unit="id")}
    units = sorted({u for u, _ in pairs})
    for cls in {c for _, c in pairs}:
        shares = []
        for u in units:
            unit_rows = [c for uu, c in pairs if uu == u]
            k = unit_rows.count(cls)
            if k:
                shares.append(k / len(unit_rows))
        assert out[cls] == pytest.approx(100 * sum(shares) / len(shares))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["g1", "g2"]), st.integers(1, 9)),
        min_size=1,
        max_size=30,
    ),
    st.integers(min_value=1, max_value=5),
)
def test_top_n_matches_naive_cutoff(items, n):
    table = [
        {"grp": g, "func": f"f{i}", "n": c} for i, (g, c) in enumerate(items)
    ]
    out = top_n_by_group(table, group_col="grp", n=n)
    for row in table:
        counts = sorted(
            (r["n"] for r in table if r["grp"] == row["grp"]), reverse=True
        )
        cutoff = counts[min(n, len(counts)) - 1]
        assert (row in out) == (row["n"] >= cutoff)


# --- span invariant -----------------------------------------------------

def _assert_spans_nest(expr, top_span, where):
    """Every node span is ordered and lies within its parent node's span, and
    the expression's own span is the one reported for it. The parser builds
    its spans without SrcSpan's order check, so this test holds the order."""
    assert expr.span == top_span, where
    stack = [(expr, None)]
    while stack:
        node, parent = stack.pop()
        if node.span is None:  # only a missing-argument slot goes without a span
            assert node == SymbolRef(""), where
            continue
        start = (node.span.start_line, node.span.start_col)
        end = (node.span.end_line, node.span.end_col)
        assert start <= end, (where, node.span)
        if parent is not None:
            assert parent[0] <= start and end <= parent[1], (where, node.span, parent)
        if isinstance(node, Call):
            stack += [(child, (start, end)) for child in (node.callee, *(a.value for a in node.args))]


def test_golden_node_spans_are_ordered_and_nest(parser_goldens):
    for entry in parser_goldens:
        result = parse_program(entry["src"])
        assert result.exprs and not result.errors, entry["src"]
        for expr, span in result.exprs:
            _assert_spans_nest(expr, span, entry["src"])


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**63))
def test_generated_node_spans_are_ordered_and_nest(seed):
    # deparsed random trees among lines that break off or fail, so recovery runs too
    text = "\n".join(_session_lines(random.Random(seed)))
    for expr, span in parse_program(text).exprs:
        _assert_spans_nest(expr, span, text)


# a bound near each width a packed position could have, or far past any
_BOUND = st.one_of(
    st.integers(0, 300),
    *(st.integers(2**bits - 2, 2**bits + 2) for bits in (14, 16, 30, 32, 64)),
    st.integers(0, 2**80),
)


@settings(max_examples=500, deadline=None)
@given(st.tuples(_BOUND, _BOUND), st.tuples(_BOUND, _BOUND))
def test_node_positions_round_trip_at_any_bound(one, other):
    (first_line, start_col), (end_line, end_col) = sorted([one, other])
    span = SrcSpan(first_line, start_col, end_line, end_col)
    # the public constructor, and the parser's path through two tokens' positions
    tokens = Tokens()
    tokens.lines += [first_line, end_line]
    tokens.cols += [start_col, end_col]
    tokens.end_lines += [first_line, end_line]
    tokens.end_cols += [start_col, end_col]
    assert tokens.span(0, 1) == span
    for pos in (span, tokens.position(0, 1)):
        nodes = [NullLit(pos), LogicalLit(None, pos), NumLit("1", 1.0, span=pos),
                 StringLit("s", pos), SymbolRef("x", pos), Call(SymbolRef("f"), (), pos)]
        for node in nodes:
            assert node.span == span, node
            assert start_line(node) == first_line, node


# --- lexer totality -----------------------------------------------------

# R-ish characters plus the pieces of escapes, a non-ASCII digit-like
# character and a control character
_LEX_ALPHABET = "ab.xuU0123456789fFL+-*<>=!&|~:$@()[]{},;%#`'\" \t\r\n\\²\x01"


@settings(max_examples=1000, deadline=None)
@given(st.text(alphabet=_LEX_ALPHABET, max_size=40))
def test_tokenize_returns_tokens_or_raises_source_error(text):
    try:
        tokens = tokenize(text, keep_newlines=True)
    except SourceError:
        return
    assert isinstance(tokens, Tokens)
    columns = [tokens.kinds, tokens.texts, tokens.values, tokens.lines, tokens.cols,
               tokens.end_lines, tokens.end_cols]
    assert all(len(column) == len(tokens) for column in columns)
    first: dict[str, str] = {}
    assert all(first.setdefault(t, t) is t for t in tokens.texts)  # equal texts are one object


def _symbols(expr):
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, SymbolRef):
            yield node
        elif isinstance(node, Call):
            stack += [node.callee, *(a.value for a in node.args)]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**63))
def test_equal_names_in_a_source_are_one_string(seed):
    # every symbol of one parsed source with a given name holds one `str`, and
    # so does the function name of each row whose callee is a symbol
    text = "\n".join(_session_lines(random.Random(seed)))
    records = [CallRecord("<test>", expr, span.start_line) for expr, span in parse_program(text).exprs]
    first: dict[str, str] = {}
    for record in records:
        for symbol in _symbols(record.expr):
            assert first.setdefault(symbol.name, symbol.name) is symbol.name, (symbol.name, text)
    calls = [call for record in records for call, _ in walk_calls(record.expr)]
    for call, row in zip(calls, unnest_corpus(records), strict=True):
        if isinstance(call.callee, SymbolRef):
            assert row.func is first[row.func], (row.func, text)


@pytest.mark.parametrize("text", ["10L + 10L", "10L + 10", "10 + 10L", "0x1FL + 0x1FL"])
def test_equal_number_texts_in_a_source_are_one_string(text):
    # an integer literal's text drops its L, and keeps the source's shared string
    left, right = (arg.value for arg in parse_expr(text).args)
    assert left.text == right.text
    assert left.text is right.text


@settings(max_examples=1000, deadline=None)
@given(st.text(alphabet=_LEX_ALPHABET, max_size=40))
def test_token_spans_slice_back_to_the_source(text):
    try:
        tokens = tokenize(text, keep_newlines=True)
    except SourceError:
        return
    line_starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
    for i, (kind, tok_text) in enumerate(zip(tokens.kinds, tokens.texts)):
        span = tokens.span(i, i)
        start = line_starts[span.start_line - 1] + span.start_col - 1
        end = line_starts[span.end_line - 1] + span.end_col  # the end is inclusive
        assert text[start:end] == (f"`{tok_text}`" if tokens.quoted(i) else tok_text), i
        if kind == "newline":
            assert (span.end_line, span.end_col) == (span.start_line + 1, 0), i
        elif kind != "string":  # only a string can cross a line break
            assert span.end_line == span.start_line, i
