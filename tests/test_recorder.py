import json
from datetime import datetime, timedelta, timezone

import pytest

from codeweft.errors import MissingLog
from codeweft.recorder import (
    KIND_EXPRESSION,
    KIND_START,
    KIND_STOP,
    SessionEvent,
    log_table,
    read_log,
    record,
    remove_log,
)


@pytest.fixture
def clock():
    t0 = datetime(2024, 1, 2, 3, 4, 5, tzinfo=timezone.utc)
    ticks = iter(t0 + timedelta(seconds=i) for i in range(1000))
    return lambda: next(ticks)


@pytest.fixture
def log(tmp_path):
    return tmp_path / "session.jsonl"


def test_session_is_bracketed(clock, log):
    events = record(["1 + 2"], clock=clock, log_path=log)
    assert [e.kind for e in events] == [KIND_START, KIND_EXPRESSION, KIND_STOP]


def test_console_session_replay(clock, log):
    lines = ["dance_start()", "1 + 2", '"here is some text"', "sum(1:10)"]
    record(lines, clock=clock, log_path=log)
    rows = log_table(log)
    assert len(rows) == 6
    assert rows[0]["expr"] == "<session info>"
    assert rows[-1]["expr"] == "<session info>"
    assert [r["expr"] for r in rows[1:5]] == [
        "dance_start()", "1 + 2", '"here is some text"', "sum(1:10)",
    ]
    assert set(rows[0]) == {"expr", "value", "path", "contents", "selection", "dt"}
    assert all(r["value"] == "" for r in rows)


def test_multiline_continuation(clock, log):
    events = record(["f(", "1)"], clock=clock, log_path=log)
    exprs = [e for e in events if e.kind == KIND_EXPRESSION]
    assert len(exprs) == 1
    assert exprs[0].meta["parsed"] is True
    assert log_table(log)[1]["expr"] == "f(1)"


def test_unparseable_line_is_kept_raw(clock, log):
    events = record(["x <- ) bad"], clock=clock, log_path=log)
    (expr,) = [e for e in events if e.kind == KIND_EXPRESSION]
    assert expr.meta["parsed"] is False
    assert expr.expr_text == "x <- ) bad"
    assert log_table(log)[1]["expr"] == "x <- ) bad"


def test_backtick_cut_by_a_line_break_ends_the_chunk(clock, log):
    events = record(["x <- `abc", "y <- 1", "z <- 2"], clock=clock, log_path=log)
    exprs = [(e.expr_text, e.meta["parsed"]) for e in events if e.kind == KIND_EXPRESSION]
    assert exprs == [("x <- `abc\ny <- 1", False), ("z <- 2", True)]


def test_hard_error_before_an_open_string_is_logged_at_once(clock, log):
    # R reports the `)` as the line is entered; the string it cuts off waits for nothing
    events = record(['x <- ) "a', "y <- 1"], clock=clock, log_path=log)
    exprs = [(e.expr_text, e.meta["parsed"]) for e in events if e.kind == KIND_EXPRESSION]
    assert exprs == [('x <- ) "a', False), ("y <- 1", True)]


def test_stray_else_is_an_event_of_its_own(clock, log):
    # at top level an if ends with its line, so R rejects the else on the next
    events = record(["if (a) b", "else", "y <- 1"], clock=clock, log_path=log)
    exprs = [(e.expr_text, e.meta["parsed"]) for e in events if e.kind == KIND_EXPRESSION]
    assert exprs == [("if (a) b", True), ("else", False), ("y <- 1", True)]


def test_stream_ending_midexpression_is_kept(clock, log):
    events = record(["f(1,"], clock=clock, log_path=log)
    (expr,) = [e for e in events if e.kind == KIND_EXPRESSION]
    assert expr.meta["parsed"] is False
    assert expr.expr_text == "f(1,"


def test_blank_lines_produce_no_events(clock, log):
    events = record(["", "  ", "x"], clock=clock, log_path=log)
    assert len([e for e in events if e.kind == KIND_EXPRESSION]) == 1


def test_timestamps_are_utc_millisecond_monotonic(clock, log):
    record(["1", "2"], clock=clock, log_path=log)
    events = read_log(log)
    stamps = [e.dt for e in events]
    assert stamps == sorted(stamps)
    for dt in stamps:
        assert dt.tzinfo is not None
        assert dt.microsecond % 1000 == 0


def test_naive_clock_time_is_logged_as_utc(log):
    record(["x"], clock=lambda: datetime(2024, 1, 2, 3, 4, 5, 678_901), log_path=log)
    stamps = {e.dt for e in read_log(log)}
    assert stamps == {datetime(2024, 1, 2, 3, 4, 5, 678_000, tzinfo=timezone.utc)}


def test_an_aware_clock_time_is_logged_in_utc(log):
    # equal instants compare equal across offsets, so the written text is checked
    plus_two = timezone(timedelta(hours=2))
    record(["x"], clock=lambda: datetime(2020, 1, 1, 12, 0, 0, 123_456, plus_two), log_path=log)
    stamps = {json.loads(line)["dt"] for line in log.read_text(encoding="utf-8").splitlines()}
    assert stamps == {"2020-01-01T10:00:00.123+00:00"}


def test_sessions_append(clock, log):
    record(["1"], clock=clock, log_path=log)
    record(["2"], clock=clock, log_path=log)
    events = read_log(log)
    assert [e.kind for e in events].count(KIND_START) == 2
    assert len(events) == 6


def test_boundary_metadata(clock, log):
    record([], clock=clock, log_path=log, capture_values=True)
    start = read_log(log)[0]
    assert start.meta["value_flag"] is True
    assert "version" in start.meta and "platform" in start.meta


def test_event_json_roundtrip(clock, log):
    record(["x + 1"], clock=clock, log_path=log)
    for event in read_log(log):
        assert SessionEvent.from_json(event.to_json()) == event


def test_missing_log(log):
    with pytest.raises(MissingLog):
        read_log(log)
    with pytest.raises(MissingLog):
        log_table(log)


def test_remove_log(clock, log):
    record(["1"], clock=clock, log_path=log)
    assert remove_log(log) is True
    with pytest.warns(UserWarning):
        assert remove_log(log) is False


def test_env_var_selects_path(clock, tmp_path, monkeypatch):
    target = tmp_path / "alt.jsonl"
    monkeypatch.setenv("CODEWEFT_LOG_PATH", str(target))
    record(["1"], clock=clock)
    assert target.exists()
    assert len(read_log()) == 3


@pytest.mark.parametrize(
    "lines, texts, rows",
    [
        (["x <- 1; y <- 2"], ["x <- 1", "y <- 2"], ["x <- 1", "y <- 2"]),
        (["f(1,", "2); g()"], ["f(1,\n2)", "g()"], ["f(1, 2)", "g()"]),
    ],
    ids=["one-line", "shared-last-line"],
)
def test_expressions_sharing_a_line_log_their_own_text(clock, log, lines, texts, rows):
    events = record(lines, clock=clock, log_path=log)
    assert [e.expr_text for e in events if e.kind == KIND_EXPRESSION] == texts
    assert [r["expr"] for r in log_table(log)[1:-1]] == rows


def test_expression_alone_on_its_line_keeps_its_comment(clock, log):
    events = record(["x <- 1  # note", "y <- 2; z"], clock=clock, log_path=log)
    texts = [e.expr_text for e in events if e.kind == KIND_EXPRESSION]
    assert texts == ["x <- 1  # note", "y <- 2", "z"]


def _expressions(events):
    return [(e.expr_text, e.meta["parsed"]) for e in events if e.kind == KIND_EXPRESSION]


def test_hard_error_inside_an_open_bracket_is_logged_at_its_line(clock, log):
    # R reports `f(a b` as soon as the line is entered, before any `)` arrives
    events = record(["f(a b", "c)"], clock=clock, log_path=log)
    assert _expressions(events) == [("f(a b", False), ("c)", False)]


def test_else_after_a_blank_line_joins_the_if_of_its_block(clock, log):
    lines = ["g <- function() {", "if (a) b", "", "else c", "}"]
    events = record(lines, clock=clock, log_path=log)
    assert _expressions(events) == [("\n".join(lines), True)]


def test_string_open_across_lines_is_one_event(clock, log):
    events = record(['x <- "a', "b", 'c"'], clock=clock, log_path=log)
    assert _expressions(events) == [('x <- "a\nb\nc"', True)]


@pytest.mark.parametrize(
    "lines, texts",
    [
        (["x <- 1\ny <- 2"], ["x <- 1", "y <- 2"]),
        (["a; b\nc"], ["a", "b", "c"]),
        (["f(1,\n2); g()", "h()"], ["f(1,\n2)", "g()", "h()"]),
    ],
    ids=["two-lines", "shared-first-line", "shared-last-line"],
)
def test_an_input_item_holding_line_breaks_logs_each_expression_once(clock, log, lines, texts):
    events = record(lines, clock=clock, log_path=log)
    assert _expressions(events) == [(text, True) for text in texts]


class _CountingScans:
    """Stands in for the lexer's compiled pattern and sums the text it scans."""

    def __init__(self, pattern):
        self.pattern, self.scanned = pattern, 0

    def finditer(self, text, pos=0):
        self.scanned += len(text) - pos
        return self.pattern.finditer(text, pos)


_BODY = ["  x <- f(a, b = 1)", "  if (x > 1) {", "    y <- g(x)", "  }", "  z <- c(1, 2,", "    3)"]
_FUNCTION = ["f <- function(a, b) {", *(_BODY * 66), "  w <- z", "  w", "}"]
_ELSE = ["  if (a) {", "    b", "  }", "  else {", "    c", "  }"]  # `else` on a line of its own


def test_recording_a_long_function_reads_each_line_a_bounded_number_of_times(
    clock, log, monkeypatch
):
    from codeweft import lexer, parser, recorder

    scans = _CountingScans(lexer._TOKEN_RE)
    monkeypatch.setattr(lexer, "_TOKEN_RE", scans)
    received = []

    def counting(original):
        def parse(*args):  # the text is the last argument of either call
            received.append(len(args[-1]))
            return original(*args)

        return parse

    for module in (parser, recorder):
        monkeypatch.setattr(module, "parse_program", counting(module.parse_program))
    monkeypatch.setattr(recorder, "resume_program", counting(recorder.resume_program))
    lines = _FUNCTION
    assert len(lines) == 400
    events = record(lines, clock=clock, log_path=log)
    assert _expressions(events) == [("\n".join(lines), True)]
    # a recorder that hands the parser the whole pending text on every line reads it about 200 times
    assert scans.scanned + sum(received) <= 3 * len("\n".join(lines))


_STAGES = 398  # lines between the first and the last of a 400-line paste
_MUTATE = ["  mutate(", "    y = x + 1,", "    z = y * 2", "  ) %>%"]  # a four-line chain stage


@pytest.mark.parametrize(
    "lines, closing",
    [
        # a chain is never kept: its next token may yet be an operator, so the
        # line that ends it parses the whole chain once
        (["x %>%", *["  f() %>%"] * _STAGES, "  g()"], None),
        (["h <- function(x) {", "  x %>%", *["  f() %>%"] * (_STAGES - 2), "  g()", "}"], None),
        (["(a +", *["  b +"] * _STAGES, "  c)"], None),
        (["df %>%", *(_MUTATE * 99), "  mutate(", "    w = z", "  )"], None),
        (["k <- function(a = 1,", *[f"  b{i} = 2," for i in range(_STAGES)], "  z) NULL"], 10),
        (["f(a = 1,", *[f"  b{i} = 2," for i in range(_STAGES)], "  z)"], 10),
        (["x[1,", *[f"  {i}," for i in range(_STAGES)], "]"], 10),
        (_FUNCTION, 10),
        (["g <- function(a) {", *(_ELSE * 66), "  a <- 1", "  a", "}"], 10),
        # the last item's line leaves the list open at that item, not at its `(`
        (["df <- data.frame(", *[f"  b{i} = 2," for i in range(_STAGES - 1)], "  z = 1", ")"], 10),
        # 99 calls deep stays under MAX_NESTING
        (["list(", *["  f("] * 99, "    x", *["  )"] * 98, "  ),", *["  g("] * 99, "    y",
          *["  )"] * 99, ")"], 10),
    ],
    ids=["top-level-chain", "chain-in-function", "parenthesised-sum", "multi-line-stages",
         "formals", "arguments", "subscripts", "function-with-blocks", "function-with-else-lines",
         "closer-on-its-own-line", "calls-nested-one-a-line"],
)
def test_recording_a_long_paste_does_bounded_parser_work_per_token(
    clock, log, monkeypatch, lines, closing
):
    # each open construct resumes where it stopped, so no line parses the paste
    # again; a block or list it closes is kept, so each of the last two lines
    # parses little more than itself
    from codeweft import lexer, parser

    assert len(lines) == 400
    tokens = len(lexer.tokenize("\n".join(lines)))
    calls, before = 0, []
    parse_expr = parser._Parser.parse_expr

    def counting(self, *args):
        nonlocal calls
        calls += 1
        return parse_expr(self, *args)

    def fed():
        for line in lines:
            before.append(calls)
            yield line

    monkeypatch.setattr(parser._Parser, "parse_expr", counting)
    events = record(fed(), clock=clock, log_path=log)
    assert _expressions(events) == [("\n".join(lines), True)]
    assert calls <= 3 * tokens
    if closing is not None:
        assert before[-1] - before[-2] <= closing and calls - before[-1] <= closing
