"""The cyclic garbage collector pause around the bulk builders.

`parse_program`, `resume_program`, `unnest_corpus` and `classify` run
with the collector paused (`frozen.nogc`). That is safe only while the
values they build form no reference cycle, and polite only while the
collector's state is the caller's again when they return or raise.
"""

import gc

import pytest

from codeweft import frozen
from codeweft.corpus import CallRecord, fetch_manifest
from codeweft.lexicon import classify, load_classifications, load_stopfuncs, remove_stopfuncs
from codeweft.parser import ProgramResult, parse_program, resume_program
from codeweft.recorder import log_table, record
from codeweft.unnest import unnest_corpus

HOSTILE = [
    'x <- "open',  # unterminated string
    "f(x y)\nok()",  # a hard error, then a good expression
    "(" * 150 + "x" + ")" * 150,  # NestingTooDeep
    "x" + " %>% f()" * 3000,  # a long left-deep chain
    "x[[1]\nok <- TRUE",  # an unclosed bracket
    'x <- "a\\0b"\nf(1)',  # a NUL escape
    "function(a, b = ",  # incomplete
]

WRAPPED = [parse_program, resume_program, unnest_corpus, classify]


@pytest.fixture
def collector_enabled():
    """The collector on for the test, and on again after it, whatever it did."""
    gc.enable()
    yield
    gc.enable()


def _garbage_left(work) -> int:
    """Cyclic garbage that `work` leaves once its results are dropped,
    counted with the collector off while it runs."""
    gc.collect()
    gc.disable()
    try:
        work()
        return gc.collect()
    finally:
        gc.enable()


def _sources(parser_goldens, example_scripts):
    texts = [entry["src"] for entry in parser_goldens]
    for path in example_scripts:
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    return texts + HOSTILE


def test_building_trees_and_rows_leaves_no_cycles(parser_goldens, example_scripts):
    texts = _sources(parser_goldens, example_scripts)
    entries, stops = load_classifications(), load_stopfuncs()

    def work():
        for i, text in enumerate(texts):
            program = parse_program(text)
            records = [CallRecord(f"s{i}.R", expr, span.start_line) for expr, span in program.exprs]
            tokens = remove_stopfuncs(unnest_corpus(records), stops)
            classify(tokens, entries)

    assert _garbage_left(work) == 0


def test_recording_leaves_no_cycles(tmp_path, example_scripts):
    lines = []
    for path in example_scripts:
        with open(path, encoding="utf-8") as fh:
            lines += fh.read().splitlines()
    lines += [line for text in HOSTILE for line in text.splitlines()]
    log = tmp_path / "session.jsonl"
    record(["x <- 1"], log_path=log)  # warm-up: the first call imports `platform`
    log_table(log)

    def work():
        record(lines, log_path=log)
        log_table(log)

    assert _garbage_left(work) == 0


CALLS = [
    pytest.param(parse_program, ("f(x)",), None, id="parse_program"),
    pytest.param(parse_program, (None,), TypeError, id="parse_program-raises"),
    pytest.param(resume_program, (parse_program("f(\n"), "f(\n1)"), None, id="resume_program"),
    pytest.param(resume_program, (None, "x"), AttributeError, id="resume_program-raises"),
    pytest.param(unnest_corpus, ([CallRecord("a.R", parse_program("f(g(1))").exprs[0][0], 1)],), None,
                 id="unnest_corpus"),
    pytest.param(unnest_corpus, ([None],), AttributeError, id="unnest_corpus-raises"),
    pytest.param(classify, ([], []), None, id="classify"),
    pytest.param(classify, ([None], []), AttributeError, id="classify-raises"),
]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("fn, args, raises", CALLS)
def test_the_collector_state_is_the_callers_again(collector_enabled, fn, args, raises, enabled):
    if not enabled:
        gc.disable()
    if raises is None:
        fn(*args)
    else:
        with pytest.raises(raises):
            fn(*args)
    assert gc.isenabled() is enabled


def test_the_pause_is_off_inside_and_restored_after(collector_enabled):
    seen = []
    paused = frozen.nogc(lambda: seen.append(gc.isenabled()))
    paused()
    gc.disable()
    paused()
    assert seen == [False, False]
    assert not gc.isenabled()


def test_a_threaded_fetch_ends_with_the_collector_on(collector_enabled, tmp_path):
    sources = []
    for i in range(12):
        path = tmp_path / f"s{i}.R"
        path.write_text("".join(f"f{j}(x %>% g({j}))\n" for j in range(200)), encoding="utf-8")
        sources.append(str(path))
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("\n".join(sources) + "\n", encoding="utf-8")
    result = fetch_manifest(str(manifest), concurrency=4)
    assert len(result.records) == 12 * 200 and not result.errors
    assert gc.isenabled()


@pytest.mark.parametrize("fn", WRAPPED, ids=lambda fn: fn.__name__)
def test_wrapped_functions_keep_their_names_and_docs(fn):
    original = fn.__wrapped__
    for attr in ("__name__", "__qualname__", "__doc__", "__module__"):
        assert getattr(fn, attr) == getattr(original, attr)
    assert fn.__doc__ and fn.__module__.startswith("codeweft.")
    assert fn.__name__ == fn.__qualname__ != "paused"
