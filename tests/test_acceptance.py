"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line; run with `pytest -v -s
tests/test_acceptance.py` to see the summary lines alongside the verdicts.
"""

import random
import time
from datetime import datetime, timedelta, timezone

import pytest

from codeweft.analyze import class_percentages, count_funcs, top_n_by_group
from codeweft.corpus import CallRecord, read_rfiles, recital
from codeweft.deparse import deparse
from codeweft.lexicon import (
    ClassificationEntry,
    classify,
    load_classifications,
    load_stopfuncs,
    remove_stopfuncs,
)
from codeweft.parser import parse_expr
from codeweft.rast import Call, StringLit, count_calls, strip_parens, to_json
from codeweft.recorder import KIND_EXPRESSION, log_table, record
from codeweft.unnest import unnest_corpus

EXAMPLE_6_CODE = """
4 + 4
"wow!"
mean(1:10)
stop("Error!")
warning("Warning!")
message("Hello?")
cat("Welcome!")
"""


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def test_01_pipe_rewrite_equivalence():
    start = time.perf_counter()
    piped = parse_expr("starwars %>% select(height, mass)")
    rewritten = parse_expr("`%>%`(starwars, select(height, mass))")
    elapsed = time.perf_counter() - start
    report(
        "1 pipe-rewrite equivalence (exact tree equality, <1 ms)",
        piped == rewritten and elapsed < 0.001,
    )


def test_02_seven_expression_string():
    result = recital(EXAMPLE_6_CODE)
    shapes_ok = (
        not result.errors
        and len(result.records) == 7
        and isinstance(result.records[1].expr, StringLit)
        and all(
            isinstance(r.expr, Call)
            for i, r in enumerate(result.records)
            if i != 1
        )
    )
    report("2 seven-expression code string shape", shapes_ok)


def test_03_bundled_script_regression(example_scripts):
    result = read_rfiles(example_scripts)
    tokens = unnest_corpus(result.records)
    ok = (
        not result.errors
        and len(result.records) == 9
        and [r.line for r in result.records] == [1, 2, 3, 4, 5, 6, 7, 1, 2]
        and len(tokens) == 35
        and [t.func for t in tokens[:10]]
        == ["library", "library", "<-", "%>%", "%>%", "mutate", "/", "(", "^", "("]
    )
    report("3 bundled scripts: 9 records, 35 tokens, visible prefix", ok)


def test_04_lexicon_join_counts(example_scripts):
    tokens = unnest_corpus(read_rfiles(example_scripts).records)
    both = classify(tokens, load_classifications())
    crowd = classify(tokens, load_classifications(which="crowdsource"))
    best = load_classifications(which="crowdsource", include_duplicates=False)
    final = classify(remove_stopfuncs(tokens, load_stopfuncs()), best)
    table = [(t.func, e.classification) for t, e in final]
    ok = (
        len(both) == 322
        and len(crowd) == 271
        and len(final) == 15
        and table[0] == ("library", "setup")
        and table[-1] == ("geom_point", "visualization")
    )
    report("4 lexicon joins: 322 / 271 / 15 rows, visible rows", ok)


def test_05_score_normalization():
    entries = load_classifications()
    sums = {}
    for e in entries:
        key = (e.func, e.lexicon)
        sums[key] = sums.get(key, 0.0) + e.score
    normalized = all(abs(total - 1.0) <= 0.005 for total in sums.values())
    library = sorted(
        (e.score for e in entries if e.func == "library" and e.lexicon == "crowdsource"),
        reverse=True,
    )
    ok = normalized and library[:3] == [0.687, 0.213, 0.0339]
    report("5 score normalization and library crowdsource scores", ok)


def test_06_parser_oracle_suite(parser_goldens):
    start = time.perf_counter()
    mismatches = sum(
        1
        for entry in parser_goldens
        if to_json(parse_expr(entry["src"])) != entry["ast"]
    )
    elapsed = time.perf_counter() - start
    ok = len(parser_goldens) >= 200 and mismatches == 0 and elapsed < 5.0
    report(
        f"6 parser oracle suite ({len(parser_goldens)} goldens, "
        f"{mismatches} mismatches, {elapsed:.2f}s)",
        ok,
    )


def test_07_property_suites():
    from test_properties import random_tree

    rng = random.Random(20240817)
    failures = 0
    for _ in range(10_000):
        tree = random_tree(rng, rng.randint(1, 5))
        if strip_parens(parse_expr(deparse(tree))) != strip_parens(tree):
            failures += 1
    # unnest count against the brute-force node counter
    for _ in range(500):
        tree = random_tree(rng, rng.randint(1, 5))
        record_ = CallRecord(file="<gen>", expr=tree, line=1)
        if len(unnest_corpus([record_])) != count_calls(tree):
            failures += 1
    # join counts against brute-force filters
    tokens = unnest_corpus(
        [
            CallRecord(file="<gen>", expr=random_tree(rng, 3), line=i)
            for i in range(1, 201)
        ]
    )
    names = sorted({t.func for t in tokens})
    stops = frozenset(names[:5])
    if remove_stopfuncs(tokens, stops) != [t for t in tokens if t.func not in stops]:
        failures += 1
    entries = [ClassificationEntry(f, "setup", "leeklab", 1.0) for f in names[5:12]]
    if len(classify(tokens, entries)) != sum(
        1 for t in tokens if t.func in set(names[5:12])
    ):
        failures += 1
    # statistics against naive tallies
    rows = [
        {"id": f"u{rng.randint(1, 4)}", "classification": rng.choice(["a", "b", "c"])}
        for _ in range(500)
    ]
    counted = count_funcs(rows, ["classification"], sort=True)
    naive = {}
    for r in rows:
        naive[r["classification"]] = naive.get(r["classification"], 0) + 1
    if {r["classification"]: r["n"] for r in counted} != naive:
        failures += 1
    pct = {
        r["classification"]: r["average_percent"]
        for r in class_percentages(rows, unit="id")
    }
    units = sorted({r["id"] for r in rows})
    for cls in naive:
        shares = []
        for u in units:
            unit_rows = [r for r in rows if r["id"] == u]
            k = sum(1 for r in unit_rows if r["classification"] == cls)
            if k:
                shares.append(k / len(unit_rows))
        if abs(pct[cls] - 100 * sum(shares) / len(shares)) > 1e-9:
            failures += 1
    top = top_n_by_group(
        [dict(r, grp="g") for r in counted], group_col="grp", n=2
    )
    cutoff = sorted((r["n"] for r in counted), reverse=True)[min(2, len(counted)) - 1]
    if [r["classification"] for r in top] != [
        r["classification"] for r in counted if r["n"] >= cutoff
    ]:
        failures += 1
    report(f"7 property suites (10,000 trees + oracles, {failures} failures)", failures == 0)


def test_08_recorder(tmp_path):
    t0 = datetime(2024, 1, 2, tzinfo=timezone.utc)
    ticks = iter(t0 + timedelta(seconds=i) for i in range(100))
    clock = lambda: next(ticks)  # noqa: E731

    log = tmp_path / "session.jsonl"
    record(
        ["dance_start()", "1 + 2", '"here is some text"', "sum(1:10)"],
        clock=clock,
        log_path=log,
    )
    rows = log_table(log)
    session_ok = (
        len(rows) == 6
        and rows[0]["expr"] == "<session info>"
        and rows[5]["expr"] == "<session info>"
        and [r["expr"] for r in rows[1:5]]
        == ["dance_start()", "1 + 2", '"here is some text"', "sum(1:10)"]
    )

    log2 = tmp_path / "continued.jsonl"
    events = record(["f(", "1)"], clock=clock, log_path=log2)
    exprs = [e for e in events if e.kind == KIND_EXPRESSION]
    continuation_ok = len(exprs) == 1 and exprs[0].meta["parsed"]

    report("8 recorder: 6-row session replay, one-event continuation", session_ok and continuation_ok)


def test_09_percentage_table(percent_fixture):
    rows = []
    for unit in percent_fixture["units"]:
        for cls, n in unit["counts"].items():
            rows.extend({"id": unit["unit"], "classification": cls} for _ in range(n))
    out = class_percentages(rows, unit="id")
    expected = [
        ("data cleaning", 36.40), ("visualization", 23.17),
        ("exploratory", 21.32), ("setup", 18.87), ("modeling", 17.69),
        ("import", 8.58), ("communication", 5.14), ("evaluation", 3.62),
        ("export", 0.82),
    ]
    ok = [r["classification"] for r in out] == [c for c, _ in expected] and all(
        got["average_percent"] == pytest.approx(want, abs=0.01)
        for got, (_, want) in zip(out, expected)
    )
    report("9 per-class percentage table: nine published values ±0.01, order", ok)
