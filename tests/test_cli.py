import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import codeweft
from codeweft import corpus
from codeweft.cli import main

SRC_DIR = str(Path(codeweft.__file__).resolve().parents[1])


def process_env():
    return dict(os.environ, PYTHONPATH=SRC_DIR)


def run_process(*args, stdin=b""):
    """Run a fresh interpreter that imports this checkout's codeweft; stdin is bytes."""
    proc = subprocess.run(
        [sys.executable, *args], env=process_env(), input=stdin, capture_output=True, timeout=60
    )
    proc.stdout = proc.stdout.decode("utf-8", errors="replace")
    proc.stderr = proc.stderr.decode("utf-8", errors="replace")
    return proc


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def rows_of_jsonl(text):
    return [json.loads(line) for line in text.splitlines() if line]


def test_parse_csv(capsys, example_scripts):
    code, out, err = run(capsys, "parse", *example_scripts)
    assert code == 0 and not err
    rows = rows_of_csv(out)
    assert len(rows) == 9
    assert rows[0]["text"] == "library(tidyverse)"
    assert [r["line"] for r in rows] == ["1", "2", "3", "4", "5", "6", "7", "1", "2"]


def test_parse_jsonl(capsys, example_scripts):
    code, out, _ = run(capsys, "parse", "--format", "jsonl", example_scripts[0])
    assert code == 0
    rows = rows_of_jsonl(out)
    assert len(rows) == 7
    assert rows[0] == {
        "file": example_scripts[0], "line": 1, "text": "library(tidyverse)",
    }


def test_parse_json_ast(capsys, example_scripts):
    _, out, _ = run(capsys, "parse", "--json-ast", example_scripts[0])
    rows = rows_of_csv(out)
    ast = json.loads(rows[0]["ast"])
    assert ast["kind"] == "call"
    assert ast["callee"] == {"kind": "symbol", "name": "library"}


def test_parse_output_file(capsys, tmp_path, example_scripts):
    target = tmp_path / "out.csv"
    code, out, _ = run(capsys, "parse", "--output", str(target), example_scripts[0])
    assert code == 0 and out == ""
    assert len(rows_of_csv(target.read_text())) == 7


def test_unnest(capsys, example_scripts):
    code, out, _ = run(capsys, "unnest", *example_scripts)
    assert code == 0
    rows = rows_of_csv(out)
    assert len(rows) == 35
    assert [r["func"] for r in rows[:4]] == ["library", "library", "<-", "%>%"]
    assert rows[0]["args"] == "tidyverse"
    assert "depth" not in rows[0]


def test_unnest_with_depth(capsys, example_scripts):
    _, out, _ = run(capsys, "unnest", "--with-depth", example_scripts[0])
    rows = rows_of_csv(out)
    assert rows[0]["depth"] == "0"


def test_unnest_string_and_null_expressions_yield_no_rows(capsys, tmp_path):
    src = tmp_path / "s.R"
    src.write_text('"just text"\nf(1)\nNULL\n')
    _, out, _ = run(capsys, "unnest", str(src))
    rows = rows_of_csv(out)
    assert [r["func"] for r in rows] == ["f"]


def test_classify_both_lexicons(capsys, example_scripts):
    code, out, _ = run(capsys, "classify", *example_scripts)
    assert code == 0
    rows = rows_of_csv(out)
    assert len(rows) == 322
    assert list(rows[0]) == ["func", "classification", "lexicon", "score"]
    assert rows[0] == {
        "func": "library", "classification": "setup",
        "lexicon": "crowdsource", "score": "0.687",
    }


def test_classify_single_lexicon(capsys, example_scripts):
    _, out, _ = run(capsys, "classify", "--lexicon", "crowdsource", *example_scripts)
    rows = rows_of_csv(out)
    assert len(rows) == 271
    assert list(rows[0]) == ["func", "classification", "score"]


def test_classify_final_table(capsys, example_scripts):
    _, out, _ = run(
        capsys, "classify", "--lexicon", "crowdsource", "--best",
        "--drop-stopfuncs", *example_scripts,
    )
    rows = rows_of_csv(out)
    assert len(rows) == 15
    assert list(rows[0]) == ["func", "classification"]
    assert rows[0] == {"func": "library", "classification": "setup"}
    assert rows[-1] == {"func": "geom_point", "classification": "visualization"}


def test_classify_unknown_lexicon_is_data_error(capsys, example_scripts):
    code, _, err = run(capsys, "classify", "--lexicon", "nope", *example_scripts)
    assert code == 65
    assert "nope" in err


def test_stats_counts(capsys, tmp_path, example_scripts, monkeypatch):
    table = tmp_path / "tokens.csv"
    run(capsys, "unnest", "--output", str(table), *example_scripts)
    code, out, _ = run(
        capsys, "stats", "counts", "--input", str(table), "--by", "func", "--sort"
    )
    assert code == 0
    rows = rows_of_csv(out)
    assert rows[0] == {"func": "%>%", "n": "5"}


def test_stats_percent(capsys, tmp_path, percent_fixture):
    table = tmp_path / "classified.csv"
    with open(table, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "classification"])
        for unit in percent_fixture["units"]:
            for cls, n in unit["counts"].items():
                w.writerows([[unit["unit"], cls]] * n)
    code, out, _ = run(capsys, "stats", "percent", "--input", str(table), "--unit", "id")
    assert code == 0
    rows = rows_of_csv(out)
    got = [(r["classification"], r["average_percent"]) for r in rows]
    assert got == [
        ("data cleaning", "36.40"), ("visualization", "23.17"),
        ("exploratory", "21.32"), ("setup", "18.87"), ("modeling", "17.69"),
        ("import", "8.58"), ("communication", "5.14"), ("evaluation", "3.62"),
        ("export", "0.82"),
    ]


def test_stats_top(capsys, tmp_path):
    table = tmp_path / "counts.csv"
    table.write_text(
        "grp,func,n\ng,a,5\ng,b,3\ng,c,3\ng,d,1\n"
    )
    code, out, _ = run(
        capsys, "stats", "top", "--input", str(table), "--group", "grp", "--n", "2"
    )
    assert code == 0
    assert [r["func"] for r in rows_of_csv(out)] == ["a", "b", "c"]


def test_stats_unknown_column_is_data_error(capsys, tmp_path):
    table = tmp_path / "t.csv"
    table.write_text("func\nf\n")
    code, _, err = run(capsys, "stats", "counts", "--input", str(table), "--by", "zz")
    assert code == 65 and "zz" in err


@pytest.mark.parametrize(
    "argv, table",
    [
        (["stats", "counts", "--by", "zz"], b"func\n"),
        (["stats", "top", "--group", "zz"], b"func,n\n"),
    ],
    ids=["counts", "top"],
)
def test_header_only_table_checks_its_columns(argv, table):
    proc = run_process("-m", "codeweft.cli", *argv, stdin=table)
    assert proc.returncode == 65
    assert proc.stdout == ""
    assert "unknown column(s): zz" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_classify_ten_thousand_stage_pipe(tmp_path):
    source = tmp_path / "deep.R"
    source.write_text("x" + " %>% f()" * 10_000 + "\n")
    proc = run_process("-m", "codeweft.cli", "classify", "--best", str(source))
    assert proc.returncode == 0, proc.stderr[-500:]
    assert "Traceback" not in proc.stderr
    assert rows_of_csv(proc.stdout)[0]["func"] == "%>%"


def test_parse_of_long_chains_keeps_the_rows_after_them(tmp_path):
    pipe, total = tmp_path / "pipe.R", tmp_path / "sum.R"
    pipe.write_text("x" + " %>% f()" * 10_000 + "\n")
    total.write_text("1" + " + 1" * 3_000 + "\n")
    ok = tmp_path / "ok.R"
    ok.write_text("f(1)\n")
    proc = run_process("-m", "codeweft.cli", "parse", str(pipe), str(total), str(ok))
    assert proc.returncode == 0, proc.stderr[-500:]
    assert "Traceback" not in proc.stderr
    rows = rows_of_csv(proc.stdout)
    # a chain prints as its source
    assert [(r["file"], r["text"]) for r in rows] == [
        (str(path), path.read_text().strip()) for path in (pipe, total, ok)
    ]


def test_unnest_of_a_long_chain(tmp_path):
    # one row per call, each with its deparsed arguments: the output grows
    # with the square of the chain's length
    source = tmp_path / "chain.R"
    source.write_text("x" + " %>% f()" * 1_000 + "\n")
    proc = run_process("-m", "codeweft.cli", "unnest", str(source))
    assert proc.returncode == 0, proc.stderr[-500:]
    assert "Traceback" not in proc.stderr
    assert [r["func"] for r in rows_of_csv(proc.stdout)] == ["%>%"] * 1_000 + ["f"] * 1_000


@pytest.mark.xfail(strict=True, reason="json.dumps of a long chain's tree passes the C encoder's "
                   "nesting limit; --json-ast needs a nesting-free form for chains")
def test_json_ast_of_a_long_chain(tmp_path):
    source = tmp_path / "chain.R"
    source.write_text("x" + " %>% f()" * 600 + "\n")
    proc = run_process("-m", "codeweft.cli", "parse", "--json-ast", str(source))
    assert proc.returncode == 0, proc.stderr[-500:]
    assert "Traceback" not in proc.stderr


def test_record_and_table(capsys, tmp_path, monkeypatch):
    log = tmp_path / "log.jsonl"
    monkeypatch.setattr(
        "sys.stdin",
        io.StringIO('dance_start()\n1 + 2\n"here is some text"\nsum(1:10)\n'),
    )
    code, _, _ = run(capsys, "record", "--log", str(log))
    assert code == 0
    code, out, _ = run(capsys, "record", "--table", "--log", str(log))
    assert code == 0
    rows = rows_of_csv(out)
    assert len(rows) == 6
    assert rows[0]["expr"] == "<session info>"
    assert rows[2]["expr"] == "1 + 2"
    code, _, _ = run(capsys, "record", "--remove", "--log", str(log))
    assert code == 0 and not log.exists()


def test_fetch_manifest(capsys, tmp_path, example_scripts):
    mf = tmp_path / "m.txt"
    mf.write_text("\n".join(example_scripts) + "\n")
    code, out, _ = run(capsys, "fetch", str(mf))
    assert code == 0
    assert len(rows_of_csv(out)) == 9


def test_missing_source_is_io_error(capsys):
    code, _, err = run(capsys, "parse", "/no/such/file.R")
    assert code == 66 and "file.R" in err


def test_partial_parse_error_exit(capsys, tmp_path):
    bad = tmp_path / "bad.R"
    bad.write_text("x <- ) oops\ny <- 1\n")
    code, out, err = run(capsys, "parse", str(bad))
    assert code == 2
    assert len(rows_of_csv(out)) == 1  # good line still emitted
    assert "line 1" in err


def test_lexer_error_keeps_the_rows_before_it(capsys, tmp_path):
    src = tmp_path / "cut.R"
    src.write_text('x <- 1\ny <- 2\nw <- "unterminated\n')
    code, out, err = run(capsys, "parse", str(src))
    assert code == 2
    assert [r["text"] for r in rows_of_csv(out)] == ["x <- 1", "y <- 2"]
    assert "unterminated string literal" in err and "line 3" in err


def test_stray_else_is_reported_at_the_keyword(capsys, tmp_path):
    src = tmp_path / "else.R"
    src.write_text("x <- 1\nelse y\n")
    code, out, err = run(capsys, "parse", str(src))
    assert code == 2
    assert [r["text"] for r in rows_of_csv(out)] == ["x <- 1"]
    assert "unexpected 'else'" in err and "(line 2, col 1)" in err


def test_usage_error_exit():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["stats", "nonsense"])
    assert exc.value.code == 64


@pytest.mark.parametrize(
    "argv",
    [
        ["fetch", "--concurrency", "0", "m.txt"],
        ["stats", "top", "--group", "g", "--n", "0"],
    ],
)
def test_non_positive_count_is_usage_error(argv):
    proc = run_process("-m", "codeweft.cli", *argv)
    assert proc.returncode == 64
    assert "Traceback" not in proc.stderr
    assert "expected a positive integer, got '0'" in proc.stderr


@pytest.mark.parametrize(
    "bad_line",
    [
        b'{"kind": "expression", "expr_text": "x"}',
        b'{"dt": "2020-01-01T00:00:00.000+00:00"}',
        b'{"kind": "expression", "dt": "yesterday"}',
        b'{"kind": "expression", "dt": 5}',
        b'{"kind": "expression",',
        b'{"kind": "expression", "dt": "2020-01-01T00:00:00.000+00:00", "expr_text": "\xff"}',
        b'{"kind": "expression", "dt": "2020-01-01T00:00:00.000+00:00", "meta": [1]}',
        b'{"kind": "expression", "dt": "2020-01-01T00:00:00.000+00:00", "expr_text": 5,'
        b' "meta": {"parsed": true}}',
    ],
    ids=[
        "no-dt", "no-kind", "bad-dt", "numeric-dt", "truncated-json", "bad-utf8",
        "list-meta", "numeric-expr-text",
    ],
)
def test_corrupt_log_is_data_error(capsys, tmp_path, bad_line):
    log = tmp_path / "log.jsonl"
    log.write_bytes(
        b'{"kind": "expression", "dt": "2020-01-01T00:00:00.000+00:00"}\n' + bad_line + b"\n"
    )
    code, _, err = run(capsys, "record", "--table", "--log", str(log))
    assert code == 65
    assert err.startswith(f"codeweft: {log}:2: ")


def test_cli_import_leaves_http_stack_unloaded():
    # certifi is loaded by some interpreters' site start-up, not by codeweft
    heavy = ["requests", "urllib3", "urllib.request", "http.client", "ssl", "concurrent.futures"]
    proc = run_process(
        "-c", f"import sys, codeweft.cli; print([m for m in {heavy!r} if m in sys.modules])"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def imported_modules(*argv):
    """The modules that a fresh `python -m codeweft.cli ARGV` imports."""
    proc = run_process("-X", "importtime", "-m", "codeweft.cli", *argv)
    assert proc.returncode == 0, proc.stderr[-500:]
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[-1].strip() for line in lines}


def loaded_layers(*argv):
    """The codeweft submodules that a fresh `python -m codeweft.cli ARGV` imports."""
    names = imported_modules(*argv)
    return {name.split(".", 1)[1] for name in names if name.startswith("codeweft.")}


@pytest.mark.parametrize(
    "argv",
    [
        ["stats", "counts", "--input", "{tmp}/calls.csv"],
        ["stats", "percent", "--input", "{tmp}/classified.csv"],
        ["stats", "top", "--input", "{tmp}/counts.csv", "--group", "g"],
        ["--version"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_stats_and_version_load_no_parse_stack(tmp_path, argv):
    (tmp_path / "calls.csv").write_text("func\nf\ng\nf\n")
    (tmp_path / "classified.csv").write_text("id,classification\n1,import\n2,visualization\n")
    (tmp_path / "counts.csv").write_text("g,n\na,2\nb,1\n")
    loaded = loaded_layers(*(arg.format(tmp=tmp_path) for arg in argv))
    assert not loaded & {"parser", "lexer", "rast", "deparse", "recorder", "lexicon"}


@pytest.mark.parametrize("command", ["parse", "classify", "record --table", "stats counts"])
def test_no_cli_path_loads_dataclasses(tmp_path, example_scripts, command):
    # the tree and row types are slotted classes on codeweft.frozen, not dataclasses
    from codeweft.recorder import record

    log, table = tmp_path / "session.jsonl", tmp_path / "calls.csv"
    record(["f(x)"], log_path=log)
    table.write_text("func\nf\ng\nf\n")
    inputs = {"record --table": ["--log", str(log)], "stats counts": ["--input", str(table)]}
    loaded = imported_modules(*command.split(), *inputs.get(command, example_scripts))
    assert not loaded & {"dataclasses", "inspect"}


@pytest.mark.parametrize("command", ["parse", "fetch"])
def test_parse_and_fetch_load_no_later_layer(tmp_path, example_scripts, command):
    manifest = tmp_path / "sources.txt"
    manifest.write_text(f"{example_scripts[0]}\n")
    loaded = loaded_layers(command, *([str(manifest)] if command == "fetch" else example_scripts))
    assert {"parser", "deparse"} <= loaded
    assert not loaded & {"recorder", "lexicon", "analyze"}


@pytest.mark.parametrize(
    "argv, table, message",
    [
        (
            ["stats", "counts", "--by", "func"],
            '{"func": "f"}\n{"fn": "g"}\n',
            "row 2: unknown column(s): func",
        ),
        (
            ["stats", "percent"],
            '{"id": 1, "classification": "a"}\n{"classification": "b"}\n',
            "row 2: unknown column(s): id",
        ),
        (
            ["stats", "top", "--group", "func"],
            '{"func": "f", "n": 3}\n{"func": "g"}\n',
            "row 2: unknown column(s): n",
        ),
    ],
    ids=["counts", "percent", "top"],
)
def test_column_missing_from_a_later_row_is_data_error(tmp_path, argv, table, message):
    path = tmp_path / "table.jsonl"
    path.write_text(table)
    proc = run_process("-m", "codeweft.cli", *argv, "--input", str(path))
    assert proc.returncode == 65
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [["parse"], ["unnest"], ["stats", "counts"], ["record"], ["fetch", "m.txt"]],
    ids=["parse", "unnest", "stats", "record", "fetch"],
)
def test_lexicon_path_is_a_classify_option(argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--lexicon-path", "lex"])
    assert exc.value.code == 64


def test_lexicon_path_flag(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("CODEWEFT_LEXICON_PATH", raising=False)
    (tmp_path / "classifications.csv").write_text(
        "func,classification,lexicon,score\nlibrary,import,crowdsource,1\n"
    )
    src = tmp_path / "s.R"
    src.write_text("library(x)\n")
    _, out, _ = run(
        capsys, "classify", "--lexicon-path", str(tmp_path),
        "--lexicon", "crowdsource", str(src),
    )
    rows = rows_of_csv(out)
    assert rows == [{"func": "library", "classification": "import", "score": "1.0"}]


@pytest.mark.parametrize(
    "bad_text, message",
    [
        ('x <- "\\x', "invalid escape \\x"),
        ('x <- "\\u4', "unterminated string literal"),
        ("x <- '\\U", "invalid escape \\U"),
        ("x <- 2²", "invalid character '²'"),
        ("x <- .²", "invalid character '²'"),
        ('x <- "\\UFFFFFFFF"', "invalid escape \\UFFFFFFFF"),
        ('x <- "\\uD800"', "invalid escape \\uD800"),
        ("x <- ٣ + 1", "invalid character '٣'"),
        ('x <- "a\\0b"', "nul character not allowed"),
    ],
    ids=["hex-at-eof", "short-unicode-at-eof", "big-unicode-at-eof", "superscript",
         "dot-superscript", "beyond-unicode", "surrogate", "arabic-digit", "nul-escape"],
)
def test_lexer_error_is_isolated_and_finishes(tmp_path, bad_text, message):
    ok = tmp_path / "ok.R"
    ok.write_text("f(1)\ny <- 2\n", encoding="utf-8")
    bad = tmp_path / "bad.R"
    bad.write_text(bad_text, encoding="utf-8")  # no final newline: the input ends mid-token
    proc = run_process("-m", "codeweft.cli", "parse", str(ok), str(bad))
    assert proc.returncode == 2
    assert [r["text"] for r in rows_of_csv(proc.stdout)] == ["f(1)", "y <- 2"]
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("deep_first", [True, False], ids=["deep-first", "deep-last"])
def test_nesting_past_the_cap_is_isolated_and_finishes(tmp_path, deep_first):
    ok = tmp_path / "ok.R"
    ok.write_text("f(1)\ny <- 2\n", encoding="utf-8")
    deep = tmp_path / "deep.R"
    deep.write_text("x <- " + "(" * 1000 + "y" + ")" * 1000 + "\n", encoding="utf-8")
    sources = [deep, ok] if deep_first else [ok, deep]
    proc = run_process("-m", "codeweft.cli", "parse", *map(str, sources))
    assert proc.returncode == 2
    assert [r["text"] for r in rows_of_csv(proc.stdout)] == ["f(1)", "y <- 2"]
    assert "nested" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, table, message",
    [
        (["stats", "counts"], '{"func": "f"}\n{bad\n', ":2: bad JSON row: "),
        (["stats", "counts"], '{"func": "f"}\n[1,2]\n', ":2: JSON row is not an object"),
        (
            ["stats", "top", "--group", "func"],
            "func,n\nf,3\ng,x\n",
            "row 2: n is not an integer: 'x'",
        ),
        (["stats", "top", "--group", "func"], "func,n\nf,3,extra\n", ":2: expected 2 fields, got 3"),
        (["stats", "counts"], "func,n\nf,3\ng\n", ":3: expected 2 fields, got 1"),
        (["stats", "counts"], '{"func": ["a"]}\n', ":1: column 'func' holds a JSON list or object"),
        (
            ["stats", "top", "--group", "func"],
            '{"func": ["a"], "n": 1}\n',
            ":1: column 'func' holds a JSON list or object",
        ),
        (
            ["stats", "percent"],
            '{"id": {"a": 1}, "classification": "x"}\n',
            ":1: column 'id' holds a JSON list or object",
        ),
        (
            ["stats", "top", "--group", "func"],
            '{"func": "f", "n": 1e400}\n',
            "row 1: n is not an integer: inf",
        ),
        (["stats", "counts"], "func\na\rb\n", ":2: malformed CSV: "),
    ],
    ids=[
        "bad-json", "json-array", "non-integer-n", "extra-field", "short-row", "json-list-counts",
        "json-list-top", "json-object-percent", "overflowing-n", "bare-carriage-return",
    ],
)
def test_corrupt_table_is_data_error(tmp_path, argv, table, message):
    path = tmp_path / "table.txt"
    path.write_text(table)
    proc = run_process("-m", "codeweft.cli", *argv, "--input", str(path))
    assert proc.returncode == 65
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "table, expected",
    [('{"func": "a"}\n{"func": 1}\n', "1,1\na,1\n"), ('{"func": "a"}\n{"func": null}\n', "null,1\na,1\n")],
    ids=["number-and-string", "null-and-string"],
)
def test_sorted_counts_order_mixed_json_key_types(tmp_path, table, expected):
    path = tmp_path / "table.jsonl"
    path.write_text(table)
    proc = run_process("-m", "codeweft.cli", "stats", "counts", "--sort", "--input", str(path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "func,n\n" + expected


def test_counts_keep_json_keys_of_different_types_apart(capsys, tmp_path):
    # 1, true and 1.0 are equal in Python; as JSON values they are three keys
    path = tmp_path / "table.jsonl"
    path.write_text('{"func": 1}\n{"func": true}\n{"func": 1.0}\n')
    code, out, _ = run(capsys, "stats", "counts", "--input", str(path), "--format", "jsonl")
    assert code == 0
    assert [json.loads(line) for line in out.splitlines()] == [
        {"func": 1, "n": 1}, {"func": True, "n": 1}, {"func": 1.0, "n": 1},
    ]
    assert [type(json.loads(line)["func"]) for line in out.splitlines()] == [int, bool, float]


@pytest.mark.parametrize(
    "table, argv, expected",
    [
        # 1, true and 1.0 are three units, so each class is the whole of its units
        (
            '{"id": 1, "classification": "a"}\n{"id": true, "classification": "b"}\n'
            '{"id": 1.0, "classification": "a"}\n',
            ["percent", "--unit", "id"],
            "classification,average_percent\na,100.00\nb,100.00\n",
        ),
        (
            '{"id": "u", "classification": 1}\n{"id": "u", "classification": true}\n',
            ["percent", "--unit", "id", "--format", "jsonl"],
            '{"classification": 1, "average_percent": 50.0}\n'
            '{"classification": true, "average_percent": 50.0}\n',
        ),
        (
            '{"g": 1, "n": 2}\n{"g": true, "n": 1}\n',
            ["top", "--group", "g", "--n", "1", "--format", "jsonl"],
            '{"g": 1, "n": 2}\n{"g": true, "n": 1}\n',
        ),
        # a CSV cell spells the JSON value, not Python's
        (
            '{"g": 1, "n": 2}\n{"g": true, "n": 1}\n{"g": false, "n": 1}\n{"g": null, "n": 1}\n'
            '{"g": 2.5, "n": 1}\n',
            ["top", "--group", "g", "--n", "1"],
            "g,n\n1,2\ntrue,1\nfalse,1\nnull,1\n2.5,1\n",
        ),
    ],
    ids=["percent-units", "percent-classes", "top-groups", "top-groups-csv"],
)
def test_percent_and_top_keep_json_keys_of_different_types_apart(capsys, tmp_path, table, argv,
                                                                 expected):
    path = tmp_path / "table.jsonl"
    path.write_text(table)
    code, out, err = run(capsys, "stats", *argv, "--input", str(path))
    assert (code, err) == (0, "")
    assert out == expected


def test_json_ast_writes_non_finite_numbers_as_strict_json(capsys, tmp_path):
    source = tmp_path / "inf.R"
    source.write_text("Inf\nNaN\n1e999\n")
    code, out, _ = run(capsys, "parse", "--json-ast", "--format", "jsonl", str(source))
    assert code == 0

    def refuse(name):
        raise ValueError(f"not standard JSON: {name}")

    rows = [json.loads(line, parse_constant=refuse) for line in out.splitlines()]
    asts = [json.loads(row["ast"], parse_constant=refuse) for row in rows]
    assert [(row["text"], ast["value"]) for row, ast in zip(rows, asts)] == [
        ("Inf", "Inf"), ("NaN", "NaN"), ("1e999", "Inf"),
    ]


def test_stats_reads_a_table_with_a_long_field(tmp_path):
    # a string literal longer than the csv module's default field limit (131072)
    big = tmp_path / "big.R"
    big.write_text('x <- "' + "a" * 140_000 + '"\n')
    parsed = run_process("-m", "codeweft.cli", "parse", str(big))
    assert parsed.returncode == 0, parsed.stderr
    proc = run_process(
        "-m", "codeweft.cli", "stats", "counts", "--by", "file", stdin=parsed.stdout.encode()
    )
    assert proc.returncode == 0, proc.stderr
    assert rows_of_csv(proc.stdout) == [{"file": str(big), "n": "1"}]


def test_malformed_lexicon_csv_is_data_error(tmp_path):
    lexicon = tmp_path / "classifications.csv"
    lexicon.write_text("func,classification,lexicon,score\n" + "f" * 200_000 + ",import,crowdsource,1\n")
    src = tmp_path / "s.R"
    src.write_text("library(x)\n")
    proc = run_process("-m", "codeweft.cli", "classify", "--lexicon-path", str(tmp_path), str(src))
    assert proc.returncode == 65
    assert f"{lexicon}:2: malformed CSV: " in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["parse", "unnest", "classify"])
def test_each_source_is_written_before_the_next_is_read(monkeypatch, tmp_path, command):
    events = []
    read_rfiles = corpus.read_rfiles

    def read(sources):
        events.append(("read", *sources))
        return read_rfiles(sources)

    class Out(io.StringIO):
        def write(self, text):
            events.append(("write", text))
            return super().write(text)

    monkeypatch.setattr(corpus, "read_rfiles", read)
    monkeypatch.setattr(sys, "stdout", Out())
    first, second = tmp_path / "a.R", tmp_path / "b.R"
    first.write_text("library(a)\n")
    second.write_text("library(b)\n")
    assert main([command, str(first), str(second)]) == 0
    before = events[: events.index(("read", str(second)))]
    assert ("read", str(first)) in before
    assert sum(kind == "write" for kind, _ in before) >= 2  # the header and the first rows


@pytest.mark.parametrize(
    "case", ["unwritable-output", "closed-pipe", "log-under-a-file", "table-of-a-dir", "remove-a-dir"]
)
def test_output_io_error_exits_66(tmp_path, case):
    ok = tmp_path / "ok.R"
    ok.write_text("f(x)\n" * 5000)  # more rows than a pipe buffer holds
    argv = {
        "unwritable-output": ["parse", str(ok), "--output", str(tmp_path / "no" / "x.csv")],
        "closed-pipe": ["unnest", str(ok)],
        "log-under-a-file": ["record", "--log", str(ok / "s.jsonl")],
        "table-of-a-dir": ["record", "--table", "--log", str(tmp_path)],
        "remove-a-dir": ["record", "--remove", "--log", str(tmp_path)],
    }[case]
    if case == "closed-pipe":  # `codeweft unnest ok.R | head -1`
        with subprocess.Popen(
            [sys.executable, "-m", "codeweft.cli", *argv], env=process_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as proc:
            assert proc.stdout.readline() == b"file,line,func,args\n"
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
    else:
        proc = run_process("-m", "codeweft.cli", *argv)
        code, err = proc.returncode, proc.stderr
    assert code == 66
    assert err.startswith("codeweft: ")
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize("input_path", ["file", "-"], ids=["file", "stdin"])
def test_non_utf8_table_is_io_error(tmp_path, input_path):
    table = b"func\nf\xff\n"
    path = tmp_path / "t.csv"
    path.write_bytes(table)
    proc = run_process(
        "-m", "codeweft.cli", "stats", "counts",
        "--input", str(path) if input_path == "file" else "-", stdin=table,
    )
    assert proc.returncode == 66
    assert "not valid UTF-8" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "bad_file, argv",
    [("classifications.csv", []), ("stopfuncs.txt", ["--drop-stopfuncs"])],
    ids=["classifications", "stopfuncs"],
)
def test_non_utf8_lexicon_is_data_error(tmp_path, bad_file, argv):
    (tmp_path / "classifications.csv").write_text(
        "func,classification,lexicon,score\nlibrary,import,crowdsource,1\n"
    )
    (tmp_path / "stopfuncs.txt").write_text("print\n")
    (tmp_path / bad_file).write_bytes(b"func\xff\n")
    src = tmp_path / "s.R"
    src.write_text("library(x)\n")
    proc = run_process(
        "-m", "codeweft.cli", "classify", "--lexicon-path", str(tmp_path), *argv, str(src)
    )
    assert proc.returncode == 65
    assert f"{tmp_path / bad_file}: not valid UTF-8" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_byte_order_mark_is_dropped_from_a_source(capsys, tmp_path, example_scripts):
    plain = Path(example_scripts[0]).read_bytes()
    (tmp_path / "plain.R").write_bytes(plain)
    (tmp_path / "bom.R").write_bytes(b"\xef\xbb\xbf" + plain)
    rows = {}
    for name in ("plain.R", "bom.R"):
        code, out, err = run(capsys, "parse", "--json-ast", str(tmp_path / name))
        assert code == 0, err
        rows[name] = [(r["line"], r["text"], r["ast"]) for r in rows_of_csv(out)]
    assert rows["bom.R"] == rows["plain.R"]
    (tmp_path / "bad.R").write_bytes(b"\xef\xbb\xbfx <- '\xff'\n")
    code, _, err = run(capsys, "parse", str(tmp_path / "bad.R"))
    assert code == 66 and "not valid UTF-8" in err


@pytest.mark.parametrize("input_path", ["file", "-"], ids=["file", "stdin"])
def test_byte_order_mark_is_dropped_from_a_table(tmp_path, input_path):
    table = b"\xef\xbb\xbffunc\nf\ng\nf\n"
    path = tmp_path / "t.csv"
    path.write_bytes(table)
    proc = run_process(
        "-m", "codeweft.cli", "stats", "counts", "--by", "func", "--sort",
        "--input", str(path) if input_path == "file" else "-", stdin=table,
    )
    assert proc.returncode == 0, proc.stderr
    assert rows_of_csv(proc.stdout) == [{"func": "f", "n": "2"}, {"func": "g", "n": "1"}]


def test_stdout_table_is_utf8_in_any_locale(tmp_path):
    src = tmp_path / "s.R"
    src.write_text('x <- "café ✓"\n', encoding="utf-8")
    out = tmp_path / "out.csv"
    argv = [sys.executable, "-m", "codeweft.cli", "parse", str(src)]
    env = dict(process_env(), PYTHONIOENCODING="ascii")
    proc = subprocess.run(argv, env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert subprocess.run(argv + ["--output", str(out)], env=env, timeout=60).returncode == 0
    assert proc.stdout == out.read_bytes()
    assert "café ✓".encode() in proc.stdout


def test_record_keeps_the_session_past_a_stray_byte(tmp_path):
    log = tmp_path / "log.jsonl"
    proc = run_process(
        "-m", "codeweft.cli", "record", "--log", str(log), stdin=b"x <- 1\ny <- '\xff'\nz <- 3\n"
    )
    assert proc.returncode == 0, proc.stderr
    events = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    assert [e["kind"] for e in events] == (
        ["boundary_start"] + ["expression"] * 3 + ["boundary_stop"]
    )
    assert [e["expr_text"] for e in events[1:4]] == ["x <- 1", "y <- '\ufffd'", "z <- 3"]
