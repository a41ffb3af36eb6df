"""Tests of the benchmark itself (not of codeweft).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

Run from the repository root. The last test runs every workload twice
through run.py (untraced and traced) with one-second budgets.
"""

import filecmp
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import calib  # noqa: E402
import check  # noqa: E402
import gen  # noqa: E402
import rprint  # noqa: E402

WORKLOADS = ["corpus-batch", "cli-oneshot", "session-record"]


def _write(tmp_path: Path, workload: str, seed: int, name: str) -> Path:
    out = tmp_path / name
    gen.write_inputs(workload, seed, ROOT, out)
    return out


def _same_tree(a: Path, b: Path) -> bool:
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    return not mismatch and not errors


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    a = _write(tmp_path, workload, 5, "a")
    b = _write(tmp_path, workload, 5, "b")
    c = _write(tmp_path, workload, 6, "c")
    assert _same_tree(a, b)
    assert not _same_tree(a, c)


def test_generator_does_not_import_codeweft():
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); import gen, check, run; "
        "from pathlib import Path; import tempfile; "
        "d = tempfile.mkdtemp(dir='.'); "
        "[gen.write_inputs(w, 1, Path('.'), Path(d) / w) for w in gen.WORKLOADS]; "
        "gen.file_truth(gen.corpus_plan(1, Path('.'))['files'][0], gen.corpus_plan(1, Path('.'))['goldens'], "
        "gen.Lexicon(Path('.'))); gen.session_plan(1); gen.cli_plan(1, Path('.')); "
        "import shutil; shutil.rmtree(d); "
        "assert not [m for m in sys.modules if m.startswith('codeweft')], 'codeweft imported'"
    )
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)


def test_printer_matches_goldens_canonical_text():
    """The generator's own printer agrees with the golden trees' spelling."""
    from codeweft import deparse, parse_expr

    goldens = json.loads((ROOT / gen.GOLDENS).read_text())
    for entry in goldens[:200]:
        assert rprint.CANONICAL.expr(entry["ast"]) == deparse(parse_expr(entry["src"])), entry["src"]


# --- the checker rejects corrupted outputs --------------------------------------


def _corpus_outputs(spec, plan, tmp_path):
    from codeweft.corpus import read_rfiles
    from codeweft.lexicon import classify, load_classifications, load_stopfuncs, remove_stopfuncs
    from codeweft.unnest import unnest_corpus

    text, _ = gen.corpus_file(spec, plan["goldens"])
    path = tmp_path / spec["path"]
    path.write_text(text)
    res = read_rfiles([str(path)])
    tokens = unnest_corpus(res.records)
    pairs = classify(remove_stopfuncs(tokens, load_stopfuncs()), load_classifications())
    return res, [t.func for t in tokens], [(t.func, e.classification, e.lexicon) for t, e in pairs]


def test_checker_accepts_then_rejects_corrupted_corpus_output(tmp_path):
    from codeweft.rast import Arg, Call, SymbolRef

    plan = gen.corpus_plan(3, ROOT)
    lexicon = gen.Lexicon(ROOT)
    spec = next(s for s in plan["files"] if s["kind"] == "script")
    truth = gen.file_truth(spec, plan["goldens"], lexicon)
    res, funcs, pairs = _corpus_outputs(spec, plan, tmp_path)
    assert check.corpus_file(truth, res.records, res.errors, funcs, pairs) == []

    records = list(res.records)
    first = records[0]
    bad_expr = Call(SymbolRef("<-"), (Arg(SymbolRef("wrong")), Arg(SymbolRef("tree"))))
    records[0] = type(first)(file=first.file, expr=bad_expr, line=first.line)
    assert check.corpus_file(truth, records, res.errors, funcs, pairs)
    assert check.corpus_file(truth, res.records, res.errors, funcs[:-1], pairs)
    assert check.corpus_file(truth, res.records, res.errors, funcs, pairs[:-1] + [("x", "setup", "leeklab")])
    shifted = [type(r)(file=r.file, expr=r.expr, line=r.line + 1) for r in res.records]
    assert check.corpus_file(truth, shifted, res.errors, funcs, pairs)


def test_checker_rejects_corrupted_cli_table():
    plan = gen.cli_plan(4, ROOT)
    for name, _, _ in plan["calls"]:
        want = plan["expected"][name]
        if name == "stats-percent":
            good = [["classification", "average_percent"]] + [[c, f"{v:.2f}"] for c, v in want]
            bad = good[:1] + [[good[1][0], "0.01"]] + good[2:]
        else:
            good = want
            bad = want[:-1]
        assert check.cli_output(name, 0, good, "", want) == []
        assert check.cli_output(name, 0, bad, "", want)
        assert check.cli_output(name, 2, good, "boom", want)


def test_checker_rejects_corrupted_session(tmp_path):
    from codeweft.recorder import log_table, record

    truth = gen.session_plan(7)
    log = tmp_path / "s.jsonl"
    events = record(iter(line + "\n" for line in truth["lines"]), log_path=log)
    table = log_table(log)
    assert check.session(truth["events"], events, table) == []
    assert check.session(truth["events"], events[:3] + events[4:], table)
    bad_table = [dict(r) for r in table]
    bad_table[2]["expr"] += " + 1"
    assert check.session(truth["events"], events, bad_table)


def test_stats_checker_rejects_corrupted_counts():
    from codeweft.analyze import class_percentages, count_funcs, top_n_by_group

    rows = [{"file": f"f{i % 5}", "func": f"g{i % 7}", "classification": f"c{i % 3}", "lexicon": "l"}
            for i in range(100)]
    counts = count_funcs(rows, ["classification", "func"], sort=True)
    stats = (counts, class_percentages(rows, unit="file"), top_n_by_group(counts, "classification", 5))
    assert check.corpus_stats(rows, *stats) == []
    bad = [dict(r) for r in counts]
    bad[0]["n"] += 1
    assert check.corpus_stats(rows, bad, *stats[1:])


# --- traced and untraced runs agree -------------------------------------------------


def _run(workload: str, trace: int, report: Path) -> list:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "9", "--seconds", "1",
         "--trace", str(trace), "--report", str(report)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in wanted}
    return json.loads(report.read_text())


def test_calibration_runs_its_share_without_collecting_garbage():
    import gc

    collections = []
    callback = lambda phase, info: collections.append(phase)  # noqa: E731
    gc.callbacks.append(callback)
    try:
        cal = calib.Calibrator()
        cal.after(0.02)
        cal.after(0.0)
    finally:
        gc.callbacks.remove(callback)
    assert cal.seconds >= calib.SHARE * 0.02 and cal.chunks >= 2
    assert len(cal.op_factors) == 2 and all(f > 0 for f in cal.op_factors)
    assert cal.factor() > 0
    assert not collections
    cal.reset()
    assert cal.factor() == 1.0 and cal.op_factors == []


def test_normalize_divides_each_operation_by_its_own_factor():
    wall, ops = calib.normalize(0.5, [100.0, 200.0], [2.0, 0.5], 4.0)
    assert ops == [50.0, 400.0]
    assert wall == pytest.approx(0.45 + 0.2 / 4.0)


def test_reported_times_are_divided_by_the_host_factor(tmp_path):
    import statistics

    r = _run("session-record", 0, tmp_path / "plain.json")[0]
    assert r["passes"] >= 1 and all(len(f) == len(o) for f, o in zip(r["op_factors"], r["ops_ms"]))
    walls = [calib.normalize(*args)[0] for args in zip(r["pass_wall_s"], r["ops_ms"], r["op_factors"], r["pass_factor"])]
    assert r["wall_s"] == pytest.approx(statistics.median(walls))
    assert r["raw"]["wall_s"] == pytest.approx(statistics.median(r["pass_wall_s"]))
    assert r["setup_s"] == pytest.approx(statistics.median(s / f for s, f in zip(r["setup_samples"], r["setup_factor"])))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_counts_agree(tmp_path, workload):
    plain = _run(workload, 0, tmp_path / "plain.json")[0]
    traced = _run(workload, 1, tmp_path / "traced.json")[0]
    assert plain["counts"] == traced["counts"]
    if workload == "corpus-batch":
        # each source is lexed once per pass, so the spans saw the same tokens
        assert traced["layers"]["lexer.tokens_scanned"] == traced["counts"]["lexer.tokens"]


def test_refuses_to_run_without_the_package(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for f in BENCH.glob("*.py"):
        (bare / "perfbench" / f.name).write_text(f.read_text())
    (bare / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "corpus-batch", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
