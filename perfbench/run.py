"""The codeweft benchmark: one command, three seeded closed-loop workloads.

    python3 perfbench/run.py                       # every workload, one row each
    python3 perfbench/run.py --workload corpus-batch --seed 7 --seconds 15 --trace 0

Run from the root of a checkout. For each workload it generates the
inputs from --seed (gen.py), measures set-up in fresh interpreters,
runs the workload in a worker process (worker.py) and checks every
output against the generator's truth (check.py). It prints one row per
workload and, when one workload is named, ends with one JSON line:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
The exit code is non-zero when any output differs from the reference.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calib
import gen

HERE = Path(__file__).resolve().parent
WORKLOADS = ["corpus-batch", "cli-oneshot", "session-record"]
SETUP_RUNS = 9
WORKER_TIMEOUT_S = 150
WORK_DIR = ".perfbench_work"
TRACE_DIR = ".perfbench_out"

# every per-layer metric the traced run prints: name -> unit
LAYER_UNITS = {
    "lexer.tokenize_s": "s", "lexer.tokens": "count", "lexer.tokens_scanned": "count",
    "lexer.mb_s": "MB/s", "lexer.tokens_per_s": "1/s", "lexer.gc_s": "s",
    "parser.parse_s": "s", "parser.self_s": "s", "parser.exprs": "count", "parser.errors": "count",
    "parser.exprs_per_s": "1/s", "parser.peak_mb": "MB", "parser.gc_s": "s",
    "deparse.s": "s", "deparse.exprs": "count", "deparse.kb_s": "KB/s",
    "unnest.s": "s", "unnest.rows": "count", "unnest.rows_per_s": "1/s", "unnest.gc_s": "s",
    "lexicon.load_s": "s", "lexicon.classify_s": "s", "lexicon.stopfuncs_s": "s",
    "lexicon.pairs": "count", "lexicon.dropped": "count", "lexicon.gc_s": "s", "lexicon.coverage": "ratio",
    "analyze.counts_s": "s", "analyze.percent_s": "s", "analyze.top_s": "s", "analyze.rows_in": "count",
    "corpus.read_s": "s", "corpus.sources": "count", "corpus.bytes": "B", "corpus.fetch_s": "s",
    "recorder.record_s": "s", "recorder.lines": "count", "recorder.events": "count",
    "recorder.line_p50_ms": "ms", "recorder.line_max_ms": "ms", "recorder.log_table_s": "s",
    "recorder.rescanned_bytes": "B", "recorder.rescan_ratio": "ratio",
    "cli.interp_s": "s", "cli.import_s": "s", "cli.import_deps_s": "s", "cli.main_s": "s",
    "trace.overhead_frac": "ratio",
}
COUNT_KEYS = ["lexer.tokens", "parser.exprs", "unnest.rows", "lexicon.pairs", "recorder.events"]


def load_spec(root: Path) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    unknown = [m["name"] for m in spec["per_layer"] if m["name"] not in LAYER_UNITS]
    if unknown:
        raise SystemExit(f"BENCHMARK.json names per-layer metrics this harness lacks: {unknown}")
    return spec


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    for key in ("CODEWEFT_LEXICON_PATH", "CODEWEFT_LOG_PATH"):
        env.pop(key, None)
    return env


def start_worker(args: list[str], root: Path, env: dict) -> tuple[float, subprocess.Popen]:
    """Start worker.py; the seconds until it prints `ready` are one raw set-up sample."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args], cwd=root, env=env,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready: {line!r}")
    return ready_s, proc


def finish(proc: subprocess.Popen, timeout: float) -> int:
    try:
        proc.stdout.read()
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()


def calibrate(op_s: float) -> float:
    """Speed factor of the host right after a set-up sample of `op_s` seconds."""
    cal = calib.Calibrator()
    cal.after(op_s)
    return cal.factor()


def tail(ops: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it: (value, percentile)."""
    n = len(ops)
    if n <= 10:
        return max(ops), 100.0
    return sorted(ops, reverse=True)[10], 100.0 * (1 - 10 / n)


def op_stats(ops_per_pass: list[list[float]]) -> dict:
    """Median and tail over the operations of a pass, each operation taking
    its median time across passes, when a pass holds more than 10
    operations (every pass runs the same inputs in the same order);
    otherwise over every operation of every pass pooled."""
    if all(len(ops) > 10 for ops in ops_per_pass):
        per_op = [statistics.median(times) for times in zip(*ops_per_pass)]
        value, pct = tail(per_op)
        return {"op_p50_ms": statistics.median(per_op), "op_tail_ms": value, "tail_pct": pct,
                "tail_samples": len(per_op), "tail_scope": "per operation, median over passes"}
    pooled = [ms for ops in ops_per_pass for ms in ops]
    value, pct = tail(pooled)
    return {"op_p50_ms": statistics.median(pooled), "op_tail_ms": value, "tail_pct": pct,
            "tail_samples": len(pooled), "tail_scope": "pooled"}


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    env = child_env(root)
    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=root / WORK_DIR))
    try:
        gen.write_inputs(workload, seed, root, work)
        setup, setup_factor = [], []
        for _ in range(SETUP_RUNS):
            ready_s, proc = start_worker(["--workload", workload, "--setup-only"], root, env)
            finish(proc, 60)
            setup.append(ready_s)
            setup_factor.append(calibrate(ready_s))
        result_path = work / "result.json"
        spans_path = root / TRACE_DIR / f"trace-{workload}-seed{seed}.json"
        # the measuring worker's own start is not a set-up sample: it goes on
        # working after `ready`, so the host cannot be calibrated beside it
        _, proc = start_worker(
            ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--root", str(root), "--dir", str(work), "--result", str(result_path),
             "--spans", str(spans_path)], root, env)
        code = finish(proc, WORKER_TIMEOUT_S)
        if code != 0:
            raise RuntimeError(f"{workload} worker exited with {code}")
        res = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # every set-up sample and every operation is divided by the host factor
    # measured right after it (calib.py); the raw figures are kept beside
    res["setup_s"] = statistics.median(s / f for s, f in zip(setup, setup_factor))
    res["setup_samples"] = setup
    res["setup_factor"] = setup_factor
    res["factor"] = statistics.median(res["pass_factor"])
    walls, ops = zip(*map(calib.normalize, res["pass_wall_s"], res["ops_ms"], res["op_factors"],
                          res["pass_factor"]))
    raw = {"setup_s": statistics.median(setup), "wall_s": statistics.median(res["pass_wall_s"])}
    raw.update({k: v for k, v in op_stats(res["ops_ms"]).items() if k in ("op_p50_ms", "op_tail_ms")})
    res["wall_s"] = statistics.median(walls)
    res.update(op_stats(list(ops)))
    res["raw"] = raw
    res["correct"] = res["failed"] == 0
    if trace:
        res["layers"].update({k: res["counts"][k] for k in COUNT_KEYS})
    return res


def human_row(r: dict) -> str:
    probes = r.get("probes")
    probe_failed = probes["failed"] if probes else 0
    probe_n = probes["attempted"] if probes else 0
    failed_frac = (r["failed"] + probe_failed) / (r["attempted"] + probe_n)
    extra = f" (timed {r['failed']}/{r['attempted']}, depth probes {probe_failed}/{probe_n})" if probes else ""
    return (
        f"{r['workload']:<15} setup_s {r['setup_s']:.4f} s | wall_s {r['wall_s']:.4f} s | "
        f"op_p50_ms {r['op_p50_ms']:.4f} ms | op_tail_ms {r['op_tail_ms']:.3f} ms "
        f"(p{r['tail_pct']:.2f}, n={r['tail_samples']} {r['tail_scope']}, {r['passes']} passes) | "
        f"peak_rss_mb {r['peak_rss_mb']:.1f} MB | failed_frac {failed_frac:.5f}{extra} | "
        f"host factor {r['factor']:.3f} (raw wall_s {r['raw']['wall_s']:.4f} s) | "
        f"{'correct' if r['correct'] else 'MISMATCH'}"
    )


def print_layers(r: dict) -> None:
    print(f"# per-layer metrics, {r['workload']} (per pass, {r['layers']['trace.passes']} traced passes)")
    for name, unit in LAYER_UNITS.items():
        print(f"  {name:<26} {r['layers'][name]:>16.6g} {unit}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None, help="measured seconds per run")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--report", help="write every result, with counts and samples, to this JSON file")
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "codeweft" / "__init__.py").is_file() or not (root / gen.GOLDENS).is_file():
        print("perfbench: run from the root of a codeweft checkout (src/codeweft and tests/data needed)",
              file=sys.stderr)
        return 2
    spec = load_spec(root)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else [args.workload]

    results = []
    for workload in workloads:
        r = run_workload(root, workload, args.seed, seconds, args.trace)
        results.append(r)
        print(human_row(r), flush=True)
        for note in r["notes"]:
            print(f"  ! {note}")
        for note in (r["probes"] or {}).get("notes", []):
            print(f"  ~ depth probe {note}")
        if args.trace:
            print_layers(r)
    print(f"# env {json.dumps(results[0]['env'])}")
    if args.report:
        Path(args.report).write_text(json.dumps(results, indent=1))
    if len(results) == 1:
        r = results[0]
        if args.trace:
            metrics = {m["name"]: {"value": r["layers"][m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
        else:
            metrics = {m["name"]: {"value": r[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
        print(json.dumps({"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
                          "metrics": metrics}))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
