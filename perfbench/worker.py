"""Run one workload in a fresh interpreter: timed passes, checks, counts.

Started by run.py with PYTHONPATH pointing at the checkout's `src`. It
prints `ready` once the entry modules are imported and the bundled
lexicon is loaded (the end of set-up), then runs closed-loop passes over
the generated inputs until `--seconds` of operation time is spent, and
writes a JSON result. With `--setup-only` it exits after `ready`.

With `--trace 1` the time is split: untraced passes first, then passes
with spans around every public call (tracer.py), then a few one-off
probes (lexicon load, tracemalloc peak of one parse, CLI start-up).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent

ENTRY_MODULES = {
    "corpus-batch": ["codeweft.corpus", "codeweft.unnest", "codeweft.lexicon", "codeweft.analyze"],
    "session-record": ["codeweft.recorder", "codeweft.lexicon"],
    "cli-oneshot": ["codeweft.cli"],
}
CLI_TIMEOUT_S = 120
PROBE_RUNS = 3


def setup(workload: str):
    for name in ENTRY_MODULES[workload]:
        importlib.import_module(name)
    from codeweft import lexicon

    return lexicon.load_classifications(), lexicon.load_stopfuncs()


@dataclass
class Pass:
    wall_s: float = 0.0
    ops_ms: list = field(default_factory=list)
    failed: int = 0
    notes: list = field(default_factory=list)  # exceptions and mismatches
    outputs: object = None  # full outputs (first pass) or a digest
    traced: bool = False
    factor: float = 1.0  # host slowness over the pass (calib.py)
    op_factors: list = field(default_factory=list)  # host slowness right after each operation


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# --- corpus-batch ---------------------------------------------------------------


class CorpusBatch:
    def __init__(self, ctx):
        self.ctx = ctx
        self.entries, self.stops = ctx.entries, ctx.stops
        self.plan = gen.corpus_plan(ctx.seed, ctx.root)
        self.paths = [spec["path"] for spec in self.plan["files"]]

    # calls go through the module attributes, so that a traced run sees them
    def op(self, path):
        res = corpus.read_rfiles([path])
        tokens = unnest.unnest_corpus(res.records)
        pairs = lexicon.classify(lexicon.remove_stopfuncs(tokens, self.stops), self.entries)
        return res, tokens, pairs

    @staticmethod
    def digest(res, tokens, pairs):
        return (len(res.records), len(res.errors), tuple(t.func for t in tokens),
                tuple((t.func, e.classification, e.lexicon) for t, e in pairs))

    def run_pass(self, keep: bool) -> Pass:
        p = Pass()
        outputs, all_pairs = [], []
        for i, path in enumerate(self.paths):
            self.ctx.set_request(i)
            t0 = time.perf_counter()
            try:
                res, tokens, pairs = self.op(path)
            except Exception as exc:  # one failed source must not stop the run
                p.ops_ms.append((time.perf_counter() - t0) * 1e3)
                self.ctx.cal.after(p.ops_ms[-1] / 1e3)
                p.failed += 1
                p.notes.append(f"{path}: {exc!r}"[:300])
                outputs.append(None)
                continue
            p.ops_ms.append((time.perf_counter() - t0) * 1e3)
            self.ctx.cal.after(p.ops_ms[-1] / 1e3)
            all_pairs.extend(pairs)
            outputs.append((res, tokens, pairs) if keep else self.digest(res, tokens, pairs))
        # the classified table, as the CLI would build it; not timed
        rows = [{"file": t.file, "func": t.func, "classification": e.classification,
                 "lexicon": e.lexicon} for t, e in all_pairs]
        self.ctx.set_request(len(self.paths))
        t0 = time.perf_counter()
        try:
            counts = analyze.count_funcs(rows, ["classification", "func"], sort=True)
            stats = (counts, analyze.class_percentages(rows, unit="file"),
                     analyze.top_n_by_group(counts, "classification", 5))
        except Exception as exc:
            stats = None
            p.failed += 1
            p.notes.append(f"stats: {exc!r}"[:300])
        p.ops_ms.append((time.perf_counter() - t0) * 1e3)
        self.ctx.cal.after(p.ops_ms[-1] / 1e3)
        p.wall_s = sum(p.ops_ms) / 1e3
        p.outputs = (outputs, stats)
        return p

    def check_first(self, p: Pass) -> list[str]:
        outputs, stats = p.outputs
        notes, pair_rows, digests = [], [], []
        for spec, out in zip(self.plan["files"], outputs):
            truth = gen.file_truth(spec, self.plan["goldens"], self.ctx.lexicon)
            pair_rows += [{"file": spec["path"], "func": f, "classification": c, "lexicon": lx}
                          for f, c, lx in truth["pairs"]]
            if out is None:
                digests.append(None)
                continue
            res, tokens, pairs = out
            funcs = [t.func for t in tokens]
            got_pairs = [(t.func, e.classification, e.lexicon) for t, e in pairs]
            found = check.corpus_file(truth, res.records, res.errors, funcs, got_pairs)
            if found:
                p.failed += 1
                notes += found
            digests.append(self.digest(res, tokens, pairs))
        if stats is not None:
            found = check.corpus_stats(pair_rows, *stats)
            if found:
                p.failed += 1
                notes += found
        p.outputs = (digests, stats)
        return notes

    def compare(self, p: Pass, first: Pass) -> list[str]:
        notes = []
        for path, got, want in zip(self.paths, p.outputs[0], first.outputs[0]):
            if got is not None and got != want:
                p.failed += 1
                notes.append(f"{path}: output differs from the first pass")
        if p.outputs[1] != first.outputs[1]:
            p.failed += 1
            notes.append("stats differ from the first pass")
        return notes

    def counts(self, p: Pass) -> dict:
        digests = [d for d in p.outputs[0] if d is not None]
        return {
            "parser.exprs": sum(d[0] for d in digests),
            "unnest.rows": sum(len(d[2]) for d in digests),
            "lexicon.pairs": sum(len(d[3]) for d in digests),
            "recorder.events": 0,
        }

    def source_texts(self) -> list[str]:
        return [(self.ctx.dir / path).read_text(encoding="utf-8") for path in self.paths]

    def probes(self) -> dict:
        """The 1,000-deep sources, run once each outside the timed passes."""
        result = {"attempted": 0, "failed": 0, "notes": []}
        for spec in self.plan["probes"]:
            result["attempted"] += 1
            try:
                res, tokens, pairs = self.op(spec["path"])
            except RecursionError as exc:
                result["failed"] += 1
                result["notes"].append(f"{spec['path']}: {exc!r}"[:200])
                continue
            truth = gen.file_truth(spec, self.plan["goldens"], self.ctx.lexicon)
            found = check.corpus_file(truth, res.records, res.errors, [t.func for t in tokens],
                                      [(t.func, e.classification, e.lexicon) for t, e in pairs])
            if found:
                result["failed"] += 1
                result["notes"] += found
        return result


# --- session-record ---------------------------------------------------------------


class TimedLines:
    """Line iterator that records the gap between successive pulls.

    The gap after line i is the time the recorder spent on line i. The
    calibration after each gap is left out of the next gap and counted in
    `excluded_s`; traced passes skip it (`cal` None), as it would run
    inside the recorder's span.
    """

    def __init__(self, lines: list[str], cal):
        self.lines = lines
        self.cal = cal
        self.i = 0
        self.last = None
        self.gaps_ms: list[float] = []
        self.excluded_s = 0.0

    def __iter__(self):
        return self

    def __next__(self) -> str:
        now = time.perf_counter()
        if self.last is not None:
            self.gaps_ms.append((now - self.last) * 1e3)
            if self.cal is not None:
                self.cal.after(now - self.last)
                self.excluded_s += time.perf_counter() - now
        self.last = time.perf_counter()
        if self.i == len(self.lines):
            raise StopIteration
        self.i += 1
        return self.lines[self.i - 1]


class SessionRecord:
    def __init__(self, ctx):
        self.ctx = ctx
        self.lines = (ctx.dir / "transcript.R").read_text(encoding="utf-8").splitlines(keepends=True)
        self.n = 0

    def run_pass(self, keep: bool) -> Pass:
        p = Pass()
        log = self.ctx.dir / f"session-{self.n}.jsonl"
        self.n += 1
        feeder = TimedLines(self.lines, None if self.ctx.tracer else self.ctx.cal)
        self.ctx.set_request(self.n)
        t0 = time.perf_counter()
        try:
            events = recorder.record(feeder, log_path=log)
            table = recorder.log_table(log)
        except Exception as exc:
            p.failed += len(self.lines) - len(feeder.gaps_ms)
            p.notes.append(f"session: {exc!r}"[:300])
            events, table = [], []
        p.wall_s = time.perf_counter() - t0 - feeder.excluded_s
        p.ops_ms = feeder.gaps_ms + [0.0] * (len(self.lines) - len(feeder.gaps_ms))
        log.unlink(missing_ok=True)
        p.outputs = ([(e.kind, e.meta.get("parsed"), e.expr_text) for e in events], [r["expr"] for r in table])
        self._events, self._table = events, table
        return p

    def check_first(self, p: Pass) -> list[str]:
        truth = gen.session_plan(self.ctx.seed)
        notes = check.session(truth["events"], self._events, self._table)
        p.failed += len(notes)
        self._events = self._table = None
        return notes

    def compare(self, p: Pass, first: Pass) -> list[str]:
        if p.outputs != first.outputs:
            p.failed += 1
            return ["session output differs from the first pass"]
        return []

    def counts(self, p: Pass) -> dict:
        events = p.outputs[0]
        return {
            "parser.exprs": sum(1 for kind, parsed, _ in events if kind == "expression" and parsed),
            "unnest.rows": 0,
            "lexicon.pairs": 0,
            "recorder.events": len(events),
        }

    def source_texts(self) -> list[str]:
        return [text for kind, parsed, text in self.ctx.first.outputs[0] if kind == "expression" and parsed]


# --- cli-oneshot --------------------------------------------------------------------


class CliOneshot:
    def __init__(self, ctx):
        self.ctx = ctx
        self.plan = gen.cli_plan(ctx.seed, ctx.root)
        self.n = 0
        self.spans: list = []

    def run_pass(self, keep: bool) -> Pass:
        p = Pass()
        rows = {}
        for name, argv, fmt in self.plan["calls"]:
            if self.ctx.tracer is not None:
                spans_file = self.ctx.dir / f"spans-{self.n}.json"
                cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_file), *argv]
            else:
                cmd = [sys.executable, "-m", "codeweft.cli", *argv]
            self.n += 1
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(cmd, cwd=self.ctx.dir, capture_output=True, text=True,
                                      timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                p.ops_ms.append((time.perf_counter() - t0) * 1e3)
                self.ctx.cal.after(p.ops_ms[-1] / 1e3)
                p.failed += 1
                p.notes.append(f"cli {name}: timed out")
                continue
            p.ops_ms.append((time.perf_counter() - t0) * 1e3)
            self.ctx.cal.after(p.ops_ms[-1] / 1e3)
            try:
                table = check.read_table(fmt, proc.stdout)
            except ValueError as exc:
                table = [f"unreadable output: {exc}"]
            found = check.cli_output(name, proc.returncode, table, proc.stderr, self.plan["expected"][name])
            if found:
                p.failed += 1
                p.notes += found
            rows[name] = len(table)
            if self.ctx.tracer is not None and spans_file.exists():
                self._merge(json.loads(spans_file.read_text()), self.n)
                spans_file.unlink()
        p.wall_s = sum(p.ops_ms) / 1e3
        p.outputs = rows
        return p

    def _merge(self, spans: list, request: int) -> None:
        from tracer import PARENT, REQ

        base = len(self.spans)
        for s in spans:
            s[PARENT] = None if s[PARENT] is None else s[PARENT] + base
            s[REQ] = request
            self.spans.append(s)

    def check_first(self, p: Pass) -> list[str]:
        return []  # every call is checked as it completes

    def compare(self, p: Pass, first: Pass) -> list[str]:
        return []

    def counts(self, p: Pass) -> dict:
        rows = p.outputs
        return {
            "parser.exprs": rows.get("parse", 1) - 1,
            "unnest.rows": rows.get("unnest", 0),
            "lexicon.pairs": rows.get("classify", 1) - 1,
            "recorder.events": rows.get("record-table", 1) - 1,
        }

    def source_texts(self) -> list[str]:
        return [(self.ctx.dir / name).read_text(encoding="utf-8") for name in self.plan["lexed"]]


RUNNERS = {"corpus-batch": CorpusBatch, "session-record": SessionRecord, "cli-oneshot": CliOneshot}


# --- passes -------------------------------------------------------------------------


class Context:
    def __init__(self, args, entries, stops):
        self.workload, self.seed = args.workload, args.seed
        self.root, self.dir = Path(args.root), Path(args.dir)
        self.entries, self.stops = entries, stops
        self.lexicon = gen.Lexicon(self.root)
        self.tracer = None  # set while a traced pass runs
        self.first = None
        self.cal = calib.Calibrator()

    def set_request(self, request) -> None:
        if self.tracer is not None:
            self.tracer.request = request


def run_passes(runner, ctx, seconds: float, notes: list, tracer=None) -> list:
    """Closed-loop passes until `seconds` of operation time is spent.

    The first pass is checked in full against the reference and warms the
    caches; later passes are compared with it, and only they are measured
    (`measured`). With a tracer, passes alternate untraced and traced
    (starting untraced), so slow drift of the machine hits both.
    """
    passes = []
    spent = 0.0
    while spent < seconds or len(passes) < (3 if tracer else 2):
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            ctx.tracer = tracer.install()
        gc.collect()
        ctx.cal.reset()
        p = runner.run_pass(keep=not passes)
        p.factor = ctx.cal.factor()
        # operations that never ran (a session cut short) take the pass's factor
        p.op_factors = ctx.cal.op_factors + [p.factor] * (len(p.ops_ms) - len(ctx.cal.op_factors))
        if traced:
            tracer.uninstall()
            ctx.tracer = None
        p.traced = traced
        if not passes:
            ctx.peak_rss_mb = rss_mb()
            notes += runner.check_first(p)
            ctx.first = p
            gc.collect()
        else:
            notes += runner.compare(p, ctx.first)
        notes += p.notes
        passes.append(p)
        spent += p.wall_s
    return passes


def count_tokens(texts: list[str]) -> int:
    """Tokens of each source lexed once; a source that does not lex counts 0."""
    from codeweft.errors import SourceError
    from codeweft.lexer import tokenize

    total = 0
    for text in texts:
        try:
            total += len(tokenize(text, keep_newlines=True))
        except SourceError:
            pass
    return total


def env_info() -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "gc_threshold": list(gc.get_threshold()),
        "platform": platform.platform(),
        "cpu": cpu,
    }


def _timed_run(cmd, cwd) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    return time.perf_counter() - t0, proc


def third_party_import_s(importtime_stderr: str) -> float:
    """Cumulative import time of third-party packages not nested in another.

    `-X importtime` prints children before parents; indentation gives depth.
    """
    stdlib = set(sys.stdlib_module_names) | {"codeweft", "__main__", "encodings", "site"}
    entries = []
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|", 2)
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, int(cumulative), name.strip().split(".")[0]))
    total, third_party_depths = 0, []
    for depth, cumulative, top in reversed(entries):  # parents first
        while third_party_depths and third_party_depths[-1] >= depth:
            third_party_depths.pop()
        if top not in stdlib:
            if not third_party_depths:
                total += cumulative
            third_party_depths.append(depth)
    return total / 1e6


def cli_probes(ctx) -> dict:
    """Interpreter start, import of codeweft.cli and its third-party share, main()."""
    py = sys.executable
    interp = statistics.median(_timed_run([py, "-c", "pass"], ctx.dir)[0] for _ in range(PROBE_RUNS))
    imp = statistics.median(
        _timed_run([py, "-c", "import codeweft.cli"], ctx.dir)[0] for _ in range(PROBE_RUNS)
    )
    deps = statistics.median(
        third_party_import_s(_timed_run([py, "-X", "importtime", "-c", "import codeweft.cli"], ctx.dir)[1].stderr)
        for _ in range(PROBE_RUNS)
    )
    main_s = []
    for i in range(PROBE_RUNS):
        spans_file = ctx.dir / f"probe-spans-{i}.json"
        _timed_run([py, str(HERE / "cli_child.py"), str(spans_file), "classify", "--best",
                    "--drop-stopfuncs", "cli_probe.R"], ctx.dir)
        spans = json.loads(spans_file.read_text())
        spans_file.unlink()
        main_s.append(sum(s[3] - s[2] for s in spans if s[0] == "main"))
    return {
        "cli.interp_s": interp,
        "cli.import_s": imp - interp,
        "cli.import_deps_s": deps,
        "cli.main_s": statistics.median(main_s),
    }


def layer_probes(ctx, runner) -> dict:
    import tracemalloc

    from codeweft.lexicon import load_classifications, load_stopfuncs
    from codeweft.parser import parse_program

    loads = []
    for _ in range(5):
        t0 = time.perf_counter()
        load_classifications()
        load_stopfuncs()
        loads.append(time.perf_counter() - t0)
    largest = max(runner.source_texts(), key=len)
    gc.collect()
    tracemalloc.start()
    parse_program(largest)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"lexicon.load_s": statistics.median(loads), "parser.peak_mb": peak / 2**20}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--root", default=".")
    ap.add_argument("--dir")
    ap.add_argument("--result")
    ap.add_argument("--spans")
    args = ap.parse_args()

    entries, stops = setup(args.workload)
    print("ready", flush=True)
    if args.setup_only:
        return

    # imported once set-up is measured; the runners call codeweft through
    # these module objects, so that a traced pass sees every call
    global analyze, check, corpus, gen, lexicon, recorder, unnest
    import check
    import gen
    from codeweft import analyze, corpus, lexicon, recorder, unnest

    ctx = Context(args, entries, stops)
    os.chdir(ctx.dir)  # sources are named relative to the input directory
    runner = RUNNERS[args.workload](ctx)
    notes: list[str] = []
    result: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env_info()}
    if not args.trace:
        passes = run_passes(runner, ctx, args.seconds, notes)
        measured = passes[1:]
    else:
        from tracer import Tracer, summarize

        tracer = Tracer()
        passes = run_passes(runner, ctx, args.seconds, notes, tracer)
        measured = [p for p in passes[1:] if not p.traced]
        traced = [p for p in passes if p.traced]
        spans = tracer.spans + getattr(runner, "spans", [])
        layers = summarize(spans, len(traced))
        layers.update(layer_probes(ctx, runner))
        layers.update(cli_probes(ctx))
        wall_untraced = statistics.median(p.wall_s for p in measured)
        wall_traced = statistics.median(p.wall_s for p in traced)
        layers["trace.overhead_frac"] = wall_traced / wall_untraced - 1
        layers["trace.passes"] = len(traced)
        if args.workload == "session-record":
            line_ms = [ms for p in traced for ms in p.ops_ms]
            input_bytes = sum(len(line.encode()) for line in runner.lines)
            layers["recorder.lines"] = len(runner.lines)
            layers["recorder.line_p50_ms"] = statistics.median(line_ms)
            layers["recorder.line_max_ms"] = statistics.median(max(p.ops_ms) for p in traced)
            layers["recorder.rescan_ratio"] = layers["recorder.rescanned_bytes"] / input_bytes
        else:
            for key in ("recorder.lines", "recorder.line_p50_ms", "recorder.line_max_ms", "recorder.rescan_ratio"):
                layers[key] = 0.0
        result["layers"] = layers
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            Path(args.spans).write_text(json.dumps({
                "workload": args.workload, "seed": args.seed, "env": result["env"], "layers": layers,
                "columns": ["name", "layer", "start", "end", "parent", "gc_s", "counts", "request"],
                "spans": spans,
            }))

    counts = runner.counts(traced[-1] if args.trace else passes[-1])
    counts["lexer.tokens"] = count_tokens(runner.source_texts())
    if args.workload == "cli-oneshot":
        ctx.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    result.update({
        "passes": len(measured),
        "pass_wall_s": [p.wall_s for p in measured],
        "pass_factor": [p.factor for p in measured],
        "op_factors": [p.op_factors for p in measured],
        "ops_ms": [p.ops_ms for p in measured],
        "attempted": sum(len(p.ops_ms) for p in passes),
        "failed": sum(p.failed for p in passes),
        "notes": notes[:20],
        "peak_rss_mb": ctx.peak_rss_mb,
        "counts": counts,
        "probes": runner.probes() if hasattr(runner, "probes") else None,
    })
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
