"""Reference checks: program outputs against the generator's truth.

Each function returns a list of mismatch messages (empty when the output
is right). Golden sources are compared with `rast.from_json` of their
golden tree; generated sources with the generator's tree under the
round-trip equivalence of the property suite (`strip_parens` on both
sides). The 1,000-deep probes are compared by records, function names
and lexicon join only, since the package's tree helpers recurse.
"""

from __future__ import annotations

import csv
import io
import json

import gen


def _first_diff(got: list, want: list) -> str:
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return f"item {i}: got {a!r}, want {b!r}"
    return f"length {len(got)}, want {len(want)}"


def corpus_file(truth: dict, records: list, errors: list, funcs: list, pairs: list) -> list[str]:
    from codeweft.rast import from_json, strip_parens

    path, kind = truth["path"], truth["kind"]
    out = []
    if errors:
        out.append(f"{path}: {len(errors)} source error(s), first: {errors[0]}")
    if len(records) != len(truth["exprs"]):
        out.append(f"{path}: {len(records)} records, want {len(truth['exprs'])}")
    else:
        for rec, (line, tree) in zip(records, truth["exprs"]):
            if rec.line != line:
                out.append(f"{path}: record at line {rec.line}, want {line}")
                break
            if kind == "golden":
                same = rec.expr == from_json(tree)
            elif kind == "script":
                same = strip_parens(rec.expr) == strip_parens(from_json(tree))
            else:
                same = True  # deep probes: covered by funcs and pairs
            if not same:
                out.append(f"{path}:{line}: tree differs from the reference")
                break
    if funcs != truth["funcs"]:
        out.append(f"{path}: unnest functions differ, {_first_diff(funcs, truth['funcs'])}")
    if pairs != truth["pairs"]:
        out.append(f"{path}: lexicon join differs, {_first_diff(pairs, truth['pairs'])}")
    return out


def corpus_stats(pair_rows: list[dict], counts: list, percent: list, top: list) -> list[str]:
    """count_funcs / class_percentages / top_n_by_group against naive tallies."""
    out = []
    want_counts = gen.naive_counts(pair_rows, ["classification", "func"])
    if counts != want_counts:
        out.append(f"count_funcs differs, {_first_diff(counts, want_counts)}")
    want_pct = gen.naive_percent(pair_rows, "file", "classification")
    got_pct = [(r["classification"], r["average_percent"]) for r in percent]
    if got_pct != want_pct:
        out.append(f"class_percentages differs, {_first_diff(got_pct, want_pct)}")
    want_top = gen.naive_top(want_counts, "classification", 5)
    if top != want_top:
        out.append(f"top_n_by_group differs, {_first_diff(top, want_top)}")
    return out


def session(truth_events: list, events: list, table: list[dict]) -> list[str]:
    """Logged events and the `log_table` rows read back from the log."""
    out = []
    kinds = [e.kind for e in events]
    if not kinds or kinds[0] != "boundary_start" or kinds[-1] != "boundary_stop":
        out.append(f"session boundaries missing: {kinds[:1]}...{kinds[-1:]}")
        return out
    got = [(e.meta.get("parsed"), e.expr_text) for e in events[1:-1]]
    want = [(parsed, text) for parsed, text, _ in truth_events]
    if got != want:
        out.append(f"recorded events differ, {_first_diff(got, want)}")
    want_rows = ["<session info>"]
    for parsed, text, trees in truth_events:
        want_rows.append("; ".join(gen.rp.CANONICAL.expr(t) for t in trees) if parsed else text)
    want_rows.append("<session info>")
    got_rows = [r["expr"] for r in table]
    if got_rows != want_rows:
        out.append(f"log_table differs, {_first_diff(got_rows, want_rows)}")
    return out


def read_table(fmt: str, stdout: str) -> list:
    """CLI output as rows: dicts for jsonl, lists (header first) for csv."""
    if fmt == "jsonl":
        return [json.loads(line) for line in stdout.splitlines() if line.strip()]
    return list(csv.reader(io.StringIO(stdout)))


def cli_output(name: str, returncode: int, got: list, stderr: str, want) -> list[str]:
    """One CLI call's exit status and table against rows built from truth."""
    if returncode != 0:
        return [f"cli {name}: exit {returncode}: {stderr.strip()[-300:]}"]
    if name == "stats-percent":
        want = [["classification", "average_percent"]] + [[c, f"{v:.2f}"] for c, v in want]
    if got != want:
        return [f"cli {name}: output differs, {_first_diff(got, want)}"]
    return []
