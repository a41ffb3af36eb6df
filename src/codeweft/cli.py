"""Command-line interface: parse -> unnest -> classify -> stats, plus
record and fetch.

Exit codes: 0 ok, 2 partial parse errors, 64 usage, 65 data, 66 IO.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .analyze import class_percentages, count_funcs, top_n_by_group
from .corpus import (
    ReadResult,
    fetch_manifest,
    read_rfiles,
)
from .deparse import deparse, deparse_arg
from .errors import (
    CodeweftError,
    HttpError,
    IoError,
    SchemaError,
    SourceError,
    UnknownColumn,
)
from .lexicon import (
    classify,
    load_classifications,
    load_stopfuncs,
    remove_stopfuncs,
)
from .rast import NullLit, StringLit, to_json
from .recorder import log_table, record, remove_log
from .unnest import unnest_corpus

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_IO = 66


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 64
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    """argparse type for counts; anything below 1 is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _output_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    sub.add_argument("--output", default="-", help="output path, '-' for stdout")


def build_parser() -> _Parser:
    parser = _Parser(prog="codeweft", description=__doc__)
    parser.add_argument("--version", action="version", version=f"codeweft {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = subs.add_parser("parse", help="expression dump per source")
    p.add_argument("sources", nargs="*")
    p.add_argument("--json-ast", action="store_true", help="include the expression tree")
    _output_options(p)

    p = subs.add_parser("unnest", help="tidy function/argument rows")
    p.add_argument("sources", nargs="*")
    p.add_argument("--drop-literals", action="store_true",
                   help="drop string/NULL top-level expressions before unnesting")
    p.add_argument("--with-depth", action="store_true", help="add the call depth column")
    _output_options(p)

    p = subs.add_parser("classify", help="join tokens with lexicons")
    p.add_argument("sources", nargs="*")
    p.add_argument("--lexicon", default=None, help="crowdsource or leeklab")
    p.add_argument("--lexicon-path", default=None, help="directory with lexicon files")
    p.add_argument("--best", action="store_true",
                   help="keep only the top classification per function")
    p.add_argument("--drop-stopfuncs", action="store_true")
    p.add_argument("--drop-literals", action="store_true")
    _output_options(p)

    p = subs.add_parser("stats", help="summary tables")
    p.add_argument("statistic", choices=["counts", "percent", "top"])
    p.add_argument("--input", default="-", help="input table (csv/jsonl), '-' for stdin")
    p.add_argument("--by", default="func", help="comma-separated grouping columns")
    p.add_argument("--sort", action="store_true", help="order counts descending")
    p.add_argument("--unit", default="id", help="unit column for percent")
    p.add_argument("--class-col", default="classification")
    p.add_argument("--group", default=None, help="group column for top")
    p.add_argument("--n", type=_positive_int, default=5)
    _output_options(p)

    p = subs.add_parser("record", help="log a session from stdin")
    p.add_argument("--log", default=None, help="log file path")
    p.add_argument("--value", action="store_true",
                   help="request value capture (recorded in metadata only)")
    p.add_argument("--table", action="store_true", help="print the tidy log and exit")
    p.add_argument("--remove", action="store_true", help="delete the log and exit")
    _output_options(p)

    p = subs.add_parser("fetch", help="ingest a manifest of sources")
    p.add_argument("manifest")
    p.add_argument("--concurrency", type=_positive_int, default=4)
    _output_options(p)

    return parser


# --- output plumbing ----------------------------------------------------


def _write_rows(rows: list[dict], columns: list[str], args) -> None:
    if args.output == "-":
        _dump(rows, columns, args.format, sys.stdout)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            _dump(rows, columns, args.format, fh)


def _dump(rows: list[dict], columns: list[str], fmt: str, fh) -> None:
    if fmt == "csv":
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row.get(c, "") for c in columns])
    else:
        for row in rows:
            fh.write(json.dumps({c: row.get(c, "") for c in columns}, ensure_ascii=False))
            fh.write("\n")


def _report_errors(result: ReadResult) -> int:
    code = EXIT_OK
    for err in result.errors:
        print(f"codeweft: {err}", file=sys.stderr)
        if isinstance(err, (IoError, HttpError)):
            code = EXIT_IO
        elif code != EXIT_IO:
            code = EXIT_PARSE
    return code


def _load_sources(args) -> tuple[ReadResult, int]:
    result = read_rfiles(args.sources)
    return result, _report_errors(result)


def _drop_literals(result: ReadResult) -> None:
    result.records = [
        r for r in result.records if not isinstance(r.expr, (StringLit, NullLit))
    ]


def _args_cell(token) -> str:
    return "; ".join(deparse_arg(a) for a in token.args)


# --- subcommands --------------------------------------------------------


def cmd_parse(args) -> int:
    result, code = _load_sources(args)
    rows = []
    for rec in result.records:
        row = {"file": rec.file, "line": rec.line, "text": deparse(rec.expr)}
        if args.json_ast:
            row["ast"] = json.dumps(to_json(rec.expr), ensure_ascii=False)
        rows.append(row)
    columns = ["file", "line", "text"] + (["ast"] if args.json_ast else [])
    _write_rows(rows, columns, args)
    return code


def cmd_unnest(args) -> int:
    result, code = _load_sources(args)
    if args.drop_literals:
        _drop_literals(result)
    tokens = unnest_corpus(result.records)
    columns = ["file", "line", "func", "args"]
    if args.with_depth:
        columns.append("depth")
    rows = []
    for t in tokens:
        row = {"file": t.file, "line": t.line, "func": t.func, "args": _args_cell(t)}
        if args.with_depth:
            row["depth"] = t.depth
        rows.append(row)
    _write_rows(rows, columns, args)
    return code


def cmd_classify(args) -> int:
    result, code = _load_sources(args)
    if args.drop_literals:
        _drop_literals(result)
    tokens = unnest_corpus(result.records)
    lexdir = Path(args.lexicon_path) if args.lexicon_path else None
    if args.drop_stopfuncs:
        stops = load_stopfuncs(lexdir / "stopfuncs.txt" if lexdir else None)
        tokens = remove_stopfuncs(tokens, stops)
    entries = load_classifications(
        source=lexdir / "classifications.csv" if lexdir else None,
        which=args.lexicon,
        include_duplicates=not args.best,
    )
    pairs = classify(tokens, entries)
    columns = ["func", "classification"]
    if args.lexicon is None:
        columns.append("lexicon")
    if not args.best:
        columns.append("score")
    rows = [
        {
            "func": t.func,
            "classification": e.classification,
            "lexicon": e.lexicon,
            "score": e.score,
        }
        for t, e in pairs
    ]
    _write_rows(rows, columns, args)
    return code


def _read_table(path: str) -> list[dict]:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise IoError(path, str(exc)) from exc
    if text.lstrip().startswith("{"):
        rows = []
        for lineno, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except ValueError as exc:
                raise SchemaError(f"{path}:{lineno}: bad JSON row: {exc}") from exc
            if not isinstance(row, dict):
                raise SchemaError(f"{path}:{lineno}: JSON row is not an object")
            rows.append(row)
        return rows
    reader = csv.DictReader(io.StringIO(text))
    return [dict(row) for row in reader]


def cmd_stats(args) -> int:
    rows = _read_table(args.input)
    if args.statistic == "counts":
        keys = [c.strip() for c in args.by.split(",") if c.strip()]
        out = count_funcs(rows, keys, sort=args.sort)
        _write_rows(out, keys + ["n"], args)
    elif args.statistic == "percent":
        out = class_percentages(rows, unit=args.unit, class_col=args.class_col)
        if args.format == "csv":  # match the published 2-decimal tables
            for row in out:
                row["average_percent"] = f"{row['average_percent']:.2f}"
        _write_rows(out, [args.class_col, "average_percent"], args)
    else:
        if args.group is None:
            raise UnknownColumn("top requires --group")
        out = top_n_by_group(rows, group_col=args.group, n=args.n)
        columns = list(rows[0].keys()) if rows else [args.group, "n"]
        _write_rows(out, columns, args)
    return EXIT_OK


def cmd_record(args) -> int:
    if args.remove:
        remove_log(args.log)
        return EXIT_OK
    if args.table:
        rows = log_table(args.log)
        _write_rows(rows, ["expr", "value", "path", "contents", "selection", "dt"], args)
        return EXIT_OK
    record(sys.stdin, log_path=args.log, capture_values=args.value)
    return EXIT_OK


def cmd_fetch(args) -> int:
    result = fetch_manifest(args.manifest, concurrency=args.concurrency)
    code = _report_errors(result)
    rows = [
        {"file": r.file, "line": r.line, "text": deparse(r.expr)} for r in result.records
    ]
    _write_rows(rows, ["file", "line", "text"], args)
    return code


_COMMANDS = {
    "parse": cmd_parse,
    "unnest": cmd_unnest,
    "classify": cmd_classify,
    "stats": cmd_stats,
    "record": cmd_record,
    "fetch": cmd_fetch,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (IoError, HttpError) as exc:
        print(f"codeweft: {exc}", file=sys.stderr)
        return EXIT_IO
    except SourceError as exc:
        print(f"codeweft: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CodeweftError as exc:
        print(f"codeweft: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
