"""Command-line interface: parse -> unnest -> classify -> stats, plus
record and fetch.

Exit codes: 0 ok, 2 partial parse errors, 64 usage, 65 data, 66 IO.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from . import __version__
from .errors import CodeweftError, HttpError, IoError, SchemaError, SourceError, UnknownColumn

if TYPE_CHECKING:  # the layers are imported by the commands that run them, for a fast start
    from .corpus import ReadResult

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_IO = 66


def _exit_code(exc: Exception) -> int:
    """66 for I/O, 2 for an error in a source, 65 for any other data error."""
    if isinstance(exc, (IoError, HttpError, OSError)):
        return EXIT_IO
    return EXIT_PARSE if isinstance(exc, SourceError) else EXIT_DATA


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
    p.set_defaults(run=cmd_parse)
    _output_options(p)

    p = subs.add_parser("unnest", help="tidy function/argument rows")
    p.add_argument("sources", nargs="*")
    p.add_argument("--with-depth", action="store_true", help="add the call depth column")
    p.set_defaults(run=cmd_unnest)
    _output_options(p)

    p = subs.add_parser("classify", help="join tokens with lexicons")
    p.add_argument("sources", nargs="*")
    p.add_argument("--lexicon", default=None, help="crowdsource or leeklab")
    p.add_argument("--lexicon-path", default=None, help="directory with lexicon files")
    p.add_argument("--best", action="store_true",
                   help="keep only the top classification per function")
    p.add_argument("--drop-stopfuncs", action="store_true")
    p.set_defaults(run=cmd_classify)
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
    p.set_defaults(run=cmd_stats)
    _output_options(p)

    p = subs.add_parser("record", help="log a session from stdin")
    p.add_argument("--log", default=None, help="log file path")
    p.add_argument("--value", action="store_true",
                   help="request value capture (recorded in metadata only)")
    p.add_argument("--table", action="store_true", help="print the tidy log and exit")
    p.add_argument("--remove", action="store_true", help="delete the log and exit")
    p.set_defaults(run=cmd_record)
    _output_options(p)

    p = subs.add_parser("fetch", help="ingest a manifest of sources")
    p.add_argument("manifest")
    p.add_argument("--concurrency", type=_positive_int, default=4)
    p.set_defaults(run=cmd_fetch)
    _output_options(p)

    return parser


# --- output plumbing ----------------------------------------------------


def _write_rows(rows: Iterable[Sequence], columns: list[str], args) -> None:
    if args.output == "-":
        if isinstance(sys.stdout, io.TextIOWrapper):  # tables are UTF-8 in any locale
            sys.stdout.reconfigure(encoding="utf-8")
        _dump(rows, columns, args.format, sys.stdout)
        sys.stdout.flush()  # a closed pipe fails here, where main can report it
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            _dump(rows, columns, args.format, fh)


def _dump(rows: Iterable[Sequence], columns: list[str], fmt: str, fh) -> None:
    if fmt == "csv":
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
    else:
        for row in rows:
            fh.write(json.dumps(dict(zip(columns, row)), ensure_ascii=False))
            fh.write("\n")


def _stream(
    args, columns: list[str], rows_of, results: Optional[Iterable[ReadResult]] = None
) -> int:
    """Write each source's `rows_of(records)` as soon as it is read, in input
    order; print its errors; return the worst code: 66 for I/O, else 2."""
    code = EXIT_OK
    if results is None:
        from .corpus import read_rfiles
        results = (read_rfiles([source]) for source in args.sources)

    def rows():
        nonlocal code
        for result in results:
            for err in result.errors:
                print(f"codeweft: {err}", file=sys.stderr)
                code = max(code, _exit_code(err))
            yield from rows_of(result.records)

    _write_rows(rows(), columns, args)
    return code


def _expression_rows(json_ast: bool):
    from .deparse import deparse
    from .rast import to_json

    def rows(records):
        for rec in records:
            row = (rec.file, rec.line, deparse(rec.expr))
            yield row + (json.dumps(to_json(rec.expr), ensure_ascii=False),) if json_ast else row

    return rows


# --- subcommands --------------------------------------------------------


def cmd_parse(args) -> int:
    columns = ["file", "line", "text"] + (["ast"] if args.json_ast else [])
    return _stream(args, columns, _expression_rows(args.json_ast))


def cmd_unnest(args) -> int:
    from .deparse import deparse_arg
    from .unnest import unnest_corpus
    columns = ["file", "line", "func", "args"] + (["depth"] if args.with_depth else [])

    def rows(records):
        for t in unnest_corpus(records):
            row = (t.file, t.line, t.func, "; ".join(deparse_arg(a) for a in t.args))
            yield row + (t.depth,) if args.with_depth else row

    return _stream(args, columns, rows)


def cmd_classify(args) -> int:
    from .lexicon import classify, load_classifications, load_stopfuncs, remove_stopfuncs
    from .unnest import unnest_corpus
    lexdir = Path(args.lexicon_path) if args.lexicon_path else None
    stops = args.drop_stopfuncs and load_stopfuncs(lexdir / "stopfuncs.txt" if lexdir else None)
    entries = load_classifications(
        source=lexdir / "classifications.csv" if lexdir else None,
        which=args.lexicon,
        include_duplicates=not args.best,
    )
    # func, classification, then lexicon unless one was chosen, then score unless --best
    pick = itemgetter(0, 1, *([2] if args.lexicon is None else []), *([] if args.best else [3]))

    def rows(records):
        tokens = unnest_corpus(records)
        if stops:
            tokens = remove_stopfuncs(tokens, stops)
        for t, e in classify(tokens, entries):
            yield pick((t.func, e.classification, e.lexicon, e.score))

    return _stream(args, list(pick(("func", "classification", "lexicon", "score"))), rows)


def _read_table(path: str) -> tuple[Optional[list[str]], list[dict]]:
    """The CSV header (None for JSONL or an empty input) and the rows."""
    from .textfile import csv_rows, decode, read_local
    text = decode(path, sys.stdin.buffer.read()) if path == "-" else read_local(path)
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
            for key, value in row.items():
                if isinstance(value, (list, dict)):
                    raise SchemaError(f"{path}:{lineno}: column {key!r} holds a JSON list or object")
            rows.append(row)
        return None, rows
    csv.field_size_limit(2**31 - 1)  # a deparsed call or string literal can be any length
    rows = csv_rows(path, text)
    header = next(rows)
    return header, [dict(zip(header, row)) for row, _ in rows]


def _check_header(header: Optional[list[str]], wanted: list[str]) -> None:
    # a CSV header names the columns even when no row follows it
    missing = [c for c in wanted if header is not None and c not in header]
    if missing:
        raise UnknownColumn(f"unknown column(s): {', '.join(missing)}")


def cmd_stats(args) -> int:
    from .analyze import class_percentages, count_funcs, top_n_by_group
    header, rows = _read_table(args.input)
    if args.statistic == "counts":
        keys = [c.strip() for c in args.by.split(",") if c.strip()]
        _check_header(header, keys)
        out = count_funcs(rows, keys, sort=args.sort)
        columns = keys + ["n"]
    elif args.statistic == "percent":
        _check_header(header, [args.unit, args.class_col])
        out = class_percentages(rows, unit=args.unit, class_col=args.class_col)
        if args.format == "csv":  # match the published 2-decimal tables
            for row in out:
                row["average_percent"] = f"{row['average_percent']:.2f}"
        columns = [args.class_col, "average_percent"]
    else:
        if args.group is None:
            raise UnknownColumn("top requires --group")
        _check_header(header, [args.group, "n"])
        out = top_n_by_group(rows, group_col=args.group, n=args.n)
        columns = list(rows[0]) if rows else header or [args.group, "n"]
    if args.format == "csv":  # a JSONL value keeps its JSON spelling: true, false, null
        out = [{c: v if isinstance(v, str) else json.dumps(v) for c, v in row.items()} for row in out]
    _write_rows(([row.get(c, "") for c in columns] for row in out), columns, args)
    return EXIT_OK


def cmd_record(args) -> int:
    from .recorder import LOG_COLUMNS, log_table, record, remove_log
    if args.remove:
        remove_log(args.log)
        return EXIT_OK
    if args.table:
        _write_rows(map(dict.values, log_table(args.log)), list(LOG_COLUMNS), args)
        return EXIT_OK
    if isinstance(sys.stdin, io.TextIOWrapper):  # a stray byte must not end the session
        sys.stdin.reconfigure(encoding="utf-8", errors="replace")
    record(sys.stdin, log_path=args.log, capture_values=args.value)
    return EXIT_OK


def cmd_fetch(args) -> int:
    from .corpus import fetch_manifest
    result = fetch_manifest(args.manifest, concurrency=args.concurrency)
    return _stream(args, ["file", "line", "text"], _expression_rows(False), [result])


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    # OSError: an unwritable output, a closed pipe, a log path that cannot be one
    except (CodeweftError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            # the reader is gone: send what is still buffered nowhere, quietly
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"codeweft: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
