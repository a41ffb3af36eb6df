"""Read local files and raw bytes as UTF-8 text, and CSV text as checked rows."""

from __future__ import annotations

import csv
import io
from typing import Iterator

from .errors import IoError, SchemaError


def decode(source: str, data: bytes) -> str:
    # a leading byte-order mark is dropped, as R's readLines() drops it
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise IoError(source, f"not valid UTF-8: {exc}") from exc


def read_local(path: str) -> str:
    try:
        with open(path, "rb", buffering=0) as file:  # unbuffered: one read of the whole file
            data = file.read()
    except OSError as exc:
        raise IoError(path, exc.strerror or str(exc)) from exc
    return decode(path, data)


def csv_rows(path: str, text: str) -> Iterator:
    """Lazily, the header of CSV `text` (None if empty), then each non-blank
    row as `(fields, line)` with the line it ends on. A row whose field count
    differs from the header's, or malformed CSV, is a `SchemaError` at `path:line`."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
        yield header
        for row in filter(None, reader):  # a blank line is an empty row
            if len(row) != len(header):
                raise SchemaError(
                    f"{path}:{reader.line_num}: expected {len(header)} fields, got {len(row)}"
                )
            yield row, reader.line_num
    except csv.Error as exc:
        raise SchemaError(f"{path}:{reader.line_num}: malformed CSV: {exc}") from exc
