"""Read local files and raw bytes as UTF-8 text; a failed read is an `IoError`."""

from __future__ import annotations

from pathlib import Path

from .errors import IoError


def decode(source: str, data: bytes) -> str:
    # a leading byte-order mark is dropped, as R's readLines() drops it
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise IoError(source, f"not valid UTF-8: {exc}") from exc


def read_local(path: str) -> str:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise IoError(path, exc.strerror or str(exc)) from exc
    return decode(path, data)
