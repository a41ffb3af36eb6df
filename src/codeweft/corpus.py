"""Ingest R source from files, raw HTTP(S) URLs and strings into CallRecords."""

from __future__ import annotations

import time
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .errors import HttpError, IoError
from .frozen import Frozen, setters
from .parser import parse_program
from .rast import Expr, start_line
from .textfile import read_local

STRING_SOURCE = "<string>"

USER_AGENT = f"codeweft/{__version__}"


class CallRecord(Frozen):
    """One top-level expression with provenance."""

    __slots__ = _compared = ("file", "expr", "line")

    def __init__(self, file: str, expr: Expr, line: int):
        _file(self, file)
        _expr(self, expr)
        _line(self, line)  # 1-based start line in the original source


_file, _expr, _line = setters(CallRecord)


class ReadResult:
    """Records plus the side channel of per-source errors."""

    def __init__(self, records: list[CallRecord] | None = None,
                 errors: list[Exception] | None = None):
        self.records = [] if records is None else records
        self.errors = [] if errors is None else errors

    def extend(self, other: "ReadResult") -> None:
        self.records.extend(other.records)
        self.errors.extend(other.errors)


def _fetch_url(url: str, retries: int = 0, backoff: float = 0.5) -> str:
    # imported here: only a URL fetch pays for the HTTP stack
    import http.client
    import urllib.error
    import urllib.request

    for attempt in range(retries + 1):
        if attempt:
            time.sleep(backoff * 2 ** (attempt - 1))
        cause = None
        try:
            request = urllib.request.Request(url, headers={"User-Agent": USER_AGENT})
            with urllib.request.urlopen(request, timeout=30) as resp:
                if resp.status == 200:
                    return resp.read().decode("utf-8-sig", errors="replace")
                status = resp.status
        except urllib.error.HTTPError as exc:
            exc.close()
            status = exc.code
        # ValueError: a malformed URL, such as a bad IPv6 host or an overlong label
        except (OSError, ValueError, http.client.HTTPException) as exc:
            cause = exc
    if cause is not None:
        raise HttpError(url, None, str(cause)) from cause
    raise HttpError(url, status)


def parse_source_text(source_id: str, text: str) -> ReadResult:
    """Parse already-fetched text into records under the given source id."""
    result = ReadResult()
    program = parse_program(text)
    for expr in program.trees:
        result.records.append(CallRecord(file=source_id, expr=expr, line=start_line(expr)))
    for err in program.errors:
        err.source = source_id
        result.errors.append(err)
    return result


def _load(source: str, retries: int) -> ReadResult:
    """Fetch a URL or read a local file, then parse it; a failed read is its only error."""
    try:
        if source.startswith(("http://", "https://")):
            text = _fetch_url(source, retries)
        else:
            text = read_local(source)
    except (IoError, HttpError) as exc:
        return ReadResult(errors=[exc])
    return parse_source_text(source, text)


def read_rfiles(sources: Sequence[str], retries: int = 0) -> ReadResult:
    """Read multiple .R files or links to .R files, in the given order.

    An error in one source never affects the records of another.
    """
    result = ReadResult()
    for source in sources:
        result.extend(_load(source, retries))
    return result


def recital(text: str) -> ReadResult:
    """Records for each top-level expression of a code string."""
    return parse_source_text(STRING_SOURCE, text)


def read_manifest(path: str) -> list[str]:
    """Newline-delimited sources; `#` starts a comment, blanks ignored."""
    sources = []
    for raw in read_local(path).splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            sources.append(line)
    return sources


def fetch_manifest(
    manifest: str, concurrency: int = 4, retries: int = 2
) -> ReadResult:
    """read_rfiles over a manifest's sources, fetching URLs concurrently.

    Output ordering follows the manifest regardless of download timing;
    each URL is retried (exponential backoff) before reporting HttpError.
    """
    # imported here: only a manifest fetch pays for the thread pool
    from concurrent.futures import ThreadPoolExecutor

    if concurrency < 1:
        raise ValueError("concurrency must be positive")
    sources = read_manifest(manifest)
    result = ReadResult()
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        for partial in pool.map(_load, sources, [retries] * len(sources)):
            result.extend(partial)
    return result


def example_path(name: Optional[str] = None):
    """Path to a bundled sample script, or the list of available names."""
    base = Path(__file__).parent / "data" / "examples"
    if name is None:
        return sorted(p.name for p in base.glob("*.R"))
    path = base / name
    if not path.exists():
        raise IoError(name, "no such bundled example")
    return path
