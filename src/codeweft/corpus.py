"""Ingest R source from files, raw HTTP(S) URLs and strings into CallRecords."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .errors import HttpError, IoError
from .parser import parse_program
from .rast import Expr

STRING_SOURCE = "<string>"

USER_AGENT = f"codeweft/{__version__}"


@dataclass(frozen=True, slots=True)
class CallRecord:
    """One top-level expression with provenance."""

    file: str
    expr: Expr
    line: int  # 1-based start line in the original source


@dataclass
class ReadResult:
    """Records plus the side channel of per-source errors."""

    records: list[CallRecord] = field(default_factory=list)
    errors: list[Exception] = field(default_factory=list)

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


def _decode(source: str, data: bytes) -> str:
    # a leading byte-order mark is dropped, as R's readLines() drops it
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise IoError(source, f"not valid UTF-8: {exc}") from exc


def _read_local(path: str) -> str:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise IoError(path, exc.strerror or str(exc)) from exc
    return _decode(path, data)


def parse_source_text(source_id: str, text: str) -> ReadResult:
    """Parse already-fetched text into records under the given source id."""
    result = ReadResult()
    program = parse_program(text)
    for expr, span in program.exprs:
        result.records.append(CallRecord(file=source_id, expr=expr, line=span.start_line))
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
            text = _read_local(source)
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
    for raw in _read_local(path).splitlines():
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


def examples_dir() -> Path:
    """Directory holding the bundled sample .R scripts."""
    return Path(__file__).parent / "data" / "examples"


def example_path(name: Optional[str] = None):
    """Path to a bundled sample script, or the list of available names."""
    base = examples_dir()
    if name is None:
        return sorted(p.name for p in base.glob("*.R"))
    path = base / name
    if not path.exists():
        raise IoError(name, "no such bundled example")
    return path
