"""Append-only, timestamped logging of a line-oriented session.

Lines accumulate until they form a syntactically complete expression
(the REPL completeness rule), then one event is appended to the log.
The log is newline-delimited JSON, one event per line, so a crash mid
session leaves every flushed event readable.
"""

from __future__ import annotations

import json
import os
import warnings
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Optional

from . import __version__
from .deparse import deparse
from .errors import MissingLog, SchemaError
from .frozen import Frozen, setters
from .parser import ProgramResult, parse_program, resume_program
from .rast import SrcSpan

ENV_LOG_PATH = "CODEWEFT_LOG_PATH"

KIND_START = "boundary_start"
KIND_STOP = "boundary_stop"
KIND_EXPRESSION = "expression"

# columns an IDE-integrated evaluator would fill; kept empty for schema
# compatibility
EMPTY_COLUMNS = ("value", "path", "contents", "selection")
LOG_COLUMNS = ("expr", *EMPTY_COLUMNS, "dt")  # of a `log_table` row, in order

Clock = Callable[[], datetime]


def _utc_now() -> datetime:
    return datetime.now(timezone.utc)


def _log_path(log_path: Optional[str | Path]) -> Path:
    """`log_path` if given, else $CODEWEFT_LOG_PATH, else the user's state directory."""
    if log_path is None:
        state_home = os.environ.get("XDG_STATE_HOME", os.path.expanduser("~/.local/state"))
        log_path = os.environ.get(ENV_LOG_PATH) or Path(state_home) / "codeweft" / "session.jsonl"
    return Path(log_path)


class SessionEvent(Frozen):
    """One logged event: a session boundary or an expression."""

    __slots__ = _compared = ("kind", "dt", "expr_text", "meta")
    __deepcopy__ = None  # `meta` is a dict: deep-copy it through `__reduce__`

    def __init__(self, kind: str, dt: datetime, expr_text: str = "",
                 meta: Optional[dict] = None):
        _kind(self, kind)  # boundary_start | boundary_stop | expression
        _dt(self, dt)  # UTC, millisecond precision
        _expr_text(self, expr_text)  # source text; kept raw when unparseable
        _meta(self, {} if meta is None else meta)

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "dt": self.dt.isoformat(timespec="milliseconds"),
                "expr_text": self.expr_text,
                "meta": self.meta,
            },
            ensure_ascii=False,
        )

    @staticmethod
    def from_json(line: str) -> "SessionEvent":
        data = json.loads(line)
        event = SessionEvent(
            kind=data["kind"],
            dt=datetime.fromisoformat(data["dt"]),
            expr_text=data.get("expr_text", ""),
            meta=data.get("meta", {}),
        )
        if not isinstance(event.expr_text, str):
            raise TypeError(f"expr_text is not a string: {event.expr_text!r}")
        if not isinstance(event.meta, dict):
            raise TypeError(f"meta is not an object: {event.meta!r}")
        return event


_kind, _dt, _expr_text, _meta = setters(SessionEvent)


def _boundary_meta(capture_values: bool) -> dict:
    import platform
    return {
        "version": __version__,
        "platform": platform.platform(),
        "value_flag": capture_values,
    }


def record(
    lines: Iterable[str],
    clock: Optional[Clock] = None,
    log_path: Optional[str | Path] = None,
    capture_values: bool = False,
) -> list[SessionEvent]:
    """Log one session from a stream of input lines.

    Events are appended to the log file as they happen and also returned.
    The `capture_values` flag is recorded in the boundary metadata; value
    capture itself needs an evaluator and stays empty.
    """
    clock = clock or _utc_now
    path = _log_path(log_path)
    path.parent.mkdir(parents=True, exist_ok=True)

    events: list[SessionEvent] = []
    with open(path, "a", encoding="utf-8") as fh:

        def emit(event: SessionEvent) -> None:
            fh.write(event.to_json() + "\n")
            fh.flush()
            events.append(event)

        def stamp() -> datetime:
            dt = clock()
            dt = dt.replace(tzinfo=timezone.utc) if dt.tzinfo is None else dt.astimezone(timezone.utc)
            return dt.replace(microsecond=dt.microsecond // 1000 * 1000)

        emit(SessionEvent(KIND_START, stamp(), meta=_boundary_meta(capture_values)))

        pending: list[str] = []
        program = ProgramResult()
        for line in lines:
            line = line.rstrip("\n")
            if not pending and not line.strip():
                continue
            pending.append(line)
            program = resume_program(program, line) if program.incomplete else parse_program(line)
            if program.incomplete:
                continue
            chunk = "\n".join(pending)
            if program.errors:
                # hard syntax error: no further lines can repair it
                emit(SessionEvent(KIND_EXPRESSION, stamp(), chunk, {"parsed": False}))
            else:
                for text in _expression_texts(chunk.split("\n"), [e.span for e in program.trees]):
                    emit(SessionEvent(KIND_EXPRESSION, stamp(), text, {"parsed": True}))
            pending.clear()

        if pending:
            # stream ended mid-expression; keep the raw text, never drop it
            emit(SessionEvent(KIND_EXPRESSION, stamp(), "\n".join(pending), {"parsed": False}))

        emit(SessionEvent(KIND_STOP, stamp(), meta=_boundary_meta(capture_values)))
    return events


def _expression_texts(lines: list[str], spans: list[SrcSpan]) -> list[str]:
    """Each expression's own source text. An expression alone on its lines
    keeps them whole, trailing comment included; where two share a line,
    the text is cut at the column where the next one starts."""
    texts = []
    for prev, span, nxt in zip([None, *spans], spans, [*spans[1:], None]):
        part = lines[span.start_line - 1 : span.end_line]
        if nxt is not None and nxt.start_line == span.end_line:
            part[-1] = part[-1][: nxt.start_col - 1]
        if prev is not None and prev.end_line == span.start_line:
            part[0] = part[0][span.start_col - 1 :]
        texts.append("\n".join(part).strip().strip(";").strip())
    return texts


def read_log(log_path: Optional[str | Path] = None) -> list[SessionEvent]:
    path = _log_path(log_path)
    if not path.exists():
        raise MissingLog(str(path), "no session log")
    events = []
    # bytes: json.loads decodes each line, so bad UTF-8 fails that line only
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                events.append(SessionEvent.from_json(line))
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaError(f"{path}:{lineno}: bad session event: {exc!r}") from exc
    return events


def log_table(log_path: Optional[str | Path] = None) -> list[dict]:
    """Tidy rows for the accumulated sessions in the log.

    Columns, as in `LOG_COLUMNS`: expr (deparsed when parseable), value,
    path, contents, selection (all empty; they need an embedded
    evaluator/IDE) and dt.
    """
    rows = []
    for event in read_log(log_path):
        if event.kind in (KIND_START, KIND_STOP):
            expr = "<session info>"
        elif event.meta.get("parsed"):
            program = parse_program(event.expr_text)
            expr = "; ".join(deparse(e) for e in program.trees) or event.expr_text
        else:
            expr = event.expr_text
        dt = event.dt.isoformat(timespec="milliseconds")
        rows.append(dict.fromkeys(LOG_COLUMNS, "") | {"expr": expr, "dt": dt})
    return rows


def remove_log(log_path: Optional[str | Path] = None) -> bool:
    """Delete the persisted log; warns (without failing) when absent."""
    path = _log_path(log_path)
    if not path.exists():
        warnings.warn(f"no session log to remove at {path}")
        return False
    path.unlink()
    return True
