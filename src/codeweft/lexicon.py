"""Function-classification lexicons and stop-function lists.

The bundled lexicon ships in `data/classifications.csv` with the closed
nine-category scheme; it is a partial starter table, extensible by
pointing CODEWEFT_LEXICON_PATH at a directory with replacement
`classifications.csv` / `stopfuncs.txt` files of the same shape.
"""

from __future__ import annotations

import csv
import io
import os
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .corpus import _read_local
from .errors import (
    IoError,
    SchemaError,
    ScoreOutOfRange,
    UnknownCategory,
    UnknownLexicon,
)
from .frozen import Frozen, setters
from .unnest import FuncToken

CATEGORIES = frozenset(
    [
        "setup",
        "exploratory",
        "data cleaning",
        "modeling",
        "evaluation",
        "visualization",
        "communication",
        "import",
        "export",
    ]
)

LEXICON_NAMES = frozenset(["crowdsource", "leeklab"])

_HEADER = ["func", "classification", "lexicon", "score"]

# published tables are rounded, so group sums may be slightly off 1
SCORE_SUM_TOLERANCE = 0.005

ENV_LEXICON_PATH = "CODEWEFT_LEXICON_PATH"


class ClassificationEntry(Frozen):
    """One lexicon row: a function's class and its score in one lexicon."""

    __slots__ = _compared = ("func", "classification", "lexicon", "score")

    def __init__(self, func: str, classification: str, lexicon: str, score: float):
        _func(self, func)
        _classification(self, classification)
        _lexicon(self, lexicon)
        _score(self, score)


_func, _classification, _lexicon, _score = setters(ClassificationEntry)


def _data_path(name: str) -> Path:
    """A bundled lexicon file, or its replacement under CODEWEFT_LEXICON_PATH."""
    return Path(os.environ.get(ENV_LEXICON_PATH) or Path(__file__).parent / "data") / name


def _read_text(kind: str, path: Path) -> str:
    try:
        return _read_local(str(path))
    except IoError as exc:
        raise SchemaError(f"cannot read {kind} file {exc}") from exc


def load_classifications(
    source: Optional[str | Path] = None,
    which: Optional[str] = None,
    include_duplicates: bool = True,
) -> list[ClassificationEntry]:
    """Load and validate a lexicon file.

    With `which`, only that lexicon's entries are returned. With
    include_duplicates=False, each (func, lexicon) keeps only its
    highest-scoring classification (ties broken by category name);
    downstream tabular output then omits the score column.
    """
    path = Path(source) if source is not None else _data_path("classifications.csv")
    if which is not None and which not in LEXICON_NAMES:
        raise UnknownLexicon(f"unknown lexicon {which!r}; expected one of {sorted(LEXICON_NAMES)}")

    entries: list[ClassificationEntry] = []
    reader = csv.reader(io.StringIO(_read_text("lexicon", path)))
    try:
        header = next(reader, None)
        rows = list(reader)
    except csv.Error as exc:
        raise SchemaError(f"{path}:{reader.line_num}: malformed CSV: {exc}") from exc
    if header != _HEADER:
        raise SchemaError(f"bad lexicon header {header!r}; expected {_HEADER!r}")
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise SchemaError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
        func, classification, lexicon, score_text = row
        if not func:
            raise SchemaError(f"{path}:{lineno}: empty func")
        if classification not in CATEGORIES:
            raise UnknownCategory(f"{path}:{lineno}: unknown category {classification!r}")
        if lexicon not in LEXICON_NAMES:
            raise UnknownLexicon(f"{path}:{lineno}: unknown lexicon {lexicon!r}")
        try:
            score = float(score_text)
        except ValueError as exc:
            raise SchemaError(f"{path}:{lineno}: bad score {score_text!r}") from exc
        if not 0 < score <= 1:
            raise ScoreOutOfRange(f"{path}:{lineno}: score {score} outside (0, 1]")
        entries.append(ClassificationEntry(func, classification, lexicon, score))

    _check_unique(entries)
    _check_normalization(entries)

    if which is not None:
        entries = [e for e in entries if e.lexicon == which]
    if not include_duplicates:
        entries = best_classifications(entries)
    return entries


def _check_unique(entries: Sequence[ClassificationEntry]) -> None:
    seen = set()
    for e in entries:
        key = (e.func, e.classification, e.lexicon)
        if key in seen:
            raise SchemaError(f"duplicate lexicon row {key!r}")
        seen.add(key)


def _check_normalization(entries: Sequence[ClassificationEntry]) -> None:
    sums: dict[tuple[str, str], float] = {}
    for e in entries:
        key = (e.func, e.lexicon)
        sums[key] = sums.get(key, 0.0) + e.score
    for (func, lexicon), total in sums.items():
        if abs(total - 1.0) > SCORE_SUM_TOLERANCE:
            raise SchemaError(
                f"scores for ({func!r}, {lexicon}) sum to {total:.4f}, not 1"
            )


def best_classifications(
    entries: Iterable[ClassificationEntry],
) -> list[ClassificationEntry]:
    """Highest-scoring entry per (func, lexicon); score ties break by name."""
    best: dict[tuple[str, str], ClassificationEntry] = {}
    for e in entries:
        key = (e.func, e.lexicon)
        cur = best.get(key)
        if (
            cur is None
            or e.score > cur.score
            or (e.score == cur.score and e.classification < cur.classification)
        ):
            best[key] = e
    return list(best.values())


def classify(
    tokens: Sequence[FuncToken], entries: Sequence[ClassificationEntry]
) -> list[tuple[FuncToken, ClassificationEntry]]:
    """Inner join of tokens with lexicon entries on func.

    Tokens without an entry are dropped; a token matching k entries yields
    k rows. Token order is preserved; a token's matches are ordered by
    lexicon name, then descending score.
    """
    used = {t.func for t in tokens}
    by_func: dict[str, list[ClassificationEntry]] = {}
    for e in entries:
        if e.func in used:
            by_func.setdefault(e.func, []).append(e)
    for matches in by_func.values():
        matches.sort(key=lambda e: (e.lexicon, -e.score, e.classification))
    out: list[tuple[FuncToken, ClassificationEntry]] = []
    for token in tokens:
        for entry in by_func.get(token.func, ()):
            out.append((token, entry))
    return out


def load_stopfuncs(source: Optional[str | Path] = None) -> frozenset[str]:
    """Newline-delimited function names; `#` starts a comment."""
    path = Path(source) if source is not None else _data_path("stopfuncs.txt")
    funcs = set()
    for raw in _read_text("stopfuncs", path).splitlines():
        line = raw.strip()
        if line.startswith("#") or not line:
            continue
        funcs.add(line)
    if not funcs:
        raise SchemaError(f"stopfuncs file {path} is empty")
    return frozenset(funcs)


def remove_stopfuncs(tokens: Sequence[FuncToken], stops: frozenset[str]) -> list[FuncToken]:
    """Anti-join: tokens whose func is not a stop function, order kept."""
    return [t for t in tokens if t.func not in stops]
