"""Function-classification lexicons and stop-function lists.

The bundled lexicon ships in `data/classifications.csv` with the closed
nine-category scheme; it is a partial starter table, extensible by
pointing CODEWEFT_LEXICON_PATH at a directory with replacement
`classifications.csv` / `stopfuncs.txt` files of the same shape.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .errors import (
    IoError,
    SchemaError,
    ScoreOutOfRange,
    UnknownCategory,
    UnknownLexicon,
)
from .frozen import Frozen, nogc, setters
from .textfile import csv_rows, read_local
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
        return read_local(str(path))
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

    rows = csv_rows(str(path), _read_text("lexicon", path))
    if (header := next(rows)) != _HEADER:
        raise SchemaError(f"{path}: bad lexicon header {header!r}; expected {_HEADER!r}")
    entries: list[ClassificationEntry] = []
    seen = set()
    sums: dict[tuple[str, str], float] = {}
    for (func, classification, lexicon, score_text), line in rows:
        if not func:
            raise SchemaError(f"{path}:{line}: empty func")
        if classification not in CATEGORIES:
            raise UnknownCategory(f"{path}:{line}: unknown category {classification!r}")
        if lexicon not in LEXICON_NAMES:
            raise UnknownLexicon(f"{path}:{line}: unknown lexicon {lexicon!r}")
        try:
            score = float(score_text)
        except ValueError as exc:
            raise SchemaError(f"{path}:{line}: bad score {score_text!r}") from exc
        if not 0 < score <= 1:
            raise ScoreOutOfRange(f"{path}:{line}: score {score} outside (0, 1]")
        key = (func, classification, lexicon)
        if key in seen:
            raise SchemaError(f"{path}:{line}: duplicate lexicon row {key!r}")
        seen.add(key)
        sums[func, lexicon] = sums.get((func, lexicon), 0.0) + score
        entries.append(ClassificationEntry(func, classification, lexicon, score))
    for (func, lexicon), total in sums.items():
        if abs(total - 1.0) > SCORE_SUM_TOLERANCE:
            raise SchemaError(f"{path}: scores for ({func!r}, {lexicon}) sum to {total:.4f}, not 1")

    if which is not None:
        entries = [e for e in entries if e.lexicon == which]
    if not include_duplicates:
        entries = best_classifications(entries)
    return entries


def best_classifications(
    entries: Iterable[ClassificationEntry],
) -> list[ClassificationEntry]:
    """Highest-scoring entry per (func, lexicon); score ties break by name."""
    best: dict[tuple[str, str], ClassificationEntry] = {}
    for e in entries:
        cur = best.setdefault((e.func, e.lexicon), e)
        if (-e.score, e.classification) < (-cur.score, cur.classification):
            best[e.func, e.lexicon] = e
    return list(best.values())


@nogc
def classify(
    tokens: Sequence[FuncToken], entries: Sequence[ClassificationEntry]
) -> list[tuple[FuncToken, ClassificationEntry]]:
    """Inner join of tokens with lexicon entries on func.

    Tokens without an entry are dropped; a token matching k entries yields
    k rows. Token order is preserved; a token's matches are ordered by
    lexicon name, then descending score.
    """
    if not tokens:  # most sources keep no call after the stop functions go
        return []
    used = {t.func for t in tokens}
    by_func: dict[str, list[ClassificationEntry]] = {}
    for e in entries:
        if e.func in used:
            by_func.setdefault(e.func, []).append(e)
    for matches in by_func.values():
        matches.sort(key=lambda e: (e.lexicon, -e.score, e.classification))
    return [(token, entry) for token in tokens for entry in by_func.get(token.func, ())]


def load_stopfuncs(source: Optional[str | Path] = None) -> frozenset[str]:
    """One function name a line; a line starting with `#` is a comment, a later `#` (`%#%`) is kept."""
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
