"""Corpus statistics: grouped counts, per-unit class percentages, top-N."""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Any, Callable, Iterator, Mapping, Sequence

from .errors import EmptyInput, SchemaError, UnknownColumn

Row = Mapping[str, object]


def _looked_up(rows: Sequence[Row], columns: Sequence[str], lookups: Callable[[], Any]) -> Any:
    """`lookups()`, which reads `columns` from `rows`, or the first row without them named."""
    try:
        return lookups()
    except KeyError:
        for i, row in enumerate(rows, 1):
            missing = [c for c in columns if c not in row]
            if missing:
                raise UnknownColumn(f"row {i}: unknown column(s): {', '.join(missing)}") from None
        raise


def _groups(rows: Sequence[Row], column: str) -> Iterator[tuple]:
    """The group of each row's `column` value: the value with its type, so
    the JSON values `1`, `true` and `1.0`, equal in Python, are three groups."""
    get = itemgetter(column)
    return zip(map(get, rows), map(type, map(get, rows)))


def count_funcs(
    rows: Sequence[Row], keys: Sequence[str], sort: bool = False
) -> list[dict]:
    """One output row per distinct key tuple with its row count `n`.

    Rows group by `_groups`. With sort=True, rows are ordered by n descending,
    ties by key tuple ascending, each key compared as (type name, value);
    otherwise by first appearance.
    """
    if not keys or len(set(keys)) != len(keys):
        raise UnknownColumn("grouping keys must be non-empty and unique")
    counts = _looked_up(rows, keys, lambda: Counter(zip(*[_groups(rows, key) for key in keys])))
    items = list(counts.items())
    if sort:
        items.sort(key=lambda kv: (-kv[1], [(t.__name__, v) for v, t in kv[0]]))
    return [dict(zip(keys, [v for v, _ in key])) | {"n": n} for key, n in items]


def class_percentages(
    rows: Sequence[Row], unit: str, class_col: str = "classification"
) -> list[dict]:
    """Average, across units, of each class's share of the unit's rows.

    Per unit, each class's share is n / (unit row count); the average for
    a class is taken over the units in which it appears. Units and classes
    group by `_groups`. Output is percentage points, sorted descending.
    """
    if not rows:
        raise EmptyInput("no rows to summarise")
    pairs = _looked_up(rows, [unit, class_col], lambda: Counter(
        zip(_groups(rows, unit), _groups(rows, class_col))))
    per_unit: dict[tuple, dict[tuple, int]] = {}
    for (unit_key, cls), n in pairs.items():
        per_unit.setdefault(unit_key, {})[cls] = n
    shares: dict[tuple, list[float]] = {}
    for unit_counts in per_unit.values():
        total = sum(unit_counts.values())
        for cls, n in unit_counts.items():
            shares.setdefault(cls, []).append(n / total)
    out = [
        {class_col: cls, "average_percent": 100.0 * sum(vals) / len(vals)}
        for (cls, _), vals in shares.items()
    ]
    out.sort(key=lambda r: (-r["average_percent"], str(r[class_col])))
    return out


def top_n_by_group(
    count_table: Sequence[Row], group_col: str, n: int
) -> list[dict]:
    """Per group, the n rows with the highest `n` count.

    Rows group by `_groups`. Rows tying the nth-largest count are all
    kept, in input order, so the whole table is held until its last row.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    # every column is read before any n is checked, so a missing column comes first
    groups, values = _looked_up(count_table, [group_col, "n"], lambda: (
        list(_groups(count_table, group_col)), list(map(itemgetter("n"), count_table))))
    counts: list[int] = []
    by_group: dict[tuple, list[int]] = {}
    for i, (value, group) in enumerate(zip(values, groups), 1):
        try:
            count = int(value)  # type: ignore[arg-type]
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"row {i}: n is not an integer: {value!r}") from exc
        counts.append(count)
        by_group.setdefault(group, []).append(count)
    cutoffs = {
        group: sorted(group_counts, reverse=True)[min(n, len(group_counts)) - 1]
        for group, group_counts in by_group.items()
    }
    return [
        dict(row) for row, g, count in zip(count_table, groups, counts) if count >= cutoffs[g]
    ]
