"""Corpus statistics: grouped counts, per-unit class percentages, top-N."""

from __future__ import annotations

from operator import itemgetter
from typing import Mapping, Sequence

from .errors import EmptyInput, SchemaError, UnknownColumn

Row = Mapping[str, object]


def _check_columns(rows: Sequence[Row], columns: Sequence[str]) -> None:
    wanted = set(columns)
    for i, row in enumerate(rows, 1):
        if not row.keys() >= wanted:
            missing = [c for c in columns if c not in row]
            raise UnknownColumn(f"row {i}: unknown column(s): {', '.join(missing)}")


def count_funcs(
    rows: Sequence[Row], keys: Sequence[str], sort: bool = False
) -> list[dict]:
    """One output row per distinct key tuple with its row count `n`.

    Keys group by (type, value), so JSON `1`, `true` and `1.0` differ. With
    sort=True, rows are ordered by n descending, ties by key tuple ascending,
    each key compared as (type name, value); otherwise by first appearance.
    """
    if not keys or len(set(keys)) != len(keys):
        raise UnknownColumn("grouping keys must be non-empty and unique")
    _check_columns(rows, keys)
    get = itemgetter(*keys) if len(keys) > 1 else lambda row: (row[keys[0]],)
    counts: dict[tuple, int] = {}
    for row in rows:
        values = get(row)
        key = (values, tuple(map(type, values)))
        counts[key] = counts.get(key, 0) + 1
    items = [(values, n) for (values, _), n in counts.items()]
    if sort:
        items.sort(key=lambda kv: (-kv[1], [(type(v).__name__, v) for v in kv[0]]))
    return [dict(zip(keys, key)) | {"n": n} for key, n in items]


def class_percentages(
    rows: Sequence[Row], unit: str, class_col: str = "classification"
) -> list[dict]:
    """Average, across units, of each class's share of the unit's rows.

    Per unit, each class's share is n / (unit row count); the average for
    a class is taken over the units in which it appears. Output is
    percentage points, sorted descending.
    """
    if not rows:
        raise EmptyInput("no rows to summarise")
    _check_columns(rows, [unit, class_col])
    per_unit: dict[object, dict[object, int]] = {}
    for row in rows:
        unit_counts = per_unit.setdefault(row[unit], {})
        cls = row[class_col]
        unit_counts[cls] = unit_counts.get(cls, 0) + 1
    shares: dict[object, list[float]] = {}
    for unit_counts in per_unit.values():
        total = sum(unit_counts.values())
        for cls, n in unit_counts.items():
            shares.setdefault(cls, []).append(n / total)
    out = [
        {class_col: cls, "average_percent": 100.0 * sum(vals) / len(vals)}
        for cls, vals in shares.items()
    ]
    out.sort(key=lambda r: (-r["average_percent"], str(r[class_col])))
    return out


def top_n_by_group(
    count_table: Sequence[Row], group_col: str, n: int
) -> list[dict]:
    """Per group, the n rows with the highest `n` count.

    Rows tying the nth-largest count are all retained. Input order is
    preserved within the output.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_columns(count_table, [group_col, "n"])
    counts: list[int] = []
    by_group: dict[object, list[int]] = {}
    for i, row in enumerate(count_table, 1):
        try:
            count = int(row["n"])  # type: ignore[arg-type]
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"row {i}: n is not an integer: {row['n']!r}") from exc
        counts.append(count)
        by_group.setdefault(row[group_col], []).append(count)
    cutoffs = {
        group: sorted(group_counts, reverse=True)[min(n, len(group_counts)) - 1]
        for group, group_counts in by_group.items()
    }
    return [
        dict(row) for row, count in zip(count_table, counts) if count >= cutoffs[row[group_col]]
    ]
