import pytest

from codeweft.analyze import class_percentages, count_funcs, top_n_by_group
from codeweft.errors import EmptyInput, UnknownColumn


def test_count_single_key():
    rows = [{"func": f} for f in ["a", "b", "a", "c", "a", "b"]]
    out = count_funcs(rows, ["func"], sort=True)
    assert out == [
        {"func": "a", "n": 3},
        {"func": "b", "n": 2},
        {"func": "c", "n": 1},
    ]


def test_count_unsorted_keeps_first_appearance():
    rows = [{"func": f} for f in ["b", "a", "b"]]
    assert count_funcs(rows, ["func"]) == [
        {"func": "b", "n": 2},
        {"func": "a", "n": 1},
    ]


def test_count_sort_ties_break_by_key():
    rows = [{"func": f} for f in ["z", "a"]]
    out = count_funcs(rows, ["func"], sort=True)
    assert [r["func"] for r in out] == ["a", "z"]


def test_count_multiple_keys():
    rows = [
        {"id": 1, "func": "a"},
        {"id": 1, "func": "a"},
        {"id": 2, "func": "a"},
    ]
    out = count_funcs(rows, ["id", "func"], sort=True)
    assert out[0] == {"id": 1, "func": "a", "n": 2}


def test_count_rejects_bad_keys():
    with pytest.raises(UnknownColumn):
        count_funcs([{"func": "a"}], ["nope"])
    with pytest.raises(UnknownColumn):
        count_funcs([{"func": "a"}], [])
    with pytest.raises(UnknownColumn):
        count_funcs([{"func": "a"}], ["func", "func"])


def test_percent_average_over_containing_units():
    rows = (
        [{"id": "u1", "classification": "setup"}] * 1
        + [{"id": "u1", "classification": "modeling"}] * 3
        + [{"id": "u2", "classification": "setup"}] * 1
    )
    out = class_percentages(rows, unit="id")
    table = {r["classification"]: r["average_percent"] for r in out}
    # setup: (1/4 + 1/1)/2; modeling: 3/4 in its only unit
    assert table["setup"] == pytest.approx(62.5)
    assert table["modeling"] == pytest.approx(75.0)
    assert [r["classification"] for r in out] == ["modeling", "setup"]


def test_percent_rejects_empty_and_bad_columns():
    with pytest.raises(EmptyInput):
        class_percentages([], unit="id")
    with pytest.raises(UnknownColumn):
        class_percentages([{"id": 1, "classification": "x"}], unit="file")


def test_percent_fixture_reproduces_published_averages(percent_fixture):
    rows = []
    for unit in percent_fixture["units"]:
        for cls, n in unit["counts"].items():
            rows.extend(
                {"id": unit["unit"], "classification": cls} for _ in range(n)
            )
    out = class_percentages(rows, unit="id")
    assert [r["classification"] for r in out] == [
        e["classification"] for e in percent_fixture["expected"]
    ]
    for got, want in zip(out, percent_fixture["expected"]):
        assert got["average_percent"] == pytest.approx(
            want["average_percent"], abs=0.01
        )


def test_top_n_keeps_boundary_ties():
    table = [
        {"grp": "g", "func": "a", "n": 5},
        {"grp": "g", "func": "b", "n": 3},
        {"grp": "g", "func": "c", "n": 3},
        {"grp": "g", "func": "d", "n": 1},
    ]
    out = top_n_by_group(table, group_col="grp", n=2)
    assert [r["func"] for r in out] == ["a", "b", "c"]


def test_top_n_per_group():
    table = [
        {"grp": "x", "func": "a", "n": 2},
        {"grp": "x", "func": "b", "n": 1},
        {"grp": "y", "func": "c", "n": 9},
    ]
    out = top_n_by_group(table, group_col="grp", n=1)
    assert [r["func"] for r in out] == ["a", "c"]


def test_top_n_smaller_groups_kept_whole():
    table = [{"grp": "x", "func": "a", "n": 1}]
    assert top_n_by_group(table, group_col="grp", n=5) == table


def test_top_n_validates():
    with pytest.raises(ValueError):
        top_n_by_group([], group_col="g", n=0)
    with pytest.raises(UnknownColumn):
        top_n_by_group([{"grp": "x"}], group_col="grp", n=1)


@pytest.mark.parametrize("at", [0, 2, 4], ids=["first", "middle", "last"])
@pytest.mark.parametrize(
    "summarise, columns",
    [
        (lambda rows: count_funcs(rows, ["id", "func"]), "func"),
        (lambda rows: class_percentages(rows, unit="id"), "classification"),
        (lambda rows: top_n_by_group(rows, group_col="id", n=1), "n"),
    ],
    ids=["counts", "percent", "top"],
)
def test_the_first_row_without_a_column_is_named(summarise, columns, at):
    rows = [{"id": i, "func": "f", "classification": "setup", "n": i} for i in range(5)]
    rows[at] = {"id": at}
    later = {"func": "f", "classification": "setup", "n": 1}  # a second faulty row, after it
    rows[at + 1 :] = [later] * len(rows[at + 1 :])
    with pytest.raises(UnknownColumn) as info:
        summarise(rows)
    assert str(info.value) == f"row {at + 1}: unknown column(s): {columns}"


def test_top_n_names_a_missing_column_before_an_earlier_bad_count():
    table = [{"grp": "x", "n": 1}, {"grp": "x", "n": "many"}, {"grp": "y"}]
    with pytest.raises(UnknownColumn, match="row 3: unknown column"):
        top_n_by_group(table, group_col="grp", n=1)
