import re

import pytest

from codeweft.corpus import read_rfiles
from codeweft.errors import (
    SchemaError,
    ScoreOutOfRange,
    UnknownCategory,
    UnknownLexicon,
)
from codeweft.lexicon import (
    CATEGORIES,
    best_classifications,
    classify,
    load_classifications,
    load_stopfuncs,
    remove_stopfuncs,
)
from codeweft.unnest import unnest_corpus


@pytest.fixture(scope="module")
def tokens(example_scripts):
    return unnest_corpus(read_rfiles(example_scripts).records)


# conftest fixtures are session-scoped; re-expose for module scope
@pytest.fixture(scope="module")
def example_scripts():
    from codeweft.corpus import example_path

    return [str(example_path("example_analysis.R")), str(example_path("example_plot.R"))]


def test_bundled_lexicon_loads():
    entries = load_classifications()
    assert entries
    assert {e.lexicon for e in entries} == {"crowdsource", "leeklab"}
    assert {e.classification for e in entries} <= CATEGORIES


def test_scores_normalize_per_func_and_lexicon():
    entries = load_classifications()
    sums = {}
    for e in entries:
        sums[(e.func, e.lexicon)] = sums.get((e.func, e.lexicon), 0.0) + e.score
    for total in sums.values():
        assert abs(total - 1.0) <= 0.005


def test_library_crowdsource_scores():
    entries = load_classifications(which="crowdsource")
    scores = sorted(
        (e.score for e in entries if e.func == "library"), reverse=True
    )
    assert scores[:3] == [0.687, 0.213, 0.0339]


def test_which_filters_lexicon():
    assert all(e.lexicon == "leeklab" for e in load_classifications(which="leeklab"))


def test_unknown_lexicon_rejected():
    with pytest.raises(UnknownLexicon):
        load_classifications(which="nope")


def test_best_classifications_argmax():
    entries = load_classifications(which="crowdsource")
    best = {e.func: e for e in best_classifications(entries)}
    assert best["library"].classification == "setup"
    assert best["ggplot"].classification == "visualization"
    # one row per (func, lexicon)
    assert len(best_classifications(entries)) == len(best)


def test_bad_lexicon_files(tmp_path):
    header = "func,classification,lexicon,score\n"

    def refused(name, text, error, where, message):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(error, match=f"^{re.escape(f'{path}{where}: {message}')}"):
            load_classifications(path)

    refused("h.csv", "a,b,c\nx,setup,crowdsource,1\n", SchemaError, "", "bad lexicon header")
    refused("cat.csv", header + "x,cooking,crowdsource,1\n", UnknownCategory, ":2", "unknown category")
    refused("lex.csv", header + "x,setup,wikipedia,1\n", UnknownLexicon, ":2", "unknown lexicon")
    refused("score.csv", header + "x,setup,crowdsource,1.5\n", ScoreOutOfRange, ":2", "score 1.5")
    refused(
        "dup.csv",
        header + "x,setup,crowdsource,0.5\nx,setup,crowdsource,0.5\n",
        SchemaError,
        ":3",
        "duplicate lexicon row ('x', 'setup', 'crowdsource')",
    )
    refused("norm.csv", header + "x,setup,crowdsource,0.4\n", SchemaError, "", "scores for ('x'")
    # a row is reported at the line it ends on, past a field that spans two lines
    refused(
        "multiline.csv",
        header + '"a\nb",setup,crowdsource,1\nx,setup,crowdsource,1\ny,cooking,crowdsource,1\n',
        UnknownCategory,
        ":5",
        "unknown category 'cooking'",
    )
    # the first faulty row wins, whatever its fault
    refused(
        "first.csv",
        header + "x,setup,crowdsource,1\nx,setup,crowdsource,1\ny,setup\n",
        SchemaError,
        ":3",
        "duplicate lexicon row",
    )


def test_classify_is_inner_join(tokens):
    entries = load_classifications()
    pairs = classify(tokens, entries)
    assert len(pairs) == 322
    entries_cs = load_classifications(which="crowdsource")
    assert len(classify(tokens, entries_cs)) == 271
    # unmatched tokens are dropped entirely
    matched = {t.func for t, _ in pairs}
    assert "!" not in matched


def test_classify_match_order(tokens):
    pairs = classify(tokens, load_classifications())
    first = [(e.lexicon, e.score) for _, e in pairs[:10]]
    assert first[:9] == [
        ("crowdsource", 0.687),
        ("crowdsource", 0.213),
        ("crowdsource", 0.0339),
        ("crowdsource", 0.0278),
        ("crowdsource", 0.0134),
        ("crowdsource", 0.0128),
        ("crowdsource", 0.00835),
        ("crowdsource", 0.00278),
        ("crowdsource", 0.00111),
    ]
    assert first[9] == ("leeklab", 0.994)


def test_best_join_counts(tokens):
    entries = load_classifications(which="crowdsource", include_duplicates=False)
    assert len(classify(tokens, entries)) == 33


def test_stopfunc_removal(tokens):
    stops = load_stopfuncs()
    kept = remove_stopfuncs(tokens, stops)
    assert all(t.func not in stops for t in kept)
    assert len(kept) + sum(t.func in stops for t in tokens) == len(tokens)


def test_final_table(tokens):
    stops = load_stopfuncs()
    kept = remove_stopfuncs(tokens, stops)
    entries = load_classifications(which="crowdsource", include_duplicates=False)
    pairs = classify(kept, entries)
    table = [(t.func, e.classification) for t, e in pairs]
    assert len(table) == 15
    assert table[0] == ("library", "setup")
    assert table[-1] == ("geom_point", "visualization")


def test_stopfuncs_file_errors(tmp_path):
    empty = tmp_path / "stop.txt"
    empty.write_text("# only a comment\n")
    with pytest.raises(SchemaError):
        load_stopfuncs(empty)


def test_byte_order_mark_is_dropped_from_lexicon_files(tmp_path):
    stops = tmp_path / "stop.txt"
    stops.write_bytes(b"\xef\xbb\xbfprint\n")
    assert "print" in load_stopfuncs(stops)
    table = tmp_path / "classifications.csv"
    table.write_bytes(b"\xef\xbb\xbffunc,classification,lexicon,score\nzap,setup,crowdsource,1\n")
    assert [e.func for e in load_classifications(table)] == ["zap"]


def test_lexicon_path_override(tmp_path, monkeypatch):
    (tmp_path / "classifications.csv").write_text(
        "func,classification,lexicon,score\nzap,setup,crowdsource,1\n"
    )
    monkeypatch.setenv("CODEWEFT_LEXICON_PATH", str(tmp_path))
    entries = load_classifications()
    assert [e.func for e in entries] == ["zap"]
