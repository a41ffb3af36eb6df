import math

import pytest

from codeweft.errors import (
    InvalidCharacter,
    UnterminatedBacktick,
    UnterminatedString,
)
from codeweft.lexer import scan, tokenize


def kinds(text, keep_newlines=False):
    return tokenize(text, keep_newlines=keep_newlines).kinds


def texts(text):
    return tokenize(text).texts


def test_simple_expression():
    assert texts("x + 1") == ["x", "+", "1"]
    assert kinds("x + 1") == ["name", "op", "num"]


def test_numbers():
    toks = tokenize("1 2.5 1e3 2.5e-2 0x1F 3L .5")
    values = [v for k, v in zip(toks.kinds, toks.values) if k == "num"]
    assert values == [
        (1.0, False),
        (2.5, False),
        (1000.0, False),
        (0.025, False),
        (31.0, False),
        (3.0, True),
        (0.5, False),
    ]


def test_hex_number_past_the_double_range_is_inf():
    # R reads a hex literal into a double, which overflows to Inf
    assert tokenize("0x" + "F" * 300 + "L").values == [(math.inf, True)]


def test_string_escapes():
    toks = tokenize(r'"a\"b\n\t\x41é"')
    assert toks.kinds == ["string"]
    assert toks.values == ['a"b\n\tAé']
    # octal escapes take one to three digits, as documented in R's ?Quotes
    assert tokenize(r'"\101\1012\7\12"').values == ["AA2\a\n"]


def test_single_quoted_string():
    assert tokenize("'hi'").values == ["hi"]


def test_string_raw_text_is_kept():
    assert tokenize('"a\\nb"').texts == ['"a\\nb"']


def test_backtick_name():
    toks = tokenize("`my var`")
    assert toks.kinds == ["name"]
    assert toks.texts == ["my var"]
    assert toks.quoted(0)


def test_special_operator_is_one_token():
    assert texts("a %in% b")[1] == "%in%"
    assert texts("a %>% b")[1] == "%>%"
    assert texts("a %custom op% b")[1] == "%custom op%"


def test_longest_match_operators():
    assert texts("a <<- b")[1] == "<<-"
    assert texts("a <- b")[1] == "<-"
    assert texts("a <= b")[1] == "<="
    assert texts("a ->> b")[1] == "->>"
    assert texts("x:::y")[1] == ":::"
    assert texts("x::y")[1] == "::"


def test_double_bracket_token():
    assert texts("x[[1]]") == ["x", "[[", "1", "]", "]"]


def test_comments_dropped():
    assert texts("x # comment\n+ y") == ["x", "+", "y"]


def test_newlines_kept_only_on_request():
    assert "newline" not in kinds("x\ny")
    assert kinds("x\ny", keep_newlines=True) == ["name", "newline", "name"]


def test_newlines_swallowed_inside_parens():
    assert kinds("f(\nx\n)", keep_newlines=True) == ["name", "op", "name", "op"]
    assert kinds("x[\n1\n]", keep_newlines=True) == ["name", "op", "num", "op"]


def test_newlines_kept_inside_braces():
    assert kinds("{\nx\n}", keep_newlines=True) == [
        "op", "newline", "name", "newline", "op",
    ]


@pytest.mark.parametrize(
    "text, values",
    [("x\ny\n", [False, False]), ("{\nx\n}", [True, True]), ("f({\nx\n})\ny", [True, True, False])],
    ids=["top-level", "block", "block-inside-call"],
)
def test_newline_value_says_whether_a_block_is_open(text, values):
    tokens = tokenize(text, keep_newlines=True)
    assert [v for kind, v in zip(tokens.kinds, tokens.values) if kind == "newline"] == values


def test_a_resumed_scan_shares_texts_with_the_first():
    first, more = "total <- mean(values)\n", "total <- sum(`values`)\n"
    tokens = tokenize(first, keep_newlines=True)
    scan(tokens, more, keep_newlines=True)
    assert tokens.texts[0] == tokens.texts[7] == "total"
    assert tokens.texts[0] is tokens.texts[7]
    assert tokens.texts[4] is tokens.texts[11]  # a backtick name shares with a plain one


@pytest.mark.parametrize(
    "pieces",
    [["x <- 1", "\ny <- 2"], ["f(a,", "\n  b) # note", "\n{", "\n  'a\nb'", "\n}"], ["ab ", "c  d"]],
    ids=["kept-newline", "block-and-string", "within-a-line"],
)
def test_a_text_scanned_in_pieces_gives_the_tokens_of_one_scan(pieces):
    whole, tokens = tokenize("".join(pieces), keep_newlines=True), tokenize(pieces[0], keep_newlines=True)
    for piece in pieces[1:]:
        scan(tokens, piece, keep_newlines=True)
    assert [tokens.span(i, i) for i in range(len(tokens))] == [whole.span(i, i) for i in range(len(whole))]
    assert (tokens.kinds, tokens.texts, tokens.line) == (whole.kinds, whole.texts, whole.line)


def test_keywords():
    assert kinds("if else for while repeat function break next in") == ["keyword"] * 9
    # keyword-prefixed names stay names
    assert kinds("iffy formula") == ["name", "name"]


def test_dots_in_names():
    assert texts("read.csv is.na ..1")[:3] == ["read.csv", "is.na", "..1"]


def test_semicolon():
    assert kinds("x; y") == ["name", "semi", "name"]


def test_spans_are_one_based():
    toks = tokenize("x + y")
    assert (toks.span(0, 0).start_line, toks.span(0, 0).start_col) == (1, 1)
    assert (toks.span(1, 1).start_line, toks.span(1, 1).start_col) == (1, 3)


def test_unterminated_string():
    with pytest.raises(UnterminatedString):
        tokenize('"abc')


def test_unterminated_backtick():
    with pytest.raises(UnterminatedBacktick):
        tokenize("`abc")


def test_invalid_character():
    with pytest.raises(InvalidCharacter):
        tokenize("x \x01 y")


def test_unknown_escape():
    with pytest.raises(InvalidCharacter):
        tokenize(r'"\q"')


def snapshot(text):
    toks = tokenize(text, keep_newlines=True)
    spans = [toks.span(i, i) for i in range(len(toks))]
    return [
        (kind, raw, (span.start_line, span.start_col, span.end_line, span.end_col))
        for kind, raw, span in zip(toks.kinds, toks.texts, spans)
    ]


@pytest.mark.parametrize(
    "text, expected",
    [
        (
            'x <- "a\nb"\ny',
            [
                ("name", "x", (1, 1, 1, 1)),
                ("op", "<-", (1, 3, 1, 4)),
                ("string", '"a\nb"', (1, 6, 2, 2)),
                ("newline", "\n", (2, 3, 3, 0)),
                ("name", "y", (3, 1, 3, 1)),
            ],
        ),
        (
            '"ab\nc" + 1',
            [
                ("string", '"ab\nc"', (1, 1, 2, 2)),
                ("op", "+", (2, 4, 2, 4)),
                ("num", "1", (2, 6, 2, 6)),
            ],
        ),
        (
            "x\r\ny",
            [
                ("name", "x", (1, 1, 1, 1)),
                ("newline", "\n", (1, 3, 2, 0)),
                ("name", "y", (2, 1, 2, 1)),
            ],
        ),
        ("a\tb", [("name", "a", (1, 1, 1, 1)), ("name", "b", (1, 3, 1, 3))]),
        (
            "x # c\ny",
            [
                ("name", "x", (1, 1, 1, 1)),
                ("newline", "\n", (1, 6, 2, 0)),
                ("name", "y", (2, 1, 2, 1)),
            ],
        ),
        (
            "{\nf(\na\n)\nx[[\n1\n]]\n}",
            [
                ("op", "{", (1, 1, 1, 1)),
                ("newline", "\n", (1, 2, 2, 0)),
                ("name", "f", (2, 1, 2, 1)),
                ("op", "(", (2, 2, 2, 2)),
                ("name", "a", (3, 1, 3, 1)),
                ("op", ")", (4, 1, 4, 1)),
                ("newline", "\n", (4, 2, 5, 0)),
                ("name", "x", (5, 1, 5, 1)),
                ("op", "[[", (5, 2, 5, 3)),
                ("num", "1", (6, 1, 6, 1)),
                ("op", "]", (7, 1, 7, 1)),
                ("op", "]", (7, 2, 7, 2)),
                ("newline", "\n", (7, 3, 8, 0)),
                ("op", "}", (8, 1, 8, 1)),
            ],
        ),
        (
            "a %in% b",
            [
                ("name", "a", (1, 1, 1, 1)),
                ("special", "%in%", (1, 3, 1, 6)),
                ("name", "b", (1, 8, 1, 8)),
            ],
        ),
        (
            "`my var` <- 1",
            [
                ("name", "my var", (1, 1, 1, 8)),
                ("op", "<-", (1, 10, 1, 11)),
                ("num", "1", (1, 13, 1, 13)),
            ],
        ),
    ],
    ids=[
        "multiline-string", "string-then-op", "crlf", "tab", "comment-newline",
        "group-newlines", "special-op", "backtick",
    ],
)
def test_token_spans(text, expected):
    assert snapshot(text) == expected


@pytest.mark.parametrize(
    "text, error, message, span",
    [
        ('"abc', UnterminatedString, "unterminated string literal", (1, 1, 1, 4)),
        ('"abc\n', UnterminatedString, "unterminated string literal", (1, 1, 2, 0)),
        ("`ab\nc`", UnterminatedBacktick, "unterminated backtick name", (1, 1, 1, 3)),
        ("a %in b", InvalidCharacter, "unterminated %..% operator", (1, 3, 1, 7)),
        ("a %in\nb", InvalidCharacter, "unterminated %..% operator", (1, 3, 1, 5)),
        (r'"\q"', InvalidCharacter, r"unknown escape \q", (1, 1, 1, 3)),
        (r'"\x"', InvalidCharacter, r"invalid escape \x", (1, 1, 1, 3)),
        ("x \x01 y", InvalidCharacter, r"invalid character '\x01'", (1, 3, 1, 3)),
        ("x <- ٣ + 1", InvalidCharacter, "invalid character '٣'", (1, 6, 1, 6)),
        ("x <- 1e٣", InvalidCharacter, "invalid character '٣'", (1, 8, 1, 8)),
        (r'"a\0b"', InvalidCharacter, "nul character not allowed", (1, 1, 1, 4)),
        (r'"\x00"', InvalidCharacter, "nul character not allowed", (1, 1, 1, 5)),
        (r'"\u0000"', InvalidCharacter, "nul character not allowed", (1, 1, 1, 7)),
        (r'"\000', InvalidCharacter, "nul character not allowed", (1, 1, 1, 5)),
        # after blanks: each span starts at its token, not at the blanks before it
        (r'x <- "\q"', InvalidCharacter, r"unknown escape \q", (1, 6, 1, 8)),
        ('\t \t"a\n\\q"', InvalidCharacter, r"unknown escape \q", (1, 4, 2, 2)),
        ("x  \t\x01", InvalidCharacter, r"invalid character '\x01'", (1, 5, 1, 5)),
        ("\n \t 'abc", UnterminatedString, "unterminated string literal", (2, 4, 2, 7)),
        ("f(\t`ab", UnterminatedBacktick, "unterminated backtick name", (1, 4, 1, 6)),
        ("a \t %in b", InvalidCharacter, "unterminated %..% operator", (1, 5, 1, 9)),
    ],
    ids=[
        "string-eof", "string-newline-eof", "backtick-newline", "special-eof",
        "special-newline", "unknown-escape", "hex-no-digits", "control-char",
        "arabic-digit", "arabic-exponent", "octal-nul", "hex-nul", "unicode-nul",
        "nul-before-unterminated", "escape-after-blanks", "escape-on-a-later-line-after-tabs",
        "control-char-after-blanks", "string-after-blanks", "backtick-after-a-tab",
        "special-after-blanks",
    ],
)
def test_error_spans(text, error, message, span):
    with pytest.raises(error) as info:
        tokenize(text)
    got = info.value
    assert type(got) is error
    assert str(got) == f"{message} (line {span[0]}, col {span[1]})"
    assert (got.span.start_line, got.span.start_col, got.span.end_line, got.span.end_col) == span


@pytest.mark.parametrize(
    "text", ["x   ", "x \t\r\f", "x # note", "x\t# note", "x\n  \t", "x\n# note", "x ;  "]
)
def test_trailing_blanks_and_a_final_comment_give_no_token(text):
    for keep_newlines in (False, True):
        tokens = tokenize(text, keep_newlines=keep_newlines)
        assert [k for k in tokens.kinds if k not in ("newline", "semi")] == ["name"]
        assert tokens.texts[0] == "x"


@pytest.mark.parametrize(
    "text, kind, value",
    [
        (".5", "num", (0.5, False)),
        (".5L", "num", (0.5, True)),
        (".x", "name", None),
        ("..1", "name", None),
        ("...", "name", None),
        (".", "name", None),
        ("x.1", "name", None),
        ("..5", "name", None),
        ("1.", "num", (1.0, False)),
    ],
)
def test_a_leading_dot_starts_a_number_only_before_a_digit(text, kind, value):
    tokens = tokenize(text)
    assert (tokens.kinds, tokens.texts, tokens.values) == ([kind], [text], [value])
