#!/usr/bin/env python3
"""Generate the parser golden corpus at tests/data/parser_goldens.json.

The expected trees are built directly here, from the documented operator
precedence table (see ?Syntax in R), without importing the parser under
test. Two sources of entries:

  1. systematic `x OP1 y OP2 z` triples over the binary operator table,
     grouped by a table-driven rule: the second operator binds first iff
     its precedence is strictly higher, or equal with right associativity;
  2. hand-written trees for everything the triples cannot reach (calls,
     indexing, keywords, unary operators, literals, pipes, ...).

Run from the repository root:  python3 tools/gen_parser_goldens.py
"""

from __future__ import annotations

import json
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "parser_goldens.json"

# precedence tiers, high to low, straight from the documented table;
# True marks right associativity
TIERS = [
    (["^"], True),
    ([":"], False),
    (["%in%", "%%", "%/%", "%o%"], False),
    (["*", "/"], False),
    (["+", "-"], False),
    (["<", ">", "<=", ">=", "==", "!="], False),
    (["&", "&&"], False),
    (["|", "||"], False),
    (["~"], False),
    (["->", "->>"], False),
    (["<-", "<<-"], True),
]

PREC: dict[str, int] = {}
RIGHT: set[str] = set()
for level, (ops, right) in enumerate(reversed(TIERS)):
    for op in ops:
        PREC[op] = level
        if right:
            RIGHT.add(op)


# --- tiny builders for the golden-file node schema ----------------------


def sym(name):
    return {"kind": "symbol", "name": name}


def num(text, value, is_int=False):
    out = {"kind": "num", "text": text, "value": value}
    if is_int:
        out["int"] = True
    return out


def string(value):
    return {"kind": "string", "value": value}


def logical(value):
    return {"kind": "logical", "value": value}


def null():
    return {"kind": "null"}


def arg(value, name=None):
    out = {"value": value}
    if name is not None:
        out["name"] = name
    return out


def call(callee, *args):
    return {
        "kind": "call",
        "callee": callee if isinstance(callee, dict) else sym(callee),
        "args": [a if "value" in a and set(a) <= {"value", "name"} else arg(a) for a in args],
    }


def bin_op(op, left, right):
    # right-assignment is stored in assignment form with swapped operands,
    # the same rewrite R itself applies
    if op == "->":
        return call("<-", right, left)
    if op == "->>":
        return call("<<-", right, left)
    return call(op, left, right)


def missing():
    return sym("")


# --- systematic operator-pair triples -----------------------------------


def triples():
    entries = []
    x, y, z = sym("x"), sym("y"), sym("z")
    ops = list(PREC)
    for op1 in ops:
        for op2 in ops:
            src = f"x {op1} y {op2} z"
            if PREC[op2] > PREC[op1] or (PREC[op2] == PREC[op1] and op2 in RIGHT):
                tree = bin_op(op1, x, bin_op(op2, y, z))
            else:
                tree = bin_op(op2, bin_op(op1, x, y), z)
            entries.append({"src": src, "ast": tree})
    return entries


# --- hand-written cases -------------------------------------------------


def hand_cases():
    x, y, z = sym("x"), sym("y"), sym("z")
    one = num("1", 1.0)
    two = num("2", 2.0)
    three = num("3", 3.0)

    cases = [
        # literals
        ("42", num("42", 42.0)),
        # the integer suffix is carried by the int flag, not the text
        ("42L", num("42", 42.0, True)),
        ("0x1F", num("0x1F", 31.0)),
        ("1e3", num("1e3", 1000.0)),
        ("2.5e-2", num("2.5e-2", 0.025)),
        (".5", num(".5", 0.5)),
        ("TRUE", logical(True)),
        ("FALSE", logical(False)),
        ("NA", logical(None)),
        ("NULL", null()),
        # JSON has no Inf: a non-finite value is the text R prints
        ("Inf", num("Inf", "Inf")),
        ('"hi"', string("hi")),
        ('"a\\"b"', string('a"b')),
        ("'single'", string("single")),
        ('"tab\\there"', string("tab\there")),
        ("`weird name`", sym("weird name")),
        ("`if`", sym("if")),
        # plain calls
        ("f()", call(sym("f"))),
        ("f(x)", call(sym("f"), x)),
        ("f(x, y)", call(sym("f"), x, y)),
        ("f(a = 1)", call(sym("f"), arg(one, "a"))),
        ("f(a = 1, b)", call(sym("f"), arg(one, "a"), arg(sym("b")))),
        ('f("nm" = 1)', call(sym("f"), arg(one, "nm"))),
        ("f(, x)", call(sym("f"), missing(), x)),
        ("f(x, )", call(sym("f"), x, missing())),
        ("f(g(x))", call(sym("f"), call(sym("g"), x))),
        ("f(x)(y)", call(call(sym("f"), x), y)),
        ("(f)(x)", call(call("(", sym("f")), x)),
        # member access and namespaces
        ("x$y", call("$", x, y)),
        ("x$y$z", call("$", call("$", x, y), z)),
        ('x$"y"', call("$", x, string("y"))),
        ("x@y", call("@", x, y)),
        ("pkg::fn", call("::", sym("pkg"), sym("fn"))),
        ("pkg:::fn", call(":::", sym("pkg"), sym("fn"))),
        ("pkg::fn(x)", call(call("::", sym("pkg"), sym("fn")), x)),
        ("x$f(y)", call(call("$", x, sym("f")), y)),
        ("x$y + z", call("+", call("$", x, y), z)),
        ("f(x)$y", call("$", call(sym("f"), x), y)),
        # indexing
        ("x[1]", call("[", x, one)),
        ("x[]", call("[", x, missing())),
        ("x[1, 2]", call("[", x, one, two)),
        ("x[1, ]", call("[", x, one, missing())),
        ("x[, 1]", call("[", x, missing(), one)),
        ("x[[1]]", call("[[", x, one)),
        ("m[1:3, ]", call("[", sym("m"), call(":", one, three), missing())),
        ("x[y][z]", call("[", call("[", x, y), z)),
        ("x[[i]]$nm", call("$", call("[[", x, sym("i")), sym("nm"))),
        ("x[i = 1]", call("[", x, arg(one, "i"))),
        # unary operators
        ("-x", call("-", x)),
        ("+x", call("+", x)),
        ("!x", call("!", x)),
        ("~x", call("~", x)),
        ("-x^2", call("-", call("^", x, two))),
        ("2^-3", call("^", two, call("-", three))),
        ("(-x)^2", call("^", call("(", call("-", x)), two)),
        ("-x * y", call("*", call("-", x), y)),
        ("x + -y", call("+", x, call("-", y))),
        ("--x", call("-", call("-", x))),
        ("!x & y", call("&", call("!", x), y)),
        ("!(x & y)", call("!", call("(", call("&", x, y)))),
        ("-1:3", call(":", call("-", one), three)),
        ("1:-3", call(":", one, call("-", three))),
        ("y ~ -x", call("~", y, call("-", x))),
        # explicit grouping
        ("(x)", call("(", x)),
        ("(x + y) * z", call("*", call("(", call("+", x, y)), z)),
        ("((x))", call("(", call("(", x))),
        # formulas
        ("y ~ x", call("~", y, x)),
        ("y ~ x + z", call("~", y, call("+", x, z))),
        ("~x + y", call("~", call("+", x, y))),
        # special operators
        ("x %in% y", call("%in%", x, y)),
        ("a %>% b()", call("%>%", sym("a"), call(sym("b")))),
        (
            "a %>% b() %>% c()",
            call("%>%", call("%>%", sym("a"), call(sym("b"))), call(sym("c"))),
        ),
        ("x %+% y %+% z", call("%+%", call("%+%", x, y), z)),
        # assignment forms
        ("x <- 1", call("<-", x, one)),
        ("x <<- 1", call("<<-", x, one)),
        ("1 -> x", call("<-", x, one)),
        ("1 ->> x", call("<<-", x, one)),
        ("x = 1", call("=", x, one)),
        ("x = y = z", call("=", x, call("=", y, z))),
        ("x$y <- 1", call("<-", call("$", x, y), one)),
        ("x[1] <- 2", call("<-", call("[", x, one), two)),
        ("names(x) <- y", call("<-", call(sym("names"), x), y)),
        # blocks
        ("{ }", call("{")),
        ("{ x }", call("{", x)),
        ("{ x; y }", call("{", x, y)),
        ("{\n  x\n  y\n}", call("{", x, y)),
        # control flow
        ("if (x) y", call("if", x, y)),
        ("if (x) y else z", call("if", x, y, z)),
        (
            "if (x) { y } else { z }",
            call("if", x, call("{", y), call("{", z)),
        ),
        (
            "if (x) if (y) 1 else 2",
            call("if", x, call("if", y, one, two)),
        ),
        (
            "if (a) 1 else if (b) 2 else 3",
            call("if", sym("a"), one, call("if", sym("b"), two, three)),
        ),
        ("while (x) y", call("while", x, y)),
        ("while (x > 1) { y }", call("while", call(">", x, one), call("{", y))),
        ("repeat x", call("repeat", x)),
        ("repeat { break }", call("repeat", call("{", call("break")))),
        ("for (i in x) y", call("for", sym("i"), x, y)),
        (
            "for (i in 1:3) { next }",
            call("for", sym("i"), call(":", one, three), call("{", call("next"))),
        ),
        ("x <- if (y) 1 else 2", call("<-", x, call("if", y, one, two))),
        # function definitions
        ("function() x", call("function", x)),
        ("function(a) a", call("function", arg(missing(), "a"), sym("a"))),
        (
            "function(a, b = 2) a + b",
            call(
                "function",
                arg(missing(), "a"),
                arg(two, "b"),
                call("+", sym("a"), sym("b")),
            ),
        ),
        (
            "f <- function(x) { x }",
            call("<-", sym("f"), call("function", arg(missing(), "x"), call("{", x))),
        ),
        (
            "function(a) function(b) a",
            call(
                "function",
                arg(missing(), "a"),
                call("function", arg(missing(), "b"), sym("a")),
            ),
        ),
        # mixed precedence spot checks
        ("x + y * z^2", call("+", x, call("*", y, call("^", z, two)))),
        ("x^y^z", call("^", x, call("^", y, z))),
        ("1:3 + 1", call("+", call(":", one, three), one)),
        ("a & b | c", call("|", call("&", sym("a"), sym("b")), sym("c"))),
        ("!x == y", call("!", call("==", x, y))),
        (
            "mean(x, na.rm = TRUE)",
            call(sym("mean"), arg(x), arg(logical(True), "na.rm")),
        ),
        (
            'read.csv("data.csv", header = TRUE)',
            call(sym("read.csv"), arg(string("data.csv")), arg(logical(True), "header")),
        ),
        (
            "df$col[df$col > 2] <- NA",
            call(
                "<-",
                call(
                    "[",
                    call("$", sym("df"), sym("col")),
                    call(">", call("$", sym("df"), sym("col")), two),
                ),
                logical(None),
            ),
        ),
        (
            "lm(y ~ x, data = df)",
            call(sym("lm"), arg(call("~", y, x)), arg(sym("df"), "data")),
        ),
        (
            "sapply(x, function(v) v + 1)",
            call(
                sym("sapply"),
                arg(x),
                arg(call("function", arg(missing(), "v"), call("+", sym("v"), one))),
            ),
        ),
    ]
    return [{"src": src, "ast": tree} for src, tree in cases]


def main():
    entries = triples() + hand_cases()
    srcs = [e["src"] for e in entries]
    assert len(srcs) == len(set(srcs)), "duplicate golden sources"
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} goldens to {OUT}")


if __name__ == "__main__":
    main()
