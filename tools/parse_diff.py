#!/usr/bin/env python3
"""Differential check of the lexer and parser against another revision.

    python3 tools/parse_diff.py REV [--count N] [--seed S]

Run from a checkout. `src/` at REV is extracted with `git archive` into a
temporary directory, and the same dump runs in two subprocesses: one
imports codeweft from REV, the other from this checkout's `src/`. For
each input the dump records

  - `tokenize(text)` and `tokenize(text, keep_newlines=True)`: kind, text,
    span, value and `quoted` of every token, or the error raised;
  - `parse_program(text)`: every tree with the span of every node, the
    errors (type, message, span) and the `incomplete` flag;
  - `is_complete(text)`: True, False, or the error raised;
  - for an input of more than one line, `recorder.record` over its lines
    (a fixed clock, a log in a temporary directory): the kind, text and
    `parsed` flag of every event;
  - for such an input, the result of each line prefix of each chunk that
    `record` parses, with an incomplete result resumed by `resume_program`
    as `record` resumes it: dumped as for `parse_program`, so a block or
    list that a resume keeps and a fresh parse would build otherwise shows.
    Each revision's `resume_program` gets what it takes: the new line where
    its second parameter is `more`, the whole chunk where it is `text`.

Inputs are the parser goldens, one file of all of them, the bundled
examples, each nesting form at depths around and far past the parser's
nesting cap, long operator chains, and N seeded random programs and
mutations of goldens, examples and random programs. Then come programs
whose blocks, argument lists, formals lists, operator chains and member
accesses stay open across lines, cut after every line, and such programs
with a hard error on a line inside an open `(`, `[` or `{`, or after an
operator. Differences are counted by input family and by section (an
input counts once under each section that differs), and the first SHOW
are printed, each at its first differing section. The exit status is 1 on
any difference. Standard library and git only.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import io
import json
import os
import random
import runpy
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECTIONS = ["tokens", "tokens_nl", "program", "is_complete", "record", "resume"]
SHOW = 5  # differences printed in full

# --- inputs ---------------------------------------------------------------

NESTED_DEPTHS = [10, 99, 100, 101, 102, 150, 300, 1000]
# left-deep chains, which a parser builds in a loop
CHAINS = {
    "chain-pipe": lambda n: "x" + " %>% f()" * n,
    "chain-plus": lambda n: "1" + " + 1" * n,
}
CHAIN_LENGTHS = [100, 1000, 5000]

_NAMES = ["x", "y", "df", "read.csv", ".a", "..1", "TRUE", "NULL", "NA", "Inf", "NaN", "if", "in"]
_BACKTICKS = ["`my var`", "`if`", "`+`", "`TRUE`", "``", "`%in%`"]
_NUMBERS = ["1", "2.5", "1e3", "1e-2", ".5", "0x1F", "0XfL", "3L", "1.", "0x"]
_STRINGS = ['"a"', "'b'", '"a\\"b"', '"\\n\\t"', '"\\x41"', '"\\u00e9"', '"\\101"', '"\\q"', '"\\0"',
            '""', "'it''s'", '"line\nbreak"', '"\\U0010FFFF"', '"\\uD800"']
_BINARY = ["+", "-", "*", "/", "^", ":", "==", "!=", "<", ">", "<=", ">=", "&", "&&", "|", "||",
           "~", "<-", "<<-", "->", "->>", "=", "?", "%in%", "%>%", "%%", "%/%"]
_ARG_NAMES = _NAMES + ['"a"', "'b'", "``", '""']
_MEMBER = ["$", "@", "::", ":::"]
_UNARY = ["-", "+", "!", "~", "?"]
_SEPARATORS = ["\n", "; ", "\n\n", " # note\n", "\r\n"]
# (opener, item separator, closer) of a list or an operator chain spread
# over lines; a `function(` opener takes formals as its items
_WRAPS = [("{", "\n", "}"), ("f <- function(a) {", "\n", "}"), ("if (a) {", "\n", "} else {\n  b\n}"),
          ("g(", ",\n", ")"), ("x[", ",\n", "]"), ("y[[", ",\n", "]]"), ("list(k = ", ",\n", ")"),
          ("x %>%", " %>%\n", ""), ("(a +", " +\n", ")"), ("b +", " +\n", ""),
          ("h <- function(", ",\n", ") NULL")]
_FORMALS = ["a", "b = 1", "...", "c = x %>%\n  f()", "d = {\n  1\n}", "e = g(1,\n  2)"]
# what may stand between two lines of a block, or between an if and its else
_GAPS = ["\n", "\n\n", "\n  # note\n"]
# lines no further input can repair
_HARD = ["x y", "1 2", ")", "]", "}", "else", "in", "= =", "f(a b", ",,", "if x", "function(1)"]
_NOISE = ["(", ")", "[", "]", "[[", "]]", "{", "}", ",", ";", "\n", "=", '"', "'", "`", "%", "#", "\\",
          "else", "function", "if (", "->", "٣", "²", "\x01", "\\0", "\\x", " ", "\t", "$", "::", "@"]


def random_expr(rng: random.Random, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.25:
        pick = rng.random()
        if pick < 0.45:
            return rng.choice(_NAMES)
        if pick < 0.6:
            return rng.choice(_BACKTICKS)
        if pick < 0.8:
            return rng.choice(_NUMBERS)
        return rng.choice(_STRINGS)

    def sub() -> str:
        return random_expr(rng, depth - 1)

    def gap() -> str:
        return rng.choice(["", " ", "\n", "  "])

    pick = rng.random()
    if pick < 0.3:
        return f"{sub()}{gap()}{rng.choice(_BINARY)}{gap()}{sub()}"
    if pick < 0.38:
        return f"{sub()}{rng.choice(_MEMBER)}{rng.choice(_NAMES + _STRINGS[:2])}"
    if pick < 0.45:
        return f"{rng.choice(_UNARY)}{sub()}"
    if pick < 0.52:
        return f"({gap()}{sub()}{gap()})"
    if pick < 0.6:
        body = rng.choice(_SEPARATORS).join(sub() for _ in range(rng.randint(0, 3)))
        return "{" + gap() + body + gap() + "}"
    if pick < 0.68:
        inner = ", ".join(rng.choice(["", sub()]) for _ in range(rng.randint(1, 3)))
        return f"{sub()}{rng.choice(['[', '[['])}{inner}{']' if rng.random() < 0.5 else ']]'}"
    if pick < 0.85:
        args = []
        for _ in range(rng.randint(0, 3)):
            kind = rng.random()
            if kind < 0.25:
                args.append(f"{rng.choice(_ARG_NAMES)}{gap()}={gap()}{sub()}")
            elif kind < 0.35:
                args.append("")
            else:
                args.append(sub())
        return f"{rng.choice(_NAMES + _BACKTICKS)}({', '.join(args)})"
    keyword = rng.choice(["if", "ifelse", "for", "while", "repeat", "function", "break", "next"])
    if keyword == "if":
        return f"if ({sub()}){gap()}{sub()}"
    if keyword == "ifelse":
        return f"if ({sub()}) {sub()}{gap()}else{gap()}{sub()}"
    if keyword == "for":
        return f"for ({rng.choice(_NAMES)} in {sub()}) {sub()}"
    if keyword == "while":
        return f"while ({sub()}) {sub()}"
    if keyword == "repeat":
        return f"repeat {sub()}"
    if keyword == "function":
        formals = ", ".join(rng.choice(["a", "b = 1", "...", "c = x"]) for _ in range(rng.randint(0, 2)))
        return f"function({formals}){gap()}{sub()}"
    return keyword


def random_program(rng: random.Random) -> str:
    exprs = [random_expr(rng, rng.randint(1, 5)) for _ in range(rng.randint(1, 4))]
    return rng.choice(_SEPARATORS).join(exprs) + rng.choice(["", "\n"])


def open_program(rng: random.Random) -> str:
    """Blocks, lists and chains nested up to three deep, one item a line."""
    def item(depth: int) -> str:
        if depth and rng.random() < 0.5:
            return build(depth - 1)
        pick = rng.random()
        if pick < 0.2:
            return f"if (a) {random_expr(rng, 1)}{rng.choice(_GAPS)}else {random_expr(rng, 1)}"
        if pick < 0.3:  # a member access split after its operator
            return f"{random_expr(rng, 1)}{rng.choice(_MEMBER)}\n{rng.choice(_NAMES)}"
        return random_expr(rng, rng.randint(1, 3))

    def build(depth: int) -> str:
        opener, separator, closer = rng.choice(_WRAPS)
        next_item = (lambda _: rng.choice(_FORMALS)) if opener.endswith("function(") else item
        text = next_item(depth)
        for _ in range(rng.randint(0, 2)):
            text += (rng.choice(_GAPS) if separator == "\n" else separator) + next_item(depth)
        return "\n".join(part for part in (opener, text, closer) if part)

    return "\n".join(build(rng.randint(0, 2)) for _ in range(rng.randint(1, 2)))


def inject(rng: random.Random, text: str) -> str:
    """`text` with a hard error on a new line after one that leaves a bracket
    or an operator open."""
    lines = text.split("\n")
    ends = ("{", "(", "[", ",", "%>%", "+", *_MEMBER)
    open_at = [i for i, line in enumerate(lines) if line.endswith(ends)] or [0]
    at = rng.choice(open_at) + 1
    return "\n".join(lines[:at] + [rng.choice(_HARD)] + lines[at:])


def mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 4)):
        at = rng.randint(0, len(text))
        pick = rng.random()
        if pick < 0.4:
            text = text[:at] + rng.choice(_NOISE) + text[at:]
        elif pick < 0.65:
            text = text[:at] + text[at + rng.randint(1, 4):]
        elif pick < 0.8:
            other = rng.randint(0, len(text))
            lo, hi = sorted((at, other))
            text = text[:hi] + text[lo:hi] + text[hi:]
        elif pick < 0.9:
            text = text[:at]
        else:
            text = text[:at] + rng.choice(_NOISE) * rng.randint(2, 30) + text[at:]
    return text


def build_inputs(count: int, seed: int) -> list[tuple[str, str]]:
    goldens = json.loads((ROOT / "tests" / "data" / "parser_goldens.json").read_text(encoding="utf-8"))
    examples = sorted((ROOT / "src" / "codeweft" / "data" / "examples").glob("*.R"))
    inputs = [("golden", g["src"]) for g in goldens]
    inputs += [("example", p.read_text(encoding="utf-8")) for p in examples]
    inputs.append(("goldens-file", "\n".join(g["src"] for g in goldens)))
    nested = runpy.run_path(str(ROOT / "tests" / "nesting_forms.py"))["NESTED"]
    inputs += [(f"deep-{form}", make(n)) for form, make in nested.items() for n in NESTED_DEPTHS]
    inputs += [(form, make(n)) for form, make in CHAINS.items() for n in CHAIN_LENGTHS]
    bases = [text for _, text in inputs[: len(goldens) + len(examples)]]
    rng = random.Random(seed)
    for i in range(count):
        if i % 2 == 0:
            inputs.append(("random", random_program(rng)))
        else:
            base = rng.choice(bases) if rng.random() < 0.5 else random_program(rng)
            if len(base) > 400:  # an example: mutate a window of it
                at = rng.randint(0, len(base) - 400)
                base = base[at:at + 400]
            inputs.append(("mutated", mutate(rng, base)))
    for _ in range(count // 50):
        lines = open_program(rng).split("\n")
        inputs += [("open-cut", "\n".join(lines[:i])) for i in range(1, len(lines) + 1)]
    inputs += [("open-hard-error", inject(rng, open_program(rng))) for _ in range(count // 10)]
    return inputs


# --- the dump, run once per version ---------------------------------------


_CLOCK = datetime(2024, 1, 2, 3, 4, 5, tzinfo=timezone.utc)


def _span(span) -> object:
    return None if span is None else (span.start_line, span.start_col, span.end_line, span.end_col)


def _error(err: BaseException) -> tuple:
    return ("raised", type(err).__name__, str(err), _span(getattr(err, "span", None)))


def _tree(expr) -> list:
    """Pre-order list of (node, span); an explicit stack walks any depth."""
    from codeweft.rast import Call

    out, stack = [], [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Call):
            out.append(("call", [a.name for a in node.args], _span(node.span)))
            stack.extend(a.value for a in reversed(node.args))
            stack.append(node.callee)
        else:
            # a node's span is in `span`, or packed in `_pos` (read through `span`)
            names = [name for name in type(node).__slots__ if name not in ("span", "_pos")]
            fields = tuple(repr(getattr(node, name)) for name in names)
            out.append((type(node).__name__, fields, _span(node.span)))
    return out


def _tokens(tokens) -> list:
    """(kind, text, span, value, quoted) per token of a `Tokens`, or of the list
    of `Token`s that `tokenize` returned before 81134ab."""
    if isinstance(tokens, list):
        return [(t.kind, t.text, _span(t.span), repr(t.value), t.quoted) for t in tokens]
    return [(kind, text, _span(tokens.span(i, i)), repr(value), tokens.quoted(i))
            for i, (kind, text, value) in enumerate(zip(tokens.kinds, tokens.texts, tokens.values))]


def _program(result) -> dict:
    return {
        "exprs": [(_tree(expr), _span(span)) for expr, span in result.exprs],
        "errors": [_error(err) for err in result.errors],
        "incomplete": result.incomplete,
    }


def _resumed(lines: list[str]) -> list:
    """The result of each line prefix of each chunk `record` parses."""
    from codeweft.parser import parse_program, resume_program

    takes_line = "more" in inspect.signature(resume_program).parameters
    out, pending, result = [], [], None
    for line in lines:
        if not pending and not line.strip():
            continue
        pending.append(line)
        text = "\n".join(pending)
        if result is not None and result.incomplete:
            result = resume_program(result, line if takes_line else text)
        else:
            result = parse_program(text)
        out.append(_program(result))
        if not result.incomplete:
            pending.clear()
    return out


def dump_one(text: str, log: Path) -> dict:
    from codeweft.lexer import tokenize
    from codeweft.parser import is_complete, parse_program
    from codeweft.recorder import record

    out: dict = {}
    for name, keep in (("tokens", False), ("tokens_nl", True)):
        try:
            out[name] = _tokens(tokenize(text, keep_newlines=keep))
        except Exception as err:  # the other version may raise anything
            out[name] = _error(err)
    try:
        out["program"] = _program(parse_program(text))
    except Exception as err:
        out["program"] = _error(err)
    try:
        out["is_complete"] = is_complete(text)
    except Exception as err:
        out["is_complete"] = _error(err)
    if "\n" in text:
        try:
            events = record(text.split("\n"), clock=lambda: _CLOCK, log_path=log)
            out["record"] = [(e.kind, e.expr_text, e.meta.get("parsed")) for e in events]
        except Exception as err:
            out["record"] = _error(err)
        log.unlink(missing_ok=True)
        try:
            out["resume"] = _resumed(text.split("\n"))
        except Exception as err:
            out["resume"] = _error(err)
    else:
        out["record"] = out["resume"] = None
    return out


def run_dump(inputs_path: str, out_path: str, only: str) -> None:
    texts = json.loads(Path(inputs_path).read_text(encoding="utf-8"))
    wanted = {int(i) for i in only.split(",")} if only else None
    with open(out_path, "w", encoding="utf-8") as out, tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "session.jsonl"
        for i, text in enumerate(texts):
            if wanted is not None and i not in wanted:
                continue
            sections = {k: json.dumps(v, sort_keys=True) for k, v in dump_one(text, log).items()}
            if wanted is None:  # digests keep the dump small; --only dumps in full
                sections = {k: hashlib.sha1(v.encode()).hexdigest() for k, v in sections.items()}
            out.write(json.dumps({"i": i, "sections": sections}) + "\n")


# --- the comparison ---------------------------------------------------------


def extract(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def dump_both(srcs: dict, inputs_path: Path, tmp: Path, only: str = "") -> dict:
    procs, outs = {}, {}
    for side, src in srcs.items():
        outs[side] = tmp / f"{side}{'-full' if only else ''}.jsonl"
        env = dict(os.environ, PYTHONPATH=str(src))
        cmd = [sys.executable, __file__, "--dump", str(inputs_path), str(outs[side]), "--only", only]
        procs[side] = subprocess.Popen(cmd, env=env)
    for side, proc in procs.items():
        if proc.wait() != 0:
            sys.exit(f"parse_diff: the dump of {side} failed")
    return outs


def first_difference(a: str, b: str) -> str:
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    lo = max(0, at - 60)
    return f"at char {at}:\n      old …{a[lo:at + 100]}\n      new …{b[lo:at + 100]}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", nargs="?")
    ap.add_argument("--count", type=int, default=50_000, help="seeded random and mutated inputs")
    ap.add_argument("--seed", type=int, default=20261018)
    ap.add_argument("--dump", nargs=2, metavar=("INPUTS", "OUT"), help=argparse.SUPPRESS)
    ap.add_argument("--only", default="", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.dump:
        run_dump(*args.dump, args.only)
        return 0
    if not args.rev:
        ap.error("REV is required")

    inputs = build_inputs(args.count, args.seed)
    with tempfile.TemporaryDirectory(prefix="parse_diff-") as tmp_name:
        tmp = Path(tmp_name)
        extract(args.rev, tmp / "old")
        srcs = {"old": tmp / "old" / "src", "new": ROOT / "src"}
        inputs_path = tmp / "inputs.json"
        inputs_path.write_text(json.dumps([text for _, text in inputs]), encoding="utf-8")
        outs = dump_both(srcs, inputs_path, tmp)

        families, differing, by_section, diffs = Counter(), Counter(), Counter(), []
        with open(outs["old"], encoding="utf-8") as old, open(outs["new"], encoding="utf-8") as new:
            for (family, _), a, b in zip(inputs, old, new):
                families[family] += 1
                a, b = json.loads(a), json.loads(b)
                sections = [s for s in SECTIONS if a["sections"][s] != b["sections"][s]]
                if sections:
                    differing[family] += 1
                    by_section.update(sections)
                    diffs.append((a["i"], sections[0]))

        print(f"parse_diff: {args.rev} (old) against the checkout (new), "
              f"{len(inputs):,} inputs, seed {args.seed}")
        print(f"  {'family':<24}{'inputs':>9}{'identical':>11}{'differing':>11}")
        for family, n in families.items():
            print(f"  {family:<24}{n:>9,}{n - differing[family]:>11,}{differing[family]:>11,}")
        total = sum(differing.values())
        print(f"  {'all':<24}{len(inputs):>9,}{len(inputs) - total:>11,}{total:>11,}")
        if not total:
            return 0
        print("  inputs differing in each section: "
              + ", ".join(f"{s} {by_section[s]:,}" for s in SECTIONS if by_section[s]))
        shown = diffs[:SHOW]
        full = dump_both(srcs, inputs_path, tmp, ",".join(str(i) for i, _ in shown))
        old_full, new_full = (
            [json.loads(line) for line in full[side].read_text(encoding="utf-8").splitlines()]
            for side in ("old", "new")
        )
        for (i, section), a, b in zip(shown, old_full, new_full):
            text = inputs[i][1]
            print(f"  [{inputs[i][0]}] input {i}: {text[:80]!r}{'…' if len(text) > 80 else ''}")
            print(f"    {section} {first_difference(a['sections'][section], b['sections'][section])}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
