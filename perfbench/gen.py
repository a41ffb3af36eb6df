"""Seeded inputs, and their expected outputs, for the three workloads.

Never imports codeweft. Source text comes from `rprint`, the expected
trees are built here, and the lexicon join is computed naively from
`classifications.csv` and `stopfuncs.txt` read with `csv`. Every file is
generated from its own sub-seed, so the checker can rebuild the truth of
one file at a time without holding the whole corpus.
"""

from __future__ import annotations

import csv
import io
import json
import random
from pathlib import Path

import rprint as rp
from rprint import MISSING, arg, call, num, string, sym

GOLDENS = Path("tests/data/parser_goldens.json")
LEXICON = Path("src/codeweft/data/classifications.csv")
STOPFUNCS = Path("src/codeweft/data/stopfuncs.txt")

# --- vocabulary and bounds (kept here, not in the package) -----------------

FRAMES = ["df", "dat", "starwars", "mtcars", "iris", "flights", "tbl", "survey", "sales", "raw"]
COLUMNS = [
    "height", "mass", "name", "x", "y", "z", "value", "group", "year",
    "count", "species", "price", "score", "age", "region", "dose",
]
VARS = ["m", "fit", "out", "tmp", "total", "avg", "idx", "p", "n", "sub", "cleaned", "est", "res", "k"]
PACKAGES = ["tidyverse", "ggplot2", "dplyr", "readr", "tidyr", "stringr", "broom", "tidycode"]
SCALAR_FUNCS = ["mean", "sd", "sum", "length", "round", "log", "sqrt", "max", "min", "median", "nchar"]
VECTOR_FUNCS = ["unique", "table", "as.numeric", "which", "head", "tail", "sort", "rev", "cumsum"]
VERBS = ["filter", "select", "mutate", "group_by", "summarise", "arrange", "distinct", "head", "count"]
NAMESPACES = ["dplyr", "stats", "utils", "tidyr"]
WORDS = ["alpha", "beta", "data", "raw", "clean", "model", "out", "plot", "summary", "final"]

MAX_VALUE_DEPTH = 3  # nesting of generated value expressions
MAX_BLOCK_DEPTH = 2  # nesting of `{` blocks inside generated functions/loops

# corpus-batch: bytes per medium file, fixed so that every seed has the same
# size profile. The 16 equal files sit around the tail percentile, so the
# tail operation is one of them wherever garbage-collector pauses land.
MEDIUM_BYTES = [8_000] * 16 + [int(360 * 1.2**i) for i in range(14)]
LARGE_LINES = [10_000, 10_500]  # "a few large" files of terse statements, lines each
DEEP_NESTING = 1_000  # nested parens / %>% stages in the depth probes

# session-record: fixed composition of one transcript
SESSION_ONE_LINERS = 520
SESSION_BLANKS = 90
SESSION_COMMENTS = 90
SESSION_SHORT_PASTES = [2, 2, 3, 3, 3, 4, 4, 5, 5, 6, 7]  # lines each
# function definitions pasted whole, in bytes: about 8 to 30 lines, then two
# of about 100; sized in bytes because each line re-scans the whole buffer
SESSION_PASTE_BYTES = [300, 360, 430, 540, 720, 900, 1_080, 3_500, 4_000]
SESSION_SYNTAX_ERRORS = ["x <- )", "total <- 3 +* 2", "f(a b)", "y <- c(1, 2))"]

WORKLOADS = ("corpus-batch", "cli-oneshot", "session-record")


def rand_num(rng: random.Random) -> dict:
    if rng.random() < 0.8:
        return num(str(rng.randint(0, 100)))
    return num(f"{rng.randint(0, 99)}.{rng.randint(1, 9)}")


def rand_string(rng: random.Random) -> dict:
    return string("_".join(rng.sample(WORDS, rng.randint(1, 2))))


# --- constructors that make every needed paren an explicit `(` node ---------


def paren(node: dict) -> dict:
    return call("(", node)


def binop(op: str, a: dict, b: dict) -> dict:
    """Binary call whose operands are parenthesised as parsing requires."""
    if rp.SPECIAL.match(op):
        lbp, right = rp.SPECIAL_BP, False
    else:
        lbp, right = rp.INFIX[op]
    left_req, right_req = (lbp + 1, lbp) if right else (lbp, lbp + 1)
    if rp.own_bp(a) < left_req:
        a = paren(a)
    if rp.own_bp(b) < right_req and rp.own_bp(b) != rp.KEYWORD_BP:
        b = paren(b)
    return call(op, a, b)


def member(frame: str, col: str) -> dict:
    return call("$", sym(frame), sym(col))


def col_ref(rng: random.Random) -> dict:
    return member(rng.choice(FRAMES), rng.choice(COLUMNS))


def scalar(rng: random.Random, depth: int) -> dict:
    pick = rng.random()
    if depth <= 0 or pick < 0.25:
        return rand_num(rng) if rng.random() < 0.5 else col_ref(rng)
    if pick < 0.5:
        named = {"na_rm": rp.logical(True)} if rng.random() < 0.4 else {}
        return call(rng.choice(SCALAR_FUNCS), col_ref(rng), **named)
    if pick < 0.65:
        return call(rng.choice(VECTOR_FUNCS), col_ref(rng))
    return arith(rng, depth - 1)


def arith(rng: random.Random, depth: int) -> dict:
    node = scalar(rng, depth)
    for _ in range(rng.randint(1, 2)):
        node = binop(rng.choice(["+", "-", "*", "/"]), node, scalar(rng, depth))
    if rng.random() < 0.3:
        node = binop("^", paren(node), num("2"))
    elif rng.random() < 0.3:
        node = binop("/", paren(node), num("100"))
    return node


def condition(rng: random.Random) -> dict:
    pick = rng.random()
    if pick < 0.45:
        return binop(rng.choice([">", "<", "==", ">=", "!="]), sym(rng.choice(COLUMNS)), rand_num(rng))
    if pick < 0.7:
        return call("!", call("is.na", sym(rng.choice(COLUMNS))))
    if pick < 0.85:
        vals = [rand_string(rng) for _ in range(rng.randint(1, 3))]
        return binop("%in%", sym(rng.choice(COLUMNS)), call("c", *vals))
    return binop("&", condition(rng), condition(rng))


def verb(rng: random.Random) -> dict:
    name = rng.choice(VERBS)
    cols = [sym(c) for c in rng.sample(COLUMNS, rng.randint(1, 3))]
    if name == "filter":
        return call(name, condition(rng))
    if name in ("select", "group_by", "arrange", "distinct", "count"):
        return call(name, *cols)
    if name == "head":
        return call(name, rand_num(rng))
    value = arith(rng, 1) if name == "mutate" else call(rng.choice(SCALAR_FUNCS), cols[0])
    return call(name, arg(value, rng.choice(VARS)))


def pipe_chain(rng: random.Random, stages: int | None = None) -> dict:
    node = sym(rng.choice(FRAMES))
    for _ in range(stages if stages is not None else rng.randint(1, 4)):
        node = binop("%>%", node, verb(rng))
    return node


def value(rng: random.Random, depth: int = MAX_VALUE_DEPTH) -> dict:
    pick = rng.random()
    if pick < 0.3:
        return pipe_chain(rng)
    if pick < 0.55:
        return scalar(rng, depth)
    if pick < 0.65:
        return call("c", *[rand_num(rng) for _ in range(rng.randint(2, 5))])
    if pick < 0.72:
        return call("[", sym(rng.choice(FRAMES)), binop(":", num("1"), rand_num(rng)), MISSING)
    if pick < 0.78:
        return call("[[", sym(rng.choice(VARS)), rand_num(rng) if rng.random() < 0.5 else rand_string(rng))
    if pick < 0.84:
        ns = call("::", sym(rng.choice(NAMESPACES)), sym(rng.choice(["filter", "lag", "median", "head"])))
        return call(ns, sym(rng.choice(FRAMES)), condition(rng))
    if pick < 0.9:
        return call("ifelse", call("is.na", col_ref(rng)), num("0"), col_ref(rng))
    if pick < 0.95:
        body = binop(rng.choice(["*", "+"]), sym("v"), rand_num(rng))
        fn = call("function", arg(MISSING, "v"), body)
        return call("sapply", sym(rng.choice(VARS)), fn)
    return call("paste0", rand_string(rng), call("nrow", sym(rng.choice(FRAMES))))


def one_line_statement(rng: random.Random) -> dict:
    """A statement that prints on one line; assignments dominate."""
    pick = rng.random()
    if pick < 0.55:
        return binop("<-", sym(rng.choice(VARS)), value(rng))
    if pick < 0.65:
        return binop("<-", col_ref(rng), value(rng))
    if pick < 0.7:
        return call("library", sym(rng.choice(PACKAGES)))
    if pick < 0.76:
        gg = call("ggplot", sym(rng.choice(FRAMES)), call("aes", *[sym(c) for c in rng.sample(COLUMNS, 2)]))
        plot = binop("+", gg, call("geom_point"))
        return binop("<-", sym("p"), plot) if rng.random() < 0.6 else plot
    if pick < 0.8:
        formula = binop("~", sym(rng.choice(COLUMNS)), binop("+", sym(rng.choice(COLUMNS)), sym(rng.choice(COLUMNS))))
        return binop("<-", sym("fit"), call("lm", formula, arg(sym(rng.choice(FRAMES)), "data")))
    if pick < 0.86:
        return call("summary", col_ref(rng) if rng.random() < 0.7 else sym("fit"))
    if pick < 0.9:
        return call("print", call("head", sym(rng.choice(FRAMES)), rand_num(rng)))
    if pick < 0.93:
        return call("plot", col_ref(rng), col_ref(rng))
    if pick < 0.95:
        return call("options", arg(num(str(rng.randint(2, 6))), "digits"))
    if pick < 0.97:
        return call("write.csv", sym(rng.choice(FRAMES)), string("out.csv"), arg(rp.logical(False), "row.names"))
    return binop("<-", sym(rng.choice(FRAMES)), call("read.csv", string(f"data/{rng.choice(WORDS)}.csv")))


def block(rng: random.Random, statements: int, depth: int) -> dict:
    body = []
    for _ in range(statements):
        if depth > 1 and rng.random() < 0.12:
            body.append(compound(rng, rng.randint(1, 3), depth - 1))
        else:
            body.append(one_line_statement(rng))
    return call("{", *body)


def compound(rng: random.Random, statements: int, depth: int = MAX_BLOCK_DEPTH) -> dict:
    """A multi-line statement: function definition, loop or if/else."""
    pick = rng.random()
    if pick < 0.5:
        formals = [arg(MISSING, "x")]
        if rng.random() < 0.5:
            formals.append(arg(rand_num(rng), "k"))
        body = block(rng, max(1, statements - 1), depth)
        body["args"].append(arg(call("return", sym("x"))))
        fn = {"kind": "call", "callee": sym("function"), "args": formals + [arg(body)]}
        return binop("<-", sym(f"f_{rng.choice(WORDS)}"), fn)
    if pick < 0.75:
        seq = call("seq_len", call("nrow", sym(rng.choice(FRAMES))))
        return call("for", sym("i"), seq, block(rng, statements, depth))
    cond = binop(">", call("nrow", sym(rng.choice(FRAMES))), rand_num(rng))
    if rng.random() < 0.5:
        return call("if", cond, block(rng, statements, depth))
    half = max(1, statements // 2)
    return call("if", cond, block(rng, half, depth), block(rng, statements - half, depth))


def statement(rng: random.Random) -> dict:
    if rng.random() < 0.06:
        return compound(rng, rng.randint(2, 6))
    return one_line_statement(rng)


def terse_statement(rng: random.Random) -> dict:
    """A short line, as in long step-by-step scripts."""
    pick = rng.random()
    var = sym(rng.choice(VARS))
    if pick < 0.35:
        return binop("<-", var, col_ref(rng))
    if pick < 0.55:
        return binop("<-", var, call(rng.choice(SCALAR_FUNCS), sym(rng.choice(VARS))))
    if pick < 0.7:
        return binop("<-", var, binop(rng.choice(["+", "-", "*"]), var, rand_num(rng)))
    if pick < 0.8:
        return binop("<-", var, rand_num(rng))
    if pick < 0.88:
        return call(rng.choice(["print", "summary", "str", "head"]), sym(rng.choice(VARS)))
    if pick < 0.94:
        return call("plot", col_ref(rng))
    return call("library", sym(rng.choice(PACKAGES)))


# --- scripts ----------------------------------------------------------------


def script(rng: random.Random, size: int, unit: str = "bytes", terse: bool = False):
    """Natural R source of at least `size` bytes (or lines), plus the
    (start line, tree) of each top-level expression."""
    out_lines = [f"# {rng.choice(WORDS)} analysis script", ""]
    exprs = []
    blank = 0.25 if terse else 0.12
    length = counted = 0
    while (len(out_lines) if unit == "lines" else length) < size:
        if rng.random() < blank:
            out_lines.append("")
        if rng.random() < 0.08:
            out_lines.append(f"# step {len(exprs) + 1}: {rng.choice(WORDS)}")
        tree = terse_statement(rng) if terse else statement(rng)
        text = rp.NATURAL.expr(tree)
        if "\n" not in text and rng.random() < 0.05:
            text += f"  # {rng.choice(WORDS)}"
        exprs.append((len(out_lines) + 1, tree))
        out_lines.extend(text.split("\n"))
        length += sum(len(line) + 1 for line in out_lines[counted:])
        counted = len(out_lines)
    return "\n".join(out_lines) + "\n", exprs


def deep_parens(n: int):
    inner = sym("y")
    for _ in range(n):
        inner = call("(", inner)
    tree = call("<-", sym("x"), inner)
    return "x <- " + "(" * n + "y" + ")" * n + "\n", [(1, tree)]


def deep_pipe(rng: random.Random, n: int):
    node = sym("df")
    parts = ["d <- df"]
    for _ in range(n):
        stage = call(rng.choice(["filter", "select", "mutate", "arrange"]), sym(rng.choice(COLUMNS)))
        node = call("%>%", node, stage)
        parts.append(rp.CANONICAL.expr(stage))
    return " %>% ".join(parts) + "\n", [(1, call("<-", sym("d"), node))]


# --- naive lexicon join -------------------------------------------------------


class Lexicon:
    """classifications.csv and stopfuncs.txt, read without the package."""

    def __init__(self, root: Path):
        with open(root / LEXICON, newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.DictReader(fh)]
        self.by_func: dict[str, list[tuple[str, str, float]]] = {}
        for r in rows:
            self.by_func.setdefault(r["func"], []).append(
                (r["classification"], r["lexicon"], float(r["score"]))
            )
        self.best_by_func: dict[str, list[tuple[str, str, float]]] = {}
        for func, entries in self.by_func.items():
            best: dict[str, tuple[str, str, float]] = {}
            for cls, lex, score in entries:
                cur = best.get(lex)
                if cur is None or score > cur[2] or (score == cur[2] and cls < cur[0]):
                    best[lex] = (cls, lex, score)
            self.best_by_func[func] = list(best.values())
        for table in (self.by_func, self.best_by_func):
            for entries in table.values():
                entries.sort(key=lambda e: (e[1], -e[2], e[0]))
        self.stops = []
        for raw in (root / STOPFUNCS).read_text(encoding="utf-8").splitlines():
            line = raw.strip()
            if line and not line.startswith("#"):
                self.stops.append(line)
        self.funcs = list(self.by_func)

    def join(self, funcs: list[str], best: bool = False) -> list[tuple[str, str, str]]:
        """(func, classification, lexicon) rows, stop functions dropped first."""
        table = self.best_by_func if best else self.by_func
        return [
            (f, cls, lex)
            for f in funcs
            if f not in self.stops
            for cls, lex, _ in table.get(f, ())
        ]


# --- corpus-batch ---------------------------------------------------------------


def corpus_plan(seed: int, root: Path) -> dict:
    """File specs (cheap); `corpus_file` turns one spec into text and truth."""
    rng = random.Random(seed)
    goldens = json.loads((root / GOLDENS).read_text(encoding="utf-8"))
    specs = [{"kind": "golden", "index": i} for i in range(len(goldens))]
    specs += [{"kind": "script", "bytes": n} for n in MEDIUM_BYTES]
    rng.shuffle(specs)
    # the large files sit at fixed fractions of the pass, because a file's
    # garbage-collection cost grows with what the pass holds when it is read
    n = len(specs)
    for k, lines in enumerate(LARGE_LINES, 1):
        specs.insert(k * n // (len(LARGE_LINES) + 1) + k - 1, {"kind": "script", "lines": lines, "terse": True})
    for i, spec in enumerate(specs):
        spec["path"] = f"src{i:04d}.R"
        spec["seed"] = rng.getrandbits(64)
    probes = [
        {"kind": "deep_parens", "path": "deep_parens.R", "seed": rng.getrandbits(64)},
        {"kind": "deep_pipe", "path": "deep_pipe.R", "seed": rng.getrandbits(64)},
    ]
    return {"files": specs, "probes": probes, "goldens": goldens}


def corpus_file(spec: dict, goldens: list) -> tuple[str, list]:
    kind = spec["kind"]
    rng = random.Random(spec["seed"])
    if kind == "golden":
        entry = goldens[spec["index"]]
        return entry["src"] + "\n", [(1, entry["ast"])]
    if kind == "script":
        if "lines" in spec:
            return script(rng, spec["lines"], unit="lines", terse=spec["terse"])
        return script(rng, spec["bytes"])
    if kind == "deep_parens":
        return deep_parens(DEEP_NESTING)
    return deep_pipe(rng, DEEP_NESTING)


def file_truth(spec: dict, goldens: list, lexicon: Lexicon) -> dict:
    """Expected records, unnest function names and lexicon join of one file."""
    _, exprs = corpus_file(spec, goldens)
    deep = spec["kind"].startswith("deep")
    funcs = [f for _, tree in exprs for f, _, _ in rp.calls_preorder(tree, cells=not deep)]
    return {
        "path": spec["path"],
        "kind": spec["kind"],
        "exprs": exprs,
        "funcs": funcs,
        "pairs": lexicon.join(funcs),
    }


# --- session-record ---------------------------------------------------------------


def _paste_pipe(rng: random.Random, lines: int) -> tuple[list[str], list]:
    tree = binop("<-", sym(rng.choice(VARS)), pipe_chain(rng, stages=lines - 1))
    text = rp.NATURAL.expr(tree)
    return text.replace(" %>% ", " %>%\n  ").split("\n"), [tree]


def _paste_block(rng: random.Random, lines: int) -> tuple[list[str], list]:
    tree = compound(rng, max(1, lines - 2), depth=1)
    return rp.NATURAL.expr(tree).split("\n"), [tree]


def _paste_function(rng: random.Random, target_bytes: int) -> tuple[list[str], list]:
    """One function definition whose text reaches `target_bytes`."""
    body, size = [], 0
    while size < target_bytes:
        stmt = one_line_statement(rng)
        body.append(stmt)
        size += len(rp.NATURAL.expr(stmt)) + 5
    body.append(call("return", sym("x")))
    fn = {"kind": "call", "callee": sym("function"), "args": [arg(MISSING, "x"), arg(call("{", *body))]}
    tree = binop("<-", sym(f"f_{rng.choice(WORDS)}"), fn)
    lines = rp.NATURAL.expr(tree).split("\n")
    # blank and comment lines inside the paste are part of the buffer too
    for pos in sorted(rng.sample(range(1, len(lines) - 1), k=len(lines) // 10), reverse=True):
        lines.insert(pos, "" if rng.random() < 0.5 else "    # " + rng.choice(WORDS))
    return lines, [tree]


def session_plan(seed: int) -> dict:
    """Input lines and the events `recorder.record` should log for them.

    An entry is a group of lines: its events are (parsed, text, trees).
    Multi-line pastes are built so that every proper prefix is incomplete.
    """
    rng = random.Random(seed)
    entries: list[tuple[list[str], list]] = []
    for _ in range(SESSION_ONE_LINERS):
        tree = one_line_statement(rng)
        text = rp.NATURAL.expr(tree)
        if rng.random() < 0.05:
            text += f"  # {rng.choice(WORDS)}"
        entries.append(([text], [(True, text, [tree])]))
    entries += [([""], []) for _ in range(SESSION_BLANKS)]
    entries += [([f"# {rng.choice(WORDS)} {rng.randint(1, 99)}"], []) for _ in range(SESSION_COMMENTS)]
    for n in SESSION_SHORT_PASTES:
        maker = _paste_pipe if n <= 5 and rng.random() < 0.5 else _paste_block
        lines, trees = maker(rng, n)
        entries.append((lines, [(True, "\n".join(lines).strip(), trees)]))
    for target in SESSION_PASTE_BYTES:
        lines, trees = _paste_function(rng, target)
        entries.append((lines, [(True, "\n".join(lines).strip(), trees)]))
    for text in SESSION_SYNTAX_ERRORS:
        entries.append(([text], [(False, text, None)]))
    rng.shuffle(entries)
    tail = ["final <- summarise(df,", "  m = mean(x),"]
    entries.append((tail, [(False, "\n".join(tail), None)]))
    lines = [line for entry_lines, _ in entries for line in entry_lines]
    events = [event for _, entry_events in entries for event in entry_events]
    return {"lines": lines, "events": events}


# --- cli-oneshot --------------------------------------------------------------------

CLI_CALLS = [
    ("parse", ["parse", "a.R", "b.R"], "csv"),
    ("unnest", ["unnest", "--with-depth", "--format", "jsonl", "a.R"], "jsonl"),
    ("classify", ["classify", "--best", "--drop-stopfuncs", "a.R", "b.R"], "csv"),
    ("stats-counts", ["stats", "counts", "--input", "table.csv", "--by", "classification,func", "--sort"], "csv"),
    ("stats-percent", ["stats", "percent", "--input", "table.csv", "--unit", "id"], "csv"),
    ("stats-top", ["stats", "top", "--input", "counts.csv", "--group", "classification", "--n", "3", "--format", "jsonl"], "jsonl"),
    ("fetch", ["fetch", "manifest.txt", "--concurrency", "2"], "csv"),
    ("record-table", ["record", "--table", "--log", "session.jsonl"], "csv"),
]
CLI_SCRIPT_BYTES = {"a.R": 1_400, "b.R": 1_100, "c.R": 800}
CLI_TABLE_ROWS = 400
CLI_UNITS = 12


def naive_counts(rows: list[dict], keys: list[str]) -> list[dict]:
    counts: dict[tuple, int] = {}
    for row in rows:
        key = tuple(row[k] for k in keys)
        counts[key] = counts.get(key, 0) + 1
    items = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [dict(zip(keys, key), n=n) for key, n in items]


def naive_percent(rows: list[dict], unit: str, cls_col: str) -> list[tuple[str, float]]:
    units: dict[str, list[str]] = {}
    for row in rows:
        units.setdefault(row[unit], []).append(row[cls_col])
    shares: dict[str, list[float]] = {}
    for classes in units.values():
        for cls in dict.fromkeys(classes):
            shares.setdefault(cls, []).append(classes.count(cls) / len(classes))
    out = [(cls, 100.0 * sum(v) / len(v)) for cls, v in shares.items()]
    return sorted(out, key=lambda r: (-r[1], r[0]))


def naive_top(rows: list[dict], group: str, n: int) -> list[dict]:
    out = []
    for row in rows:
        same = sorted((int(r["n"]) for r in rows if r[group] == row[group]), reverse=True)
        if int(row["n"]) >= same[min(n, len(same)) - 1]:
            out.append(row)
    return out


def _expr_rows(path: str, exprs: list) -> list[list[str]]:
    return [[path, str(line), rp.CANONICAL.expr(tree)] for line, tree in exprs]


def cli_plan(seed: int, root: Path) -> dict:
    """Input files for one pass of CLI calls, and each call's expected output."""
    rng = random.Random(seed)
    lexicon = Lexicon(root)
    files: dict[str, str] = {}
    exprs: dict[str, list] = {}
    for name, n in CLI_SCRIPT_BYTES.items():
        files[name], exprs[name] = script(random.Random(rng.getrandbits(64)), n)
    files["manifest.txt"] = "# sources to ingest\nc.R\n\na.R  # main script\n"

    classes = sorted({cls for entries in lexicon.by_func.values() for cls, _, _ in entries})
    table = [
        {
            "id": f"u{rng.randint(1, CLI_UNITS)}",
            "func": rng.choice(lexicon.funcs),
            "classification": rng.choice(classes[: rng.randint(1, len(classes))]),
        }
        for _ in range(CLI_TABLE_ROWS)
    ]
    files["table.csv"] = _csv_text(["id", "func", "classification"], [list(r.values()) for r in table])
    counts = naive_counts(table, ["classification", "func"])
    files["counts.csv"] = _csv_text(["classification", "func", "n"], [[r["classification"], r["func"], r["n"]] for r in counts])
    counts_read = [{k: str(v) for k, v in r.items()} for r in counts]

    log_events, table_rows = _session_log(rng)
    files["session.jsonl"] = "".join(json.dumps(e, ensure_ascii=False) + "\n" for e in log_events)

    def calls_of(name):
        return [c for _, tree in exprs[name] for c in rp.calls_preorder(tree)]

    def funcs_of(*names):
        return [f for name in names for f, _, _ in calls_of(name)]

    unnest_rows = []
    for line, tree in exprs["a.R"]:
        for func, cell, depth in rp.calls_preorder(tree):
            unnest_rows.append({"file": "a.R", "line": line, "func": func, "args": cell, "depth": depth})
    expected = {
        "parse": [["file", "line", "text"]] + _expr_rows("a.R", exprs["a.R"]) + _expr_rows("b.R", exprs["b.R"]),
        "unnest": unnest_rows,
        "classify": [["func", "classification", "lexicon"]]
        + [list(p) for p in lexicon.join(funcs_of("a.R", "b.R"), best=True)],
        "stats-counts": [["classification", "func", "n"]] + [[r["classification"], r["func"], str(r["n"])] for r in counts],
        "stats-percent": naive_percent(table, "id", "classification"),
        "stats-top": naive_top(counts_read, "classification", 3),
        "fetch": [["file", "line", "text"]] + _expr_rows("c.R", exprs["c.R"]) + _expr_rows("a.R", exprs["a.R"]),
        "record-table": [["expr", "value", "path", "contents", "selection", "dt"]] + table_rows,
    }
    counts_out = {
        "parser.exprs": len(exprs["a.R"]) + len(exprs["b.R"]),
        "unnest.rows": len(unnest_rows),
        "lexicon.pairs": len(expected["classify"]) - 1,
        "recorder.events": len(table_rows),
    }
    return {"files": files, "calls": CLI_CALLS, "expected": expected, "counts": counts_out,
            "lexed": ["a.R", "b.R", "c.R"]}


def _session_log(rng: random.Random):
    """A recorder log written by hand, and the `record --table` rows for it."""
    events, rows = [], []
    meta = {"version": "0.1.0", "platform": "bench", "value_flag": False}

    def add(kind, text, meta, expr):
        dt = f"2024-03-01T09:{len(events) // 60:02d}:{len(events) % 60:02d}.{rng.randint(0, 999):03d}+00:00"
        events.append({"kind": kind, "dt": dt, "expr_text": text, "meta": meta})
        rows.append([expr, "", "", "", "", dt])

    add("boundary_start", "", meta, "<session info>")
    for i in range(20):
        if i == 11:
            add("expression", "x <- )", {"parsed": False}, "x <- )")
            continue
        tree = compound(rng, 3, depth=1) if i % 7 == 3 else one_line_statement(rng)
        add("expression", rp.NATURAL.expr(tree), {"parsed": True}, rp.CANONICAL.expr(tree))
    add("boundary_stop", "", meta, "<session info>")
    return events, rows


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# --- writing the inputs ------------------------------------------------------------

PROBE_SCRIPT = "cli_probe.R"


def write_inputs(workload: str, seed: int, root: Path, out: Path) -> None:
    """Write every input file of one workload run into `out`."""
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    probe, _ = script(random.Random(rng.getrandbits(64)), 900)
    (out / PROBE_SCRIPT).write_text(probe, encoding="utf-8")
    if workload == "corpus-batch":
        plan = corpus_plan(seed, root)
        for spec in plan["files"] + plan["probes"]:
            text, _ = corpus_file(spec, plan["goldens"])
            (out / spec["path"]).write_text(text, encoding="utf-8")
    elif workload == "session-record":
        lines = session_plan(seed)["lines"]
        (out / "transcript.R").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    elif workload == "cli-oneshot":
        for name, text in cli_plan(seed, root)["files"].items():
            (out / name).write_text(text, encoding="utf-8")
    else:
        raise ValueError(f"unknown workload {workload!r}")

