"""Spans around calls into codeweft's public functions, from outside the package.

`Tracer.install` replaces each public function listed in `LAYER_API`
with a wrapper, in every loaded codeweft module that holds a reference
to it (so `from .parser import is_complete` in the recorder is wrapped
too). A span is (name, layer, start, end, parent, gc seconds, counts,
request id). Spans stay in memory until the run ends. Garbage-collector
pauses are measured with `gc.callbacks` and charged to the innermost
open span.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import threading
import time
from collections import defaultdict


def _n_matched(pairs) -> int:
    """Tokens with at least one lexicon match (a token's pairs are adjacent)."""
    matched, last = 0, None
    for token, _ in pairs:
        if token is not last:
            matched += 1
            last = token
    return matched


# counts recorded on each span: fn(args, kwargs, result) -> dict
def _text_arg(a, k):
    return a[0] if a else k.get("text", "")


MEASURE = {
    "tokenize": lambda a, k, r: {"bytes": len(_text_arg(a, k).encode()), "tokens": len(r)},
    "parse_program": lambda a, k, r: {"exprs": len(r.exprs), "errors": len(r.errors)},
    "is_complete": lambda a, k, r: {"bytes": len(_text_arg(a, k).encode())},
    "deparse": lambda a, k, r: {"calls": 1, "chars": len(r)},
    "deparse_arg": lambda a, k, r: {"calls": 1, "chars": len(r)},
    "unnest_corpus": lambda a, k, r: {"rows": len(r)},
    "classify": lambda a, k, r: {"tokens": len(a[0]), "matched": _n_matched(r)},
    "remove_stopfuncs": lambda a, k, r: {"dropped": len(a[0]) - len(r)},
    "parse_source_text": lambda a, k, r: {"sources": 1, "bytes": len(a[1].encode())},
    "count_funcs": lambda a, k, r: {"rows_in": len(a[0])},
    "class_percentages": lambda a, k, r: {"rows_in": len(a[0])},
    "top_n_by_group": lambda a, k, r: {"rows_in": len(a[0])},
}

# layer (module in src/codeweft) -> public functions that get spans
LAYER_API = {
    "corpus": ["read_rfiles", "fetch_manifest", "parse_source_text", "recital", "read_manifest"],
    "lexer": ["tokenize"],
    "parser": ["parse_program", "parse_expr", "is_complete"],
    "deparse": ["deparse", "deparse_arg"],
    "unnest": ["unnest_corpus"],
    "lexicon": ["load_classifications", "load_stopfuncs", "classify", "remove_stopfuncs", "best_classifications"],
    "analyze": ["count_funcs", "class_percentages", "top_n_by_group"],
    "recorder": ["record", "read_log", "log_table"],
    "cli": ["main"],
}

NAME, LAYER, START, END, PARENT, GC, INFO, REQ = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = None  # id shared by the spans of one operation
        self._local = threading.local()  # open spans, per thread
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    # --- recording ------------------------------------------------------

    @property
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str) -> int:
        stack = self._stack
        span = [name, layer, time.perf_counter(), 0.0, stack[-1] if stack else None, 0.0, None, self.request]
        with self._lock:
            self.spans.append(span)
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def _on_gc(self, phase: str, info: dict) -> None:
        stack = self._stack
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif stack:
            self.spans[stack[-1]][GC] += time.perf_counter() - self._gc_start

    def wrap(self, layer: str, fn):
        tracer, name, measure = self, fn.__name__, MEASURE.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx)
                info = {"raised": 1}
                if name in ("tokenize", "is_complete"):
                    info["bytes"] = len(_text_arg(args, kwargs).encode())
                tracer.spans[idx][INFO] = info
                raise
            tracer._close(idx)
            if measure is not None:
                tracer.spans[idx][INFO] = measure(args, kwargs, result)
            return result

        return traced

    # --- patching ---------------------------------------------------------

    def install(self) -> "Tracer":
        for layer in LAYER_API:
            importlib.import_module(f"codeweft.{layer}")
        modules = [m for n, m in list(sys.modules.items()) if n == "codeweft" or n.startswith("codeweft.")]
        for layer, names in LAYER_API.items():
            home = sys.modules[f"codeweft.{layer}"]
            for name in names:
                original = getattr(home, name)
                traced = self.wrap(layer, original)
                for module in modules:
                    for attr, val in list(vars(module).items()):
                        if val is original:
                            setattr(module, attr, traced)
                            self._patched.append((module, attr, original))
        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)


def summarize(spans: list[list], passes: int) -> dict:
    """Per-layer metrics from spans, as totals per pass.

    A layer's time counts its outermost spans only (a span whose parent
    is in the same layer is already inside it). Self time subtracts the
    part of a span that its child spans cover; GC time is charged to the
    innermost span, so it is already "self".
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[END] - s[START]
    total = defaultdict(float)
    self_s = defaultdict(float)
    gc_s = defaultdict(float)
    by_name = defaultdict(float)
    self_by_name = defaultdict(float)
    info = defaultdict(float)
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        layer, name = s[LAYER], s[NAME]
        parent = s[PARENT]
        if parent is None or spans[parent][LAYER] != layer:
            total[layer] += dur
        self_s[layer] += dur - child[i]
        gc_s[layer] += s[GC]
        by_name[name] += dur
        self_by_name[name] += dur - child[i]
        for key, val in (s[INFO] or {}).items():
            info[f"{name}.{key}"] += val
        if name == "is_complete" and parent is not None and spans[parent][NAME] == "record":
            info["recorder.rescanned_bytes"] += (s[INFO] or {}).get("bytes", 0)
    n = max(passes, 1)

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    classify_tokens = info["classify.tokens"]
    return {
        "lexer.tokenize_s": total["lexer"] / n,
        "lexer.mb_s": rate(info["tokenize.bytes"] / 1e6, total["lexer"]),
        "lexer.tokens_per_s": rate(info["tokenize.tokens"], total["lexer"]),
        "lexer.tokens_scanned": info["tokenize.tokens"] / n,
        "lexer.gc_s": gc_s["lexer"] / n,
        "parser.parse_s": total["parser"] / n,
        "parser.self_s": self_s["parser"] / n,
        "parser.errors": (info["parse_program.errors"] + info["is_complete.raised"]) / n,
        "parser.exprs_per_s": rate(info["parse_program.exprs"], total["parser"]),
        "parser.gc_s": gc_s["parser"] / n,
        "deparse.s": total["deparse"] / n,
        "deparse.exprs": (info["deparse.calls"] + info["deparse_arg.calls"]) / n,
        "deparse.kb_s": rate((info["deparse.chars"] + info["deparse_arg.chars"]) / 1e3, total["deparse"]),
        "unnest.s": total["unnest"] / n,
        "unnest.rows_per_s": rate(info["unnest_corpus.rows"], total["unnest"]),
        "unnest.gc_s": gc_s["unnest"] / n,
        "lexicon.classify_s": (by_name["classify"] + by_name["best_classifications"]) / n,
        "lexicon.stopfuncs_s": by_name["remove_stopfuncs"] / n,
        "lexicon.dropped": info["remove_stopfuncs.dropped"] / n,
        "lexicon.coverage": info["classify.matched"] / classify_tokens if classify_tokens else 0.0,
        "lexicon.gc_s": gc_s["lexicon"] / n,
        "analyze.counts_s": by_name["count_funcs"] / n,
        "analyze.percent_s": by_name["class_percentages"] / n,
        "analyze.top_s": by_name["top_n_by_group"] / n,
        "analyze.rows_in": (info["count_funcs.rows_in"] + info["class_percentages.rows_in"]
                            + info["top_n_by_group.rows_in"]) / n,
        "corpus.read_s": (self_s["corpus"] - self_by_name["fetch_manifest"]) / n,
        "corpus.sources": info["parse_source_text.sources"] / n,
        "corpus.bytes": info["parse_source_text.bytes"] / n,
        "corpus.fetch_s": by_name["fetch_manifest"] / n,
        "recorder.record_s": by_name["record"] / n,
        "recorder.log_table_s": by_name["log_table"] / n,
        "recorder.rescanned_bytes": info["recorder.rescanned_bytes"] / n,
        "cli.main_s": by_name["main"] / n,
    }
