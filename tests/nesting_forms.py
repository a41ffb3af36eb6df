"""Each form of nested expression, n levels deep.

Every level is one more nested expression. The parser's nesting-cap tests
and tools/parse_diff.py both build their inputs from this table.
"""

NESTED = {
    "parens": lambda n: "(" * n + "x" + ")" * n,
    "braces": lambda n: "{" * n + "x" + "}" * n,
    "calls": lambda n: "f(" * n + "x" + ")" * n,
    "indexing": lambda n: "x[" * n + "1" + "]" * n,
    "double-indexing": lambda n: "x[[" * n + "1" + "]]" * n,
    "unary-minus": lambda n: "-" * n + "x",
    "not": lambda n: "!" * n + "x",
    "if": lambda n: "if (a) " * n + "x",
    "else-if": lambda n: "if (a) b else " * n + "x",
    "function": lambda n: "function(a) " * n + "x",
    "assignment": lambda n: "x <- " * n + "1",
    "power": lambda n: "2^" * n + "x",
}
