"""codeweft: treat R source code as data.

Parse R scripts into expression trees, flatten calls into tidy
function/argument rows, classify functions against scored lexicons, and
compute corpus-level statistics.
"""

from .deparse import deparse
from .parser import parse_expr, parse_program
from .rast import Arg, Call, Expr, LogicalLit, NullLit, NumLit, SrcSpan, StringLit, SymbolRef

__version__ = "0.1.0"

__all__ = [
    "Arg",
    "Call",
    "Expr",
    "LogicalLit",
    "NullLit",
    "NumLit",
    "SrcSpan",
    "StringLit",
    "SymbolRef",
    "deparse",
    "parse_expr",
    "parse_program",
    "__version__",
]
