"""codeweft: treat R source code as data.

Parse R scripts into expression trees, flatten calls into tidy
function/argument rows, classify functions against scored lexicons, and
compute corpus-level statistics.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

_RAST = ["Arg", "Call", "Expr", "LogicalLit", "NullLit", "NumLit", "SrcSpan", "StringLit", "SymbolRef"]
_HOMES = {**dict.fromkeys(_RAST, "rast"), "parse_expr": "parser", "parse_program": "parser"}

__all__ = [*_HOMES, "deparse", "__version__"]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)


class _Package(types.ModuleType):
    # `deparse` is also a submodule, and importing it binds it here; the function wins
    @property
    def deparse(self):
        return importlib.import_module(".deparse", __name__).deparse

    @deparse.setter
    def deparse(self, module):
        pass


sys.modules[__name__].__class__ = _Package
