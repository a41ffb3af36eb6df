"""The package's public names: lazily resolved, and the same objects as in
their home modules whatever was imported first.

`deparse` names both a function and a submodule, and importing the
submodule sets the package attribute of that name, so every check runs in
a fresh interpreter after the submodules have been imported in some order.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import codeweft

SRC_DIR = Path(codeweft.__file__).resolve().parent
SUBMODULES = sorted(p.stem for p in SRC_DIR.glob("*.py") if p.stem != "__init__")
HOMES = {"deparse": "deparse", "parse_expr": "parser", "parse_program": "parser"}

CHECK = """
import importlib, sys, types
for name in sys.argv[1:]:
    importlib.import_module("codeweft." + name)
import codeweft
from codeweft import deparse
assert isinstance(deparse, types.FunctionType), deparse
homes = {homes!r}
for name in codeweft.__all__:
    home = sys.modules["codeweft"] if name == "__version__" else importlib.import_module(
        "codeweft." + homes.get(name, "rast"))
    assert getattr(codeweft, name) is getattr(home, name), name
star = {{}}
exec("from codeweft import *", star)
assert set(codeweft.__all__) <= set(star), set(codeweft.__all__) - set(star)
assert star["deparse"] is sys.modules["codeweft.deparse"].deparse
try:
    codeweft.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")
""".format(homes=HOMES)


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR.parent))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize(
    "order", [[], SUBMODULES, SUBMODULES[::-1], ["deparse"]], ids=["none", "sorted", "reversed", "deparse"]
)
def test_public_names_are_their_home_objects_after_any_import_order(order):
    proc = run_python("-c", CHECK, *order)
    assert proc.returncode == 0, proc.stderr


def test_bare_import_loads_no_submodule():
    proc = run_python("-c", "import sys, codeweft; print(sorted(m for m in sys.modules if 'codeweft.' in m))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

