"""The package imports itself only relatively.

No module under ``src/dustcocycle`` names the package in an import, so a copy
of the package under another name imports beside the original, each copy
reading its own modules: this is what lets one process hold two trees side
by side, for instance to compare two versions pass against pass.

Importing it pulls in neither ``concurrent.futures`` nor ``logging``: a sum
runs its tasks on plain threads, and the two modules cost several ms of
every process's start.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dustcocycle"
SOURCES = sorted(PACKAGE.glob("*.py"))


def absolute_self_imports(tree):
    """(line, module) of every ``import dustcocycle...`` and
    ``from dustcocycle... import`` in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        for name in names:
            if name == "dustcocycle" or name.startswith("dustcocycle."):
                yield node.lineno, name


def test_sources_found():
    assert "__init__.py" in {p.name for p in SOURCES} and len(SOURCES) > 1


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_absolute_self_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert list(absolute_self_imports(tree)) == []


@pytest.mark.parametrize("source, found", [
    ("import dustcocycle", [(1, "dustcocycle")]),
    ("import numpy, dustcocycle.oracle as o", [(1, "dustcocycle.oracle")]),
    ("from dustcocycle import cocycle", [(1, "dustcocycle")]),
    ("def f():\n    from dustcocycle._kernels import BLOCK", [(2, "dustcocycle._kernels")]),
    ("from . import cocycle\nfrom .oracle import bott_projection", []),
    ("import dustcocycle_parent\nfrom dustcocyclex import y", []),
])
def test_checker_finds_absolute_self_imports(source, found):
    assert list(absolute_self_imports(ast.parse(source))) == found


def test_import_pulls_in_no_executor_or_logging():
    """In a fresh interpreter with ``src/`` on the path, ``import
    dustcocycle`` leaves ``concurrent.futures`` and ``logging`` out of
    ``sys.modules``."""
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import dustcocycle; "
             "print(dustcocycle.__file__); "
             "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe, str(PACKAGE.parent)],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out == [str(PACKAGE / "__init__.py"), "[]"]
