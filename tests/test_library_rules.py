"""Rules the library modules keep: only the CLI writes to the terminal."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "planeangle"
LIBRARY = sorted(p for p in SRC.glob("*.py") if p.name != "cli.py")


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.stem)
def test_library_does_not_print(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call)
             and isinstance(n.func, ast.Name) and n.func.id == "print"]
    assert not calls, "print() in %s at lines %s" % (path.name, calls)
