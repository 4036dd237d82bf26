"""Rules the code keeps: only the CLI writes to the terminal, and every name
that the library, the demos and the tests import is used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "planeangle"
LIBRARY = sorted(p for p in SRC.glob("*.py") if p.name != "cli.py")
CHECKED = [p for d in (SRC, ROOT / "demos", ROOT / "tests") for p in sorted(d.glob("*.py"))]


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.stem)
def test_library_does_not_print(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call)
             and isinstance(n.func, ast.Name) and n.func.id == "print"]
    assert not calls, "print() in %s at lines %s" % (path.name, calls)


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: "%s/%s" % (p.parent.name, p.stem))
def test_no_unused_imports(path):
    # an import marked "# noqa: F401" is kept on purpose for code that
    # reaches it through the module
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any("# noqa: F401" in l for l in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert not unused, "unused imports in %s: %s" % (path.name, unused)
