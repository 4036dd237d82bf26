"""Rules the code keeps: only the CLI writes to the terminal, no module runs
text as code, every name that the library, the demos and the tests import is
used, every private function or class of the library is called by the
library, every eigsh call of the library passes a start vector, no
module holds a function cache, only the solver loads scipy when it is
imported, and only GridFunction decides whether a field is real."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "planeangle"
LIBRARY = sorted(p for p in SRC.glob("*.py") if p.name != "cli.py")
CHECKED = [p for d in (SRC, ROOT / "demos", ROOT / "tests") for p in sorted(d.glob("*.py"))]


def builtin_calls(path, names):
    """Line numbers of the calls of the built-in functions names in path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name) and n.func.id in names]


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.stem)
def test_library_does_not_print(path):
    calls = builtin_calls(path, ("print",))
    assert not calls, "print() in %s at lines %s" % (path.name, calls)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_text_runs_as_code(path):
    # an expression from a problem file is interpreted from its checked tree
    calls = builtin_calls(path, ("eval", "exec", "compile"))
    assert not calls, "eval, exec or compile in %s at lines %s" % (path.name, calls)


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


def test_private_definitions_are_used_by_the_library():
    # a private top-level function or class that only its own body or the
    # tests reach is code nothing calls
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))]
    nodes = [node for tree in trees for node in tree.body]
    private = [n for n in nodes if isinstance(n, (ast.FunctionDef, ast.ClassDef))
               and n.name.startswith("_") and not n.name.startswith("__")]
    assert private

    def names(node):
        return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))}

    refs = [(node, names(node)) for node in nodes]
    unused = [d.name for d in private
              if not any(d.name in used for node, used in refs if node is not d)]
    assert not unused, "private definitions nothing in the library uses: %s" % unused


def test_every_eigsh_call_passes_a_start_vector():
    # ARPACK starts from a random vector unless v0 is given, so a call
    # without one can give different values for equal inputs
    calls = [(path.name, n.lineno, {k.arg for k in n.keywords})
             for path in sorted(SRC.glob("*.py"))
             for n in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(n, ast.Call) and "eigsh" in (getattr(n.func, "attr", None), getattr(n.func, "id", None))]
    assert calls
    missing = [(name, line) for name, line, keywords in calls if "v0" not in keywords]
    assert not missing, "eigsh calls without v0: %s" % missing


# the pencil's eigenvalues are complex by nature; every field is real or
# complex as its GridFunction stores it
REAL_OR_COMPLEX_DECIDED_IN = {"core", "pencil"}


def test_only_core_decides_whether_a_field_is_real():
    # dtype=complex and x.imag.any() are the two forms of that decision; any
    # other module computes in the dtype of the values it is given
    hits = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem in REAL_OR_COMPLEX_DECIDED_IN:
            continue
        for n in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(n, ast.keyword) and n.arg == "dtype" and "complex" in ast.unparse(n.value):
                hits.append((path.name, n.value.lineno, "dtype=complex"))
            if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "any"
                    and isinstance(n.func.value, ast.Attribute) and n.func.value.attr == "imag"):
                hits.append((path.name, n.lineno, ".imag.any()"))
    assert not hits, "real/complex decisions outside core and pencil: %s" % hits


def test_library_holds_no_function_cache():
    # a module-level memo outlives the objects it describes; a memo lives on
    # its object instead (GridFunction.derived, GreenTestPair.areas)
    caches = {"cache", "lru_cache"}
    hits = [(path.name, n.lineno)
            for path in sorted(SRC.glob("*.py"))
            for n in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(n, ast.ImportFrom) and n.module == "functools"
            and caches & {a.name for a in n.names}
            or isinstance(n, ast.Attribute) and n.attr in caches
            and isinstance(n.value, ast.Name) and n.value.id == "functools"]
    assert not hits, "functools caches in the library: %s" % hits


# importing any other module loads numpy alone: the pencil, the Green check,
# the norms and every CLI subcommand but solve need nothing more
SCIPY_AT_IMPORT = {"sector_solver"}
# (module, function) of each import made inside a function that loads scipy,
# directly or through the solver; a new one is a path that needs it
SCIPY_IN_FUNCTIONS = {
    ("cli", "_expression_problem"),
    ("cli", "_solve_once"),
    ("difference_ops", "column_shift_operator"),
    ("manufactured", "dd_problem"),
    ("manufactured", "nonlocal_problem"),
}


def _loads_scipy(node):
    """True if the import node imports scipy or the solver module."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        names = [node.module or ""] + ["%s.%s" % (node.module or "", a.name) for a in node.names]
    return any(name.split(".")[0] == "scipy" or name.split(".")[-1] == "sector_solver"
               for name in names)


def _scipy_imports(node, function=None):
    """(function or None at module level) of each import under node that loads scipy."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)) and _loads_scipy(child):
            yield function
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from _scipy_imports(child, inner)


def test_only_the_solver_loads_scipy_at_import():
    at_import, in_functions = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for function in _scipy_imports(ast.parse(path.read_text(), filename=str(path))):
            if function is None:
                at_import.add(path.stem)
            else:
                in_functions.add((path.stem, function))
    assert at_import == SCIPY_AT_IMPORT
    assert in_functions == SCIPY_IN_FUNCTIONS
