"""Every module-level import in the package is used by its module, and
every module-level function, class and constant is named somewhere.

Stdlib ``ast`` scans.  The first stands in for a linter's unused-import
rule (F401): ``__init__.py`` re-exports are exempt, and so is an import
whose line carries ``# noqa: F401``.  The second is a dead-name scan: a
function, class or module-level constant of the package must be named
(read, imported or taken as an attribute) in ``src``, ``tests``,
``bench`` or ``demos`` outside its own definition.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ncfun"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = PACKAGE.parents[1]
SOURCES = sorted(p for d in ("src", "tests", "bench", "demos") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list:
    """``(line, name)`` of each module-level import whose bound name the
    module never reads, noqa-marked lines aside."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            if "noqa: F401" in " ".join(lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_unused_and_marked_imports():
    src = "import os\nimport re  # noqa: F401\nfrom math import pi, tau as t\nprint(pi)\n"
    assert unused_imports(src) == [(1, "os"), (3, "t")]


def _names(tree) -> set:
    """The identifiers a tree reads or binds by name, takes as attributes
    or imports."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.split(".")[-1])
    return out


def _defined(node) -> list:
    """The names a top-level statement defines: a function's or a class's
    own, or the names a module-level assignment binds (its constants)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def named_elsewhere(source: str) -> set:
    """The names ``source`` mentions, each top-level definition's own
    names left out of the names inside it."""
    out = set()
    for node in ast.parse(source).body:
        out |= _names(node) - set(_defined(node))
    return out


def dead_names(defining: dict, sources) -> list:
    """``(module, line, name)`` of each module-level function, class or
    constant of the sources ``defining`` (module name -> text) that none
    of ``sources`` names outside its own definition."""
    named = set().union(*map(named_elsewhere, sources))
    return sorted((module, node.lineno, name) for module, text in defining.items()
                  for node in ast.parse(text).body for name in _defined(node) if name not in named)


def test_no_dead_module_names():
    defining = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_names(defining, [p.read_text() for p in SOURCES]) == []


def test_the_scan_sees_dead_names():
    lib = ("def used():\n    pass\n\ndef recursive(n):\n    return recursive(n - 1)\n\nclass Dead:\n    pass\n"
           "READ = 1\nSTEPS, SPAN = 3, READ\nTYPED: int = 2\nGROWN = 0\nGROWN = GROWN + 1\n")
    user = "from lib import used\nprint(SPAN)\n"
    assert dead_names({"lib.py": lib}, [lib, user]) == [
        ("lib.py", 4, "recursive"), ("lib.py", 7, "Dead"), ("lib.py", 10, "STEPS"), ("lib.py", 11, "TYPED"),
        ("lib.py", 12, "GROWN"), ("lib.py", 13, "GROWN")]
