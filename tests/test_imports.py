"""Every module-level import in the package is used by its module.

A stdlib ``ast`` scan, standing in for a linter's unused-import rule
(F401): ``__init__.py`` re-exports are exempt, and so is an import whose
line carries ``# noqa: F401``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ncfun"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
