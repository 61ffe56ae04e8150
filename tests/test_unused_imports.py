"""Every module of the package uses each name it imports.

A static check by the standard ``ast`` module: a name bound by an import
statement counts as used when the module reads it as a name (attribute
chains included, as ``np`` in ``np.zeros``) or lists it in ``__all__``.
``from __future__`` imports and the re-exporting ``__init__.py`` are
skipped.
"""

import ast
from pathlib import Path

import pytest

import hyperwave

MODULES = sorted(p for p in Path(hyperwave.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names imported by ``source`` that it never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_check_finds_unused_names():
    source = ("from __future__ import annotations\nimport math\nimport os.path\n"
              "from .errors import WrongSystem, DimensionMismatch as DM\n"
              "__all__ = ['DM']\nx = os.path.join('a')\n")
    assert unused_imports(source) == ["math", "WrongSystem"]
