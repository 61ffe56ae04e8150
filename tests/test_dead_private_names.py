"""Every private name the package defines is read somewhere in it.

A static check by the standard ``ast`` module, beside the unused-import
check: a private function, class, constant or method (a name with one
leading underscore, defined at module or class level in
``src/hyperwave``) counts as read when some module of the package reads
it as a name, as an attribute or by importing it.  A helper whose last
caller is gone fails here, not in review.
"""

import ast
from pathlib import Path

import hyperwave

MODULES = sorted(Path(hyperwave.__file__).parent.glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_definitions(tree: ast.Module) -> list[str]:
    """The private names ``tree`` defines at module level and in the bodies
    of its module-level classes: functions, classes and assigned names."""
    names = []
    scopes = [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
    for body in scopes:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names += [t.id for target in targets for t in ast.walk(target)
                          if isinstance(t, ast.Name)]
    return [name for name in names if _is_private(name)]


def names_read(tree: ast.Module) -> set[str]:
    """The names ``tree`` reads: loaded names and attributes, and the names
    its ``from`` imports bind."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return read


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """'module: name' for each private name defined in ``sources`` (module
    name to source text) that none of them reads, in module order."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set().union(*map(names_read, trees.values()))
    return [f"{module}: {name}" for module, tree in trees.items()
            for name in private_definitions(tree) if name not in read]


def test_package_reads_every_private_name():
    sources = {path.name: path.read_text() for path in MODULES}
    assert dead_private_names(sources) == []


def test_check_finds_dead_names():
    sources = {
        "a.py": ("_LIMIT = 3\n_unused_constant = 4\n"
                 "def _helper():\n    return _LIMIT\n"
                 "def _orphan():\n    return 0\n"
                 "class _Kept:\n    def _used(self):\n        return 1\n"
                 "    def _dead(self):\n        return self._used()\n"
                 "    def __len__(self):\n        return 0\n"),
        "b.py": "from .a import _helper, _Kept\n_helper()\n",
    }
    assert dead_private_names(sources) == ["a.py: _unused_constant", "a.py: _orphan",
                                           "a.py: _dead"]
