"""Static checks over the library sources: every imported name is used, every
public function and class has a user, and no correctness check is an
``assert`` (``python -O`` would strip it)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "deltailp"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# where a library name may be used
USERS = ("src", "tests", "perfbench", "scripts")


def imported_names(tree):
    """(name, line) for every name an import statement binds, other than
    those of ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in loaded]
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert(path):
    tree = ast.parse(path.read_text())
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


def names_used(tree, skip=range(0)):
    """Every identifier that a name, an attribute access or an import in
    ``tree`` spells, outside the source lines in ``skip``."""
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) in skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_public_name_is_referenced():
    trees = {p: ast.parse(p.read_text()) for d in USERS for p in (ROOT / d).rglob("*.py")}
    used = {p: set(names_used(tree)) for p, tree in trees.items()}
    unused = []
    for path in MODULES:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            own = set(names_used(trees[path], range(node.lineno, node.end_lineno + 1)))
            if node.name not in own and all(node.name not in u for p, u in used.items() if p != path):
                unused.append(f"{path.name}: {node.name}")
    assert unused == []
