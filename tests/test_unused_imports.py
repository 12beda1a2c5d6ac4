"""No module of ``src/repro`` or ``tests`` imports a name it never uses.

A stdlib :mod:`ast` scan, so the check needs no linter. ``__init__.py``
files are skipped: their imports are the package's re-exports. A name
counts as used when the module reads it, lists it in ``__all__``, or
names it inside a string annotation.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TREES = (ROOT / "src" / "repro", ROOT / "tests")


def _imported(tree):
    """``{bound name: line}`` of every import in ``tree``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return used


def unused_imports(source):
    """``[(line, name)]`` of the names ``source`` imports and never uses."""
    tree = ast.parse(source)
    used = _used(tree)
    return sorted((line, name) for name, line in _imported(tree).items() if name not in used)


def test_the_scan_sees_reads_annotations_and_reexports():
    source = (
        "import os, sys\nimport numpy as np\nfrom typing import List, Tuple\n"
        "from a.b import c\n__all__ = ['c']\n"
        "def f(x: 'List[int]') -> None:\n    return os.sep\n"
    )
    assert unused_imports(source) == [(1, "sys"), (2, "np"), (3, "Tuple")]


@pytest.mark.parametrize("tree", TREES, ids=lambda p: p.name)
def test_no_unused_imports(tree):
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted(tree.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert not found, "unused imports:\n" + "\n".join(found)
