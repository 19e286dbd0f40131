"""Every module of the package except `__init__.py` uses each name that it
imports.  A removal that leaves an import behind fails here."""

import ast
from pathlib import Path

import rep2ldc


def _unused_imports(source: str) -> list[tuple[str, int]]:
    """(name, line) of every imported name the module never reads.

    A name counts as read when it appears as a Name node, as the root of
    an attribute chain, inside a string annotation, or in `__all__`.
    `from __future__` imports are not names.
    """
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used.update(n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return sorted((name, line) for name, line in imported.items() if name not in used)


def test_every_import_is_used():
    package = Path(rep2ldc.__file__).parent
    offenders = [
        f"{path.name}:{line} imports {name}"
        for path in sorted(package.glob("*.py")) if path.name != "__init__.py"
        for name, line in _unused_imports(path.read_text())
    ]
    assert offenders == []


def test_detects_a_stale_import():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .errors import A, B as C\n"
        "from .linalg import Matrix, Subspace\n"
        "__all__ = ['A']\n"
        "def f(m: 'Matrix') -> int:\n"
        "    return os.path.sep\n"
    )
    assert _unused_imports(source) == [("C", 4), ("Subspace", 5), ("np", 2)]
