"""The GF(p)/QQ split lives behind Field (fields.py), linalg.py and the
kernels.  Any other module reads `.char` only in the functions named here,
so a new per-field twin of an array path fails this test."""

import ast
from pathlib import Path

import rep2ldc

SPLIT_MODULES = {"fields.py", "linalg.py", "_kernels.py", "fixtures.py"}
ALLOWED = {
    "choose_z",                 # exhaustive or seeded scan over GF(p), lattice search over QQ
    "verify_cert",              # the surviving-fraction message differs by field
}


def _char_reads(source: str) -> list[tuple[str | None, int]]:
    """(innermost enclosing function, line) of every `.char` attribute."""
    found = []

    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                else func
            if isinstance(child, ast.Attribute) and child.attr == "char":
                found.append((func, child.lineno))
            walk(child, inner)

    walk(ast.parse(source), None)
    return found


def test_char_read_only_where_allowed():
    package = Path(rep2ldc.__file__).parent
    offenders = [
        f"{path.name}:{line} in {func}"
        for path in sorted(package.glob("*.py")) if path.name not in SPLIT_MODULES
        for func, line in _char_reads(path.read_text())
        if func not in ALLOWED
    ]
    assert offenders == []


def test_detects_a_twin():
    twin = "def f(field, a):\n    return a % field.char if field.char else a\n"
    assert _char_reads(twin) == [("f", 2), ("f", 2)]
