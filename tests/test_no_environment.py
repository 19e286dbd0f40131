"""The library reads no environment variable: the element cap and every
other setting come from arguments, flags and files, so an environment
knob cannot creep back into a module under src/rep2ldc."""

import ast
from pathlib import Path

import rep2ldc

ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(source: str) -> list[int]:
    """Line of every `x.environ`/`x.getenv` attribute and every
    `from os import environ`/`getenv`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES:
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found.extend(node.lineno for alias in node.names if alias.name in ENVIRONMENT_NAMES)
    return sorted(found)


def test_no_module_reads_the_environment():
    package = Path(rep2ldc.__file__).parent
    offenders = [
        f"{path.name}:{line}"
        for path in sorted(package.rglob("*.py"))
        for line in _environment_reads(path.read_text())
    ]
    assert offenders == []


def test_detects_an_environment_read():
    source = ("import os\nfrom os import getenv\n"
              "def cap():\n    return os.environ.get('CAP') or os.getenv('CAP')\n")
    assert _environment_reads(source) == [2, 4, 4]
