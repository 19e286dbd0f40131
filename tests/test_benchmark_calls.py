"""The benchmark's calls into the library.  The suite collects only tests/,
so this imports perfbench/tracer.py and perfbench/workloads.py the way
perfbench/test_perfbench.py does: a library change that breaks a hooked
name or the benchmark's group copy fails here too."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import LADDER

from rep2ldc import _kernels
from rep2ldc.fixtures import parse_fixture

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402


def test_every_hooked_name_exists():
    missing = [f"{kind} {name}: {owner.__name__}.{attr}"
               for kind, name, owner, attr, _ in tracer.library_hooks()
               if not hasattr(owner, attr)]
    assert missing == []


def test_every_kernel_case_name_exists():
    """kernel_cases.py reads the kernels as `K.<name>`; a kernel that the
    library stops calling fails here, not only under pytest perfbench."""
    tree = ast.parse((PERFBENCH / "kernel_cases.py").read_text())
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "K"}
    assert "count_nonzero_dots_np" in names
    assert sorted(name for name in names if not hasattr(_kernels, name)) == []


@pytest.mark.parametrize("spec", LADDER)
def test_fresh_copy_is_the_group(spec):
    g = parse_fixture(spec)
    copy = workloads.fresh(g)
    assert copy is not g and copy.generators == g.generators
    assert np.array_equal(copy.stacked(), g.stacked())
    for ours, theirs in zip(copy._cayley()[:3], g._cayley()[:3]):  # right, parent, last
        assert np.array_equal(ours, theirs)
    assert copy.words == g.words
