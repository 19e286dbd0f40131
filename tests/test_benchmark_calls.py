"""The benchmark's calls into the library.  The suite collects only tests/,
so this imports perfbench/tracer.py and perfbench/workloads.py the way
perfbench/test_perfbench.py does: a library change that breaks a hooked
name or the benchmark's group copy fails here too."""

import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import LADDER

from rep2ldc.fixtures import parse_fixture

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def test_every_hooked_name_exists():
    missing = [f"{kind} {name}: {owner.__name__}.{attr}"
               for kind, name, owner, attr, _ in tracer.library_hooks()
               if not hasattr(owner, attr)]
    assert missing == []


@pytest.mark.parametrize("spec", LADDER)
def test_fresh_copy_is_the_group(spec):
    g = parse_fixture(spec)
    copy = workloads.fresh(g)
    assert copy is not g and copy.generators == g.generators
    assert np.array_equal(copy.stacked(), g.stacked())
    for ours, theirs in zip(copy._cayley()[:3], g._cayley()[:3]):  # right, parent, last
        assert np.array_equal(ours, theirs)
    assert copy.words == g.words
