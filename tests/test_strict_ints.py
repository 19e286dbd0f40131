"""The Python entry points take integers only.  A float, a bool or a numeric
string where an int is expected raises ValueError naming the argument, where
int() would truncate or parse it and build something else; numpy integers
pass.  The CLI maps that ValueError to exit 1."""

import re

import numpy as np
import pytest

from rep2ldc import cli
from rep2ldc.construct import build_q_ldc, build_special_2ldc, lambda_variant
from rep2ldc.fields import GF, Field
from rep2ldc.fixtures import signed_shift_group
from rep2ldc.groups import close_group

# site -> (the argument's name in the message, a call that passes x there)
SITES = {
    "build_special_2ldc": ("h", lambda g, x: build_special_2ldc(g, x)),
    "lambda_variant": ("h", lambda g, x: lambda_variant(g, x, 1)),
    "build_q_ldc": ("hs[1]", lambda g, x: build_q_ldc(g, [1, x], [1, 1])),
    "Field": ("char", lambda g, x: Field(x)),
    "close_group": ("cap", lambda g, x: close_group([g.matrix(1)], cap=x)),
    "fixture cap": ("cap", lambda g, x: signed_shift_group(4, 3, cap=x)),
}
# each of these once int() took: 1.7 -> 1, True -> 1, "5" -> 5, 5.0 -> 5
NOT_INTEGERS = [1.7, True, "5", 5.0, np.float64(5.0), np.bool_(True)]


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("site", list(SITES))
def test_non_integer_refused(signed_shift_4_3, site, value):
    name, call = SITES[site]
    message = f"^{re.escape(name)} must be an integer, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        call(signed_shift_4_3, value)


def test_numpy_integers_accepted(signed_shift_4_3):
    g = signed_shift_4_3
    h = np.int64(g.generators[0])
    assert build_special_2ldc(g, h).hs == build_special_2ldc(g, int(h)).hs
    assert build_q_ldc(g, [np.int32(1), np.uint8(0)], [1, 1]).hs == (1, 0)
    assert Field(np.int64(5)) == GF(5)
    assert len(close_group([g.matrix(1)], cap=np.int16(2))) == 2
    assert len(signed_shift_group(4, 3, cap=np.int64(64))) == 64


def test_refusal_exits_1(monkeypatch, capsys):
    def fail(args):
        Field(3.7)

    monkeypatch.setattr(cli, "cmd_rank_scan", fail)
    assert cli.main(["rank-scan", "--fixture", "signed_shift(4,3)"]) == 1
    assert capsys.readouterr().err == "error: char must be an integer, got 3.7\n"
