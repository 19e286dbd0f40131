"""The Python entry points take integers only.  A float, a bool or a numeric
string where an int is expected raises ValueError naming the argument, where
int() would truncate or parse it and build something else; numpy integers
pass.  The CLI maps that ValueError to exit 1.  Field scalars are ints,
numpy integers or Fractions, and a writer writes only what its reader
accepts.  A seed is also at least 0, in a call and in a certificate."""

import dataclasses
import json
import re
from fractions import Fraction

import numpy as np
import pytest

from rep2ldc import cli, construct
from rep2ldc.certcheck import cert_from_json
from rep2ldc.construct import build_q_ldc, build_special_2ldc, choose_z, lambda_variant
from rep2ldc.errors import ParseError
from rep2ldc.fields import GF, QQ, Field
from rep2ldc.fixtures import signed_shift_group
from rep2ldc.groups import close_group
from rep2ldc.ldc import QMatching, hadamard
from rep2ldc.serialize import canonical_json, cert_to_json, ldc_from_json, ldc_to_json

# site -> (the argument's name in the message, a call that passes x there)
SITES = {
    "build_special_2ldc": ("h", lambda g, x: build_special_2ldc(g, x)),
    "lambda_variant": ("h", lambda g, x: lambda_variant(g, x, 1)),
    "build_q_ldc": ("hs[1]", lambda g, x: build_q_ldc(g, [1, x], [1, 1])),
    "Field": ("char", lambda g, x: Field(x)),
    "close_group": ("cap", lambda g, x: close_group([g.matrix(1)], cap=x)),
    "fixture cap": ("cap", lambda g, x: signed_shift_group(4, 3, cap=x)),
    "build_special_2ldc seed": ("seed", lambda g, x: build_special_2ldc(g, 1, seed=x)),
    "lambda_variant seed": ("seed", lambda g, x: lambda_variant(g, 1, 1, seed=x)),
    "build_q_ldc seed": ("seed", lambda g, x: build_q_ldc(g, [1, 0], [1, -1], seed=x)),
    "choose_z seed": ("seed", lambda g, x: choose_z(GF(3), np.ones((1, 2), np.int64), seed=x)),
    "LdcInstance t": ("t", lambda g, x: dataclasses.replace(hadamard(2, GF(3)), t=x)),
    "LdcInstance m": ("m", lambda g, x: dataclasses.replace(hadamard(2, GF(3)), m=x)),
    "LdcInstance q": ("q", lambda g, x: dataclasses.replace(hadamard(2, GF(3)), q=x)),
    "QMatching q": ("q", lambda g, x: QMatching(x, [(0, 1)])),
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


@pytest.mark.parametrize("q, sets", [(2.0, [(0, 1)]), ("2", [(0, 1)]), (True, [(0,)])], ids=repr)
def test_matching_arity_refusal_exits_1(monkeypatch, capsys, q, sets):
    """A float, string or bool q once raised a bare TypeError from the set
    rule; it is refused by name before the rule runs."""
    def fail(args):
        QMatching(q, sets)

    monkeypatch.setattr(cli, "cmd_rank_scan", fail)
    assert cli.main(["rank-scan", "--fixture", "signed_shift(4,3)"]) == 1
    assert capsys.readouterr().err == f"error: q must be an integer, got {q!r}\n"


@pytest.mark.parametrize("value", [-5, np.int64(-1)], ids=repr)
@pytest.mark.parametrize("site", [site for site in SITES if site.endswith(" seed")])
def test_negative_seed_refused_before_any_work(monkeypatch, signed_shift_4_3, site, value):
    """A negative seed once built a certificate (exhaustive and lattice z)
    or failed inside numpy's generator (randomized z); it is refused by
    name before the pipeline starts."""
    def never(*args):
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr(construct, "_prepare", never)
    call = SITES[site][1]
    with pytest.raises(ValueError, match=rf"^seed must be non-negative, got {int(value)}$"):
        call(signed_shift_4_3, value)


def test_negative_seed_exits_1(capsys):
    argv = ["construct", "--fixture", "symmetric(6,11)", "--special2", "--h", "1", "--seed", "-3"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: seed must be non-negative, got -3\n"


def test_negative_seed_in_a_document_refused(signed_shift_4_3):
    doc = json.loads(canonical_json(cert_to_json(build_special_2ldc(signed_shift_4_3, 1))))
    doc["seed"] = -5
    with pytest.raises(ParseError, match=r"^seed must be non-negative, got -5$"):
        cert_from_json(doc)


def test_numpy_integer_seed_writes_the_int_seed_bytes(signed_shift_4_3):
    """A numpy-integer seed is kept as an int: the certificate's bytes are
    those of the equal int seed, where json.dumps refused np.int64."""
    g = signed_shift_4_3
    for build in (lambda seed: build_special_2ldc(g, 1, seed=seed),
                  lambda seed: lambda_variant(g, 1, 2, seed=seed),
                  lambda seed: build_q_ldc(g, [1, 0], [1, -1], seed=seed)):
        cert = build(np.int64(3))
        assert type(cert.seed) is int
        assert canonical_json(cert_to_json(cert)) == canonical_json(cert_to_json(build(3)))


def test_ldc_instance_keeps_ints_and_exact_densities():
    inst = dataclasses.replace(hadamard(2, GF(3)), t=np.int64(2), m=np.int32(4), q=np.uint8(2))
    assert all(type(x) is int for x in (inst.t, inst.m, inst.q))
    doc = json.loads(json.dumps(ldc_to_json(inst)))
    assert ldc_from_json(doc) == hadamard(2, GF(3))
    for delta in (0, Fraction(1, 4)):
        assert dataclasses.replace(inst, claimed_delta=delta).claimed_delta == delta


@pytest.mark.parametrize("value", [0.25, "1/4", True, np.float64(0.25), None], ids=repr)
def test_inexact_claimed_delta_refused(value):
    message = f"^claimed_delta must be an int or a Fraction, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(hadamard(2, GF(3)), claimed_delta=value)


# each of these once became a scalar: int(2.9) = 2, int("2") = 2, int(True) = 1,
# and over QQ Fraction(2.9) = 6530219459687219/2251799813685248
NOT_SCALARS = [2.9, "2", True, np.float64(2.0), np.bool_(False), None, "1/2"]


@pytest.mark.parametrize("value", NOT_SCALARS, ids=repr)
@pytest.mark.parametrize("field", [GF(5), GF(2147483647), QQ], ids=repr)
def test_field_scalar_must_be_exact(field, value):
    message = f"^scalar {re.escape(repr(value))} is not an integer or a Fraction$"
    with pytest.raises(ValueError, match=message):
        field.canon(value)


@pytest.mark.parametrize("value, residue", [
    (7, 2), (-3, 2), (np.int64(7), 2), (np.uint8(3), 3), (Fraction(3, 2), 4), (Fraction(4), 4),
], ids=repr)
def test_field_scalars_accepted(value, residue):
    assert GF(5).canon(value) == residue and type(GF(5).canon(value)) is int
    assert QQ.canon(value) == Fraction(value) and type(QQ.canon(value)) is Fraction


def test_builder_scalars_refused(signed_shift_4_3):
    g = signed_shift_4_3
    with pytest.raises(ValueError, match=r"^scalar 2\.9 is not an integer or a Fraction$"):
        lambda_variant(g, 1, 2.9)
    with pytest.raises(ValueError, match=r"^scalar 1\.7 is not an integer or a Fraction$"):
        build_q_ldc(g, [1, 0], [1.7, "2"])
    assert lambda_variant(g, 1, np.int64(2)).lam == lambda_variant(g, 1, 2).lam == 2
