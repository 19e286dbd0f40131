import dataclasses
import hashlib
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import rep2ldc
from rep2ldc import cli
from rep2ldc.cli import main
from rep2ldc.errors import CapExceeded, ParseError, Rep2LdcError
from rep2ldc.fields import GF, QQ
from rep2ldc.fixtures import parse_fixture
from rep2ldc.groups import close_group
from rep2ldc.ldc import hadamard
from rep2ldc.linalg import Matrix
from rep2ldc.serialize import dump_json, ldc_to_json, load_json


def shift_only_spec(tmp_path):
    field = GF(3)
    shift = Matrix(field, [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    group = close_group([shift])
    path = tmp_path / "shift_only.json"
    dump_json(group.spec_json(), str(path))
    return group, str(path)


class TestExitCodes:
    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["verify", "--input", str(bad)]) == 1

    def test_cap_exceeded(self):
        assert main(["rank-scan", "--fixture", "signed_shift(4,3)", "--cap", "10"]) == 2

    @pytest.mark.parametrize("fixture", ["signed_shift(100000000000000000001,3)",
                                         "symmetric(100000000000000000001,5)"])
    def test_oversized_fixture_refused_before_building(self, fixture, capsys):
        assert main(["rank-scan", "--fixture", fixture]) == 2
        assert capsys.readouterr().err.startswith("error: group closure exceeded cap")

    def test_degenerate_identity(self):
        assert main(["construct", "--fixture", "signed_shift(4,3)",
                     "--special2", "--h", "0"]) == 4

    def test_orbit_does_not_span(self, tmp_path):
        group, path = shift_only_spec(tmp_path)
        shift_pos = group.generators[0]
        out = tmp_path / "cert.json"
        rc = main(["construct", "--input", path, "--special2",
                   "--h", str(shift_pos), "--output", str(out)])
        assert rc == 5

    def test_missing_group_source(self):
        assert main(["rank-scan"]) == 1

    @pytest.mark.parametrize("argv", [
        ["fixtures", "export", "--fixture", "signed_shift(4,2)"],
        ["fixtures", "export", "--fixture", "dihedral(4,7)"],
        ["rank-scan", "--fixture", "signed_shift(4,2)"],
        ["rank-scan", "--fixture", "dihedral(4,7)"],
        ["rank-scan", "--fixture", "symmetric(5,5)"],
        ["demo", "--field", "2"],
    ])
    def test_unsuitable_fixture_field_is_a_parse_error(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def bad_inputs(tmp_path_factory):
    """A group spec and a certificate, each with a singular generator;
    group specs with a cap of -3 and of 0, and of dimension 0 with one
    0 x 0 generator; LDC files with an empty code, a
    numeric density, an index beyond int64 or q = m + 1 (no q distinct
    positions exist); certificates with a numeric
    achieved density and with R = 0 (Y, X and every hat_w of width 0)."""
    tmp = tmp_path_factory.mktemp("bad")
    field = {"char": 3}
    zero = {"field": field, "rows": 2, "cols": 2, "entries": [[0, 0], [0, 0]]}
    spec = tmp / "singular_group.json"
    dump_json({"field": field, "dim": 2, "generators": [zero]}, str(spec))
    ident = {**zero, "entries": [[1, 0], [0, 1]]}
    for name, cap in [("spec_cap_negative", -3), ("spec_cap_zero", 0)]:
        dump_json({"field": field, "dim": 2, "generators": [ident], "cap": cap},
                  str(tmp / f"{name}.json"))
    empty = {"field": field, "rows": 0, "cols": 0, "entries": []}
    dump_json({"field": field, "dim": 0, "generators": [empty]}, str(tmp / "spec_dim_zero.json"))
    cert = tmp / "singular_cert.json"
    assert main(["construct", "--fixture", "signed_shift(4,3)", "--special2",
                 "--h", "1", "--output", str(cert)]) == 0
    doc = load_json(str(cert))
    doc["achieved_delta"] = 0.5
    paths = {"group": str(spec), "cert": str(cert),
             "cert_delta": str(tmp / "cert_delta.json"),
             "spec_cap_negative": str(tmp / "spec_cap_negative.json"),
             "spec_cap_zero": str(tmp / "spec_cap_zero.json"),
             "spec_dim_zero": str(tmp / "spec_dim_zero.json")}
    dump_json(doc, paths["cert_delta"])
    doc["achieved_delta"] = str(doc["achieved_delta"])
    family = {**doc["family"], "hat_w": [[]] * len(doc["family"]["hat_w"])}
    rank_zero = {**doc, "R": 0, "family": family}
    for name in ("Y", "X"):
        rank_zero[name] = {**doc[name], "cols": 0, "entries": [[]] * doc[name]["rows"]}
    paths["cert_rank_zero"] = str(tmp / "cert_rank_zero.json")
    dump_json(rank_zero, paths["cert_rank_zero"])
    gen = doc["group"]["generators"][0]
    gen["entries"] = [[0] * gen["cols"] for _ in range(gen["rows"])]
    dump_json(doc, str(cert))
    changes = {
        "ldc_t0": {"t": 0, "vectors": [[]] * 4, "matchings": []},
        "ldc_m0": {"m": 0, "vectors": [], "matchings": [[], []]},
        "ldc_delta": {"claimed_delta": 0.5},
        "ldc_index": {"matchings": [[[0, 2**70]], []]},
        "ldc_q_past_m": {"form": "general", "q": 5, "matchings": [[], []]},
    }
    for name, change in changes.items():
        paths[name] = str(tmp / f"{name}.json")
        dump_json({**ldc_to_json(hadamard(2, GF(3))), **change}, paths[name])
    return paths


SS43 = ["--fixture", "signed_shift(4,3)"]


@pytest.mark.parametrize("argv", [
    ["rank-scan", "--input", "{group}"],
    ["construct", "--input", "{group}", "--special2", "--h", "1"],
    ["verify", "--input", "{cert}"],
    ["construct", *SS43, "--special2", "--h", "999"],
    ["construct", *SS43, "--special2", "--h", "-1"],
    ["construct", *SS43, "--q", "2", "--hs", "1,1000", "--alphas", "1,2"],
    ["construct", *SS43, "--q", "2", "--hs", "1,0", "--alphas", "1/3,2"],
    ["construct", *SS43, "--lambda", "1/3", "--h", "1"],
    ["construct", *SS43, "--q", "2", "--hs", "1,2", "--alphas", "1/0,1"],
    ["construct", *SS43, "--lambda", "1/0", "--h", "1"],
    ["construct", *SS43, "--q", "2", "--hs", "3/2,0", "--alphas", "1,2"],
    ["verify", "--input", "{ldc_t0}"],
    ["verify", "--input", "{ldc_m0}"],
    ["verify", "--input", "{ldc_delta}"],
    ["verify", "--input", "{ldc_index}"],
    ["verify", "--input", "{ldc_q_past_m}"],
    ["verify", "--input", "{cert_delta}"],
    ["verify", "--input", "{cert_rank_zero}"],
    ["rank-scan", *SS43, "--cap", "0"],
    ["rank-scan", *SS43, "--cap", "-1"],
    ["rank-scan", "--input", "{spec_cap_negative}"],
    ["rank-scan", "--input", "{spec_cap_zero}"],
    ["rank-scan", "--input", "{spec_dim_zero}"],
], ids=["rank-scan-singular", "construct-singular", "verify-singular", "h-999", "h-negative",
        "hs-1000", "alphas-non-unit", "lambda-non-unit", "alphas-zero-denominator",
        "lambda-zero-denominator", "hs-fraction", "ldc-t-zero",
        "ldc-m-zero", "ldc-delta-number", "ldc-index-past-int64", "ldc-q-past-m",
        "cert-delta-number",
        "cert-rank-zero", "cap-zero", "cap-negative", "spec-cap-negative", "spec-cap-zero",
        "spec-dim-zero"])
def test_bad_input_exits_1_without_traceback(argv, bad_inputs, tmp_path):
    argv = [a.format(**bad_inputs) for a in argv]
    out = subprocess.run(
        [sys.executable, "-m", "rep2ldc.cli", *argv, "--output", str(tmp_path / "out.json")],
        env=_cli_env(), capture_output=True, text=True,
    )
    assert out.returncode == 1
    assert any(line.startswith("error: ") for line in out.stderr.splitlines())
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "out.json").exists()


def _cli_env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(rep2ldc.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


@pytest.mark.parametrize("fixture, code", [("symmetric(3,5)", 0), ("signed_shift(4,3)", 2)])
def test_package_runs_as_module(fixture, code):
    """`python -m rep2ldc` is the CLI, exit code included (the cap of 10
    stops the second group)."""
    out = subprocess.run(
        [sys.executable, "-m", "rep2ldc", "rank-scan", "--fixture", fixture, "--cap", "10"],
        env=_cli_env(), capture_output=True, text=True,
    )
    assert out.returncode == code
    assert ("all satisfied: True" in out.stdout) == (code == 0)


def test_closed_pipe_exits_141_quietly():
    """A reader that takes one line and closes the pipe, as `| head -1`
    does, of a report (1 MB of JSON) far larger than a pipe's buffer."""
    with subprocess.Popen(
        [sys.executable, "-m", "rep2ldc.cli", "rank-scan", "--fixture", "signed_shift(8,3)",
         "--format", "json"],
        env=_cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == cli.EXIT_PIPE == 141


def _error_classes(cls=Rep2LdcError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


# The documented exit code of every error class.
EXPECTED_EXIT = {
    "ParseError": 1, "DimensionMismatch": 1, "NotInvertible": 1, "CharTwo": 1,
    "NoRootOfUnity": 1, "BadCharacteristic": 1, "CapExceeded": 2,
    "PairNotSeparated": 3, "MatchingCrossesPrefixClass": 3, "ZeroMatrix": 4,
    "IdentityElement": 4, "ScalarMultipleOfIdentity": 4, "OrbitDoesNotSpan": 5,
    "InternalInconsistency": 6, "BudgetExhausted": 7,
}


def test_every_error_class_is_listed():
    assert sorted(c.__name__ for c in set(_error_classes())) == sorted(EXPECTED_EXIT)


@pytest.mark.parametrize("cls", sorted(set(_error_classes()), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_every_error_class_exits_with_its_code(cls, monkeypatch, capsys):
    def fail(args):
        raise cls(7) if cls is CapExceeded else cls("injected failure")

    monkeypatch.setattr(cli, "cmd_rank_scan", fail)
    assert main(["rank-scan", *SS43]) == EXPECTED_EXIT[cls.__name__] == cli.EXIT_CODES[cls]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


class TestRankScan:
    def test_text_exit_zero(self, capsys):
        assert main(["rank-scan", "--fixture", "signed_shift(4,3)"]) == 0
        out = capsys.readouterr().out
        assert "all satisfied: True" in out
        assert out.count("\n") >= 64  # 63 rows + headers

    def test_csv(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["rank-scan", "--fixture", "dihedral(5,11)",
                     "--format", "csv", "--output", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("h,order,gamma,theta,rank,bound,satisfied")
        assert len(lines) == 10  # header + 9 non-identity elements

    def test_json(self, tmp_path):
        out = tmp_path / "scan.json"
        assert main(["rank-scan", "--fixture", "symmetric(3,5)",
                     "--format", "json", "--output", str(out)]) == 0
        doc = load_json(str(out))
        assert doc["all_satisfied"] is True
        assert doc["burnside_irreducible"] is True
        assert len(doc["reports"]) == 5


    @pytest.mark.parametrize("fixture, fmt, want", [
        ("signed_shift(4,3)", "json",
         "688eccb4317865a047a841e0d98efd14c01253fad192293305db3d7c313fd879"),
        ("signed_shift(4,3)", "csv",
         "67e67412ff445f9826e34ffb861457c794f065dfb84be74b9a824c3907cb74fa"),
        ("signed_shift(4,3)", "text",
         "3d716b792c838dd4d40be2ea1f0ddff67c3cab840731daaa2d80714d71b5d6f2"),
        ("dihedral(5,11)", "json",
         "a9262404a9ea39a62390459dc39c0901e2b87ee457f872646316d58d6b696603"),
        ("dihedral(5,11)", "csv",
         "33cdd384d6b0ef6b9a0df4bef90292bfb6571860bb819a8689824e0eeb8b026c"),
        ("dihedral(5,11)", "text",
         "99df32c81747126120a7eee93418972ab7e113a2d247d16051771638862945ef"),
        ("signed_shift(4,0)", "json",
         "2d71b9ef4ea82897015e883da197686ac853034120835549298e2e1af13ff388"),
        ("signed_shift(4,0)", "csv",
         "0a179094090d5129e99f43c0e1c3fea4cc59d2c732e0c0fab3e278b3ecec162d"),
        ("signed_shift(4,0)", "text",
         "55c10edd98240ce94521ff4f3b1878f194a53c203e99fdfcd3bd238267009894"),
        ("signed_shift(6,0)", "json",
         "51cc5fbd13d2e9ae6f84c3e1a1a90b49d7c2d0ff155c094100a6a393f9405f24"),
    ])
    def test_output_bytes_pinned(self, fixture, fmt, want, tmp_path):
        out = tmp_path / f"scan.{fmt}"
        assert main(["rank-scan", "--fixture", fixture, "--format", fmt,
                     "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want


class TestConstructVerify:
    def test_round_trip(self, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        assert main(["construct", "--fixture", "signed_shift(4,3)", "--special2",
                     "--h", "1", "--seed", "0", "--output", str(cert_path)]) == 0
        out = capsys.readouterr().out
        assert "m=64" in out and "t=4" in out
        assert main(["verify", "--input", str(cert_path)]) == 0

    def test_verify_applies_cap(self, tmp_path, capsys):
        # verify re-closes the certificate's group, which --cap bounds
        cert_path = tmp_path / "cert.json"
        assert main(["construct", "--fixture", "signed_shift(4,3)", "--special2",
                     "--h", "1", "--output", str(cert_path)]) == cli.EXIT_OK
        assert main(["verify", "--input", str(cert_path), "--cap", "10"]) == cli.EXIT_CAP
        assert "exceeded cap" in capsys.readouterr().err
        assert main(["verify", "--input", str(cert_path)]) == cli.EXIT_OK

    def test_rational_certificate_bytes_pinned(self, tmp_path):
        """The signed_shift(6,0) special2 certificate: a 384-element group
        over QQ, its lattice search and its rational code vectors."""
        cert_path = tmp_path / "cert.json"
        assert main(["construct", "--fixture", "signed_shift(6,0)", "--special2",
                     "--h", "1", "--output", str(cert_path)]) == 0
        assert hashlib.sha256(cert_path.read_bytes()).hexdigest() == (
            "75afc64c06d33b60d5780c48ffc44d9309a2d8bb91d5518539e4b20144577194")

    def test_determinism_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            assert main(["construct", "--fixture", "signed_shift(4,3)", "--special2",
                         "--h", "1", "--seed", "0", "--output", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_general_q3(self, tmp_path):
        cert_path = tmp_path / "q3.json"
        assert main(["construct", "--fixture", "dihedral(5,11)", "--q", "3",
                     "--hs", "1,2,0", "--alphas", "1,4,1",
                     "--output", str(cert_path)]) == 0
        assert main(["verify", "--input", str(cert_path)]) == 0

    def test_lambda_variant(self, tmp_path):
        cert_path = tmp_path / "lam.json"
        assert main(["construct", "--fixture", "dihedral(5,11)", "--lambda", "3",
                     "--h", "1", "--output", str(cert_path)]) == 0
        doc = load_json(str(cert_path))
        assert doc["kind"] == "lambda" and doc["code"]["m"] == 20
        assert main(["verify", "--input", str(cert_path)]) == 0

    def test_tampered_cert_pinpointed(self, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        main(["construct", "--fixture", "signed_shift(4,3)", "--special2",
              "--h", "1", "--seed", "0", "--output", str(cert_path)])
        capsys.readouterr()
        doc = load_json(str(cert_path))
        doc["code"]["vectors"][5][2] = (doc["code"]["vectors"][5][2] + 1) % 3
        dump_json(doc, str(cert_path))
        assert main(["verify", "--input", str(cert_path)]) == 3
        out = capsys.readouterr().out
        assert "coordinate" in out  # failing sets are pinpointed

    def test_mode_flags_are_exclusive(self):
        assert main(["construct", "--fixture", "signed_shift(4,3)",
                     "--special2", "--q", "2", "--h", "1"]) == 1


class TestVerifyLdcFiles:
    def test_hadamard_file(self, tmp_path, capsys):
        path = tmp_path / "hadamard3.json"
        dump_json(ldc_to_json(hadamard(3, GF(2))), str(path))
        assert main(["verify", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "eq" in out  # tight entropy equality noted

    def test_json_format_report(self, tmp_path):
        path = tmp_path / "hadamard2.json"
        dump_json(ldc_to_json(hadamard(2, GF(2))), str(path))
        out = tmp_path / "report.json"
        assert main(["verify", "--input", str(path), "--format", "json",
                     "--output", str(out)]) == 0
        doc = load_json(str(out))
        assert doc["passed"] is True
        assert doc["entropy_audit"]["code_size_relation"] == "eq"

    def test_general_form_audit_not_applicable(self, tmp_path, capsys):
        inst = dataclasses.replace(hadamard(2, GF(2)), form="general")
        path = tmp_path / "general.json"
        dump_json(ldc_to_json(inst), str(path))
        assert main(["verify", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "not applicable" in out

    @pytest.mark.parametrize("case, fmt, code, want", [
        ("passing", "json", 0, "121a85ba2c30b23c0128c94a6dbab279117519a6336ce460d995bcad491dc908"),
        ("passing", "text", 0, "79a4f7fa9734164ffee509829d7b4fedbb4f79219bda0c0bb15eafce87645953"),
        ("failing", "json", 3, "3ee3a04ba0348313623ae27ce80b4601a1ba142bde1286eaba42d9ae959f6c77"),
        ("failing", "text", 3, "19c6ca029c59c092b0a8c76fbb3d5a9ab22356f6add5565229204ada146d79c0"),
        ("audit_raises", "json", 3,
         "28bcf146e88c4ad6093d44cb0a68e198cb18aee8bb04c1846788f3d56b92cdde"),
        ("audit_raises", "text", 3,
         "58047c197f6e3d92a790add7dfe1d7f5f83f0c9e797f2cfda1a7bfbacd13be5e"),
    ])
    def test_report_bytes_pinned(self, case, fmt, code, want, tmp_path, capsys):
        """hadamard(3) passes; hadamard(2) claiming delta 1 fails its code
        report; hadamard(2) with v_1 = v_0 makes the entropy audit raise."""
        doc = ldc_to_json(hadamard(3 if case == "passing" else 2, GF(2)))
        if case == "failing":
            doc["claimed_delta"] = "1"
        elif case == "audit_raises":
            doc["vectors"][1] = doc["vectors"][0]
        path = tmp_path / "ldc.json"
        dump_json(doc, str(path))
        assert main(["verify", "--input", str(path), "--format", fmt]) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == want

    def test_failing_ldc_exits_three(self, tmp_path):
        doc = ldc_to_json(hadamard(2, GF(2)))
        doc["vectors"][0] = [1, 1]  # break pair differences
        path = tmp_path / "broken.json"
        dump_json(doc, str(path))
        assert main(["verify", "--input", str(path)]) == 3


class TestDemoAndFixtures:
    def test_demo_gf3(self, capsys):
        assert main(["demo", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "all checks green" in out

    def test_demo_rational(self, capsys):
        assert main(["demo", "--field", "0"]) == 0
        out = capsys.readouterr().out
        assert "delta=1/2" in out

    def test_demo_seed_invariance_of_verdicts(self, capsys):
        assert main(["demo", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "all checks green" in out

    def test_fixtures_list(self, capsys):
        assert main(["fixtures"]) == 0
        out = capsys.readouterr().out
        for name in ("signed_shift", "dihedral", "symmetric"):
            assert name in out

    def test_fixtures_export(self, tmp_path):
        out = tmp_path / "group.json"
        assert main(["fixtures", "export", "--fixture", "dihedral(3,7)",
                     "--output", str(out)]) == 0
        doc = load_json(str(out))
        assert doc["dim"] == 2 and len(doc["generators"]) == 2

    def test_fixtures_export_full(self, tmp_path):
        out = tmp_path / "group_full.json"
        assert main(["fixtures", "export", "--fixture", "symmetric(3,2)",
                     "--full", "--output", str(out)]) == 0
        doc = load_json(str(out))
        assert doc["size"] == 6 and len(doc["elements"]) == 6

    def test_exported_spec_feeds_rank_scan(self, tmp_path):
        spec = tmp_path / "spec.json"
        assert main(["fixtures", "export", "--fixture", "dihedral(5,11)",
                     "--output", str(spec)]) == 0
        assert main(["rank-scan", "--input", str(spec)]) == 0


class TestScalarFlags:
    """--lambda and --alphas read the one rational grammar of the file
    readers: "a" or "a/b" in ASCII digits, surrounding spaces stripped."""

    @pytest.mark.parametrize("text", ["1e3000000", "0.5", "1_0", "+3", "١٢"],
                             ids=["exponent", "decimal", "underscore", "plus", "arabic-indic"])
    @pytest.mark.parametrize("flag", ["--lambda", "--alphas"])
    def test_other_text_refused_quickly(self, flag, text, tmp_path, capsys):
        argv = ["construct", *SS43, "--output", str(tmp_path / "cert.json")]
        argv += (["--lambda", text, "--h", "1"] if flag == "--lambda"
                 else ["--q", "2", "--hs", "1,0", "--alphas", f"1,{text}"])
        start = time.process_time()
        assert main(argv) == 1
        assert time.process_time() - start < 0.5
        assert f"{flag}: bad scalar {text!r}: not a rational" in capsys.readouterr().err
        assert not (tmp_path / "cert.json").exists()

    @pytest.mark.parametrize("text, gf3, rational", [
        ("1/2", 2, Fraction(1, 2)), ("-3", 0, Fraction(-3)), (" 2 ", 2, Fraction(2)),
    ])
    def test_rationals_accepted(self, text, gf3, rational):
        assert cli._scalar_flag(GF(3), text, "--lambda") == gf3
        assert cli._scalar_flag(QQ, text, "--alphas") == rational

    def test_spaced_lambda_builds(self, tmp_path):
        out = str(tmp_path / "cert.json")
        assert main(["construct", *SS43, "--lambda", " 2 ", "--h", "1", "--output", out]) == 0
        assert load_json(out)["kind"] == "lambda"

    # integer flags and fixture arguments read the numerator's grammar,
    # -?[0-9]+ in ASCII digits, and refuse what --lambda and --alphas refuse
    INTEGER_ARGVS = {
        "--h": ["construct", *SS43, "--special2", "--h", "{}"],
        "--hs": ["construct", *SS43, "--q", "2", "--hs", "1,{}", "--alphas", "1,-1"],
        "--seed": ["construct", *SS43, "--special2", "--h", "1", "--seed", "{}"],
        "--cap": ["construct", *SS43, "--special2", "--h", "1", "--cap", "{}"],
        "--q": ["construct", *SS43, "--q", "{}", "--hs", "1,0", "--alphas", "1,-1"],
        "--field": ["demo", "--field", "{}"],
        "signed_shift parameter n": ["rank-scan", "--fixture", "signed_shift({},3)"],
        "signed_shift parameter p": ["construct", "--fixture", "signed_shift(4,{})",
                                     "--special2", "--h", "1"],
    }

    @pytest.mark.parametrize("text", ["1_0", "+3", "٤"],
                             ids=["underscore", "plus", "arabic-indic"])
    @pytest.mark.parametrize("name", list(INTEGER_ARGVS))
    def test_other_integer_text_refused(self, name, text, tmp_path, capsys):
        out = str(tmp_path / "cert.json")
        argv = [a.format(text) for a in self.INTEGER_ARGVS[name]]
        if argv[0] == "construct":
            argv += ["--output", out]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err and repr(text) in err
        assert not os.path.exists(out)

    def test_integers_accepted(self, tmp_path):
        out = str(tmp_path / "cert.json")
        argv = ["construct", "--fixture", "signed_shift( 4 , 3 )", "--q", " 2 ",
                "--hs", " 1, -0 ", "--alphas", "1,-1", "--seed", "-0", "--cap", " 64",
                "--output", out]
        assert main(argv) == 0
        assert load_json(out)["hs"] == [1, 0]

    @pytest.mark.parametrize("flag, hs, alphas", [
        ("--hs", "1,,0", "1,-1"), ("--hs", "1,0,", "1,-1"), ("--hs", " ,1", "1,-1"),
        ("--alphas", "1,0", "1,,-1"), ("--alphas", "1,0", "1,-1,"),
    ], ids=["hs-doubled", "hs-trailing", "hs-leading", "alphas-doubled", "alphas-trailing"])
    def test_an_empty_list_entry_is_refused(self, flag, hs, alphas, tmp_path, capsys):
        """A doubled or trailing comma is an empty entry, refused by the
        flag's name as an empty fixture argument is, not read as fewer
        entries."""
        out = str(tmp_path / "cert.json")
        argv = ["construct", *SS43, "--q", "2", "--hs", hs, "--alphas", alphas, "--output", out]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: ") and "''" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("text, error, message", [
        ("signed_shift(4,,3)", ValueError, "takes 2 parameters"),
        ("signed_shift(4,3,)", ValueError, "takes 2 parameters"),
        ("signed_shift(4,)", ParseError, "^signed_shift parameter p: not an integer"),
    ])
    def test_an_empty_fixture_argument_is_refused(self, text, error, message):
        with pytest.raises(error, match=message):
            parse_fixture(text)


class TestUsage:
    """Each subcommand takes only the flags it reads, and a usage error is
    exit 1 with one `error:` line, as any other bad input; exit 2 is kept
    for a cap exceeded."""

    ACCEPTED = {
        "rank-scan": {"--input", "--fixture", "--cap", "--format", "--output"},
        "construct": {"--input", "--fixture", "--cap", "--seed", "--output", "--h", "--hs",
                      "--alphas", "--q", "--special2", "--lambda"},
        "verify": {"--input", "--cap", "--format", "--output"},
        "demo": {"--cap", "--seed", "--field"},
        "fixtures": {"action", "--fixture", "--cap", "--output", "--full"},
    }

    def test_accepted_flags_pinned(self):
        subparsers = next(a for a in cli._build_parser()._actions if a.dest == "command")
        accepted = {
            name: {s for a in p._actions if a.dest != "help" for s in a.option_strings or [a.dest]}
            for name, p in subparsers.choices.items()
        }
        assert accepted == self.ACCEPTED
        assert sum(map(len, accepted.values())) == 28

    @pytest.fixture
    def ldc_file(self, tmp_path):
        path = tmp_path / "hadamard2.json"
        dump_json(ldc_to_json(hadamard(2, GF(2))), str(path))
        return str(path)

    @staticmethod
    def _assert_usage_error(capsys, code):
        assert code == cli.EXIT_PARSE == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["rank-scan", "--fixture", "dihedral(3,7)", "--output", "{out}/scan.txt", "--seed", "0"],
        ["construct", *SS43, "--special2", "--h", "1", "--output", "{out}/cert.json",
         "--format", "json"],
        ["verify", "--input", "{ldc}", "--output", "{out}/report.txt", "--seed", "0"],
        ["demo", "--format", "json"],
        ["demo", "--output", "{out}/demo.txt"],
        ["fixtures", "export", "--fixture", "dihedral(3,7)", "--output", "{out}/spec.json",
         "--input", "{ldc}"],
        ["fixtures", "export", "--fixture", "dihedral(3,7)", "--output", "{out}/spec.json",
         "--seed", "0"],
        ["fixtures", "export", "--fixture", "dihedral(3,7)", "--output", "{out}/spec.json",
         "--format", "json"],
        ["verify", "--input", "{ldc}", "--output", "{out}/report.csv", "--format", "csv"],
    ], ids=["rank-scan-seed", "construct-format", "verify-seed", "demo-format", "demo-output",
            "fixtures-input", "fixtures-seed", "fixtures-format", "verify-format-csv"])
    def test_removed_flag_is_a_usage_error(self, argv, ldc_file, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        self._assert_usage_error(capsys, main([a.format(out=out, ldc=ldc_file) for a in argv]))
        assert not any(out.iterdir())

    @pytest.mark.parametrize("argv", [
        [],
        ["bogus"],
        ["rank-scan", *SS43, "--bogus"],
        ["construct", *SS43, "--special2", "--h", "abc"],
        ["rank-scan", *SS43, "--cap", "abc"],
        ["verify"],
        ["fixtures", "export"],
        ["fixtures", "export", "--full"],
        ["fixtures", "--fixture", "dihedral(3,7)", "--output", "spec.json"],
        ["fixtures", "list", "--cap", "10"],
        ["rank-scan", *SS43, "--out", "scan.txt"],
        ["rank-scan", *SS43, "--h", "1"],
    ], ids=["no-subcommand", "unknown-subcommand", "unknown-flag", "h-abc", "cap-abc",
            "verify-no-input", "export-no-fixture", "export-full-no-fixture",
            "list-with-export-flags", "list-with-cap", "abbreviated-flag", "h-is-not-help"])
    def test_usage_error_exits_1(self, argv, capsys):
        self._assert_usage_error(capsys, main(argv))

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["verify", "--help"],
                                      ["fixtures", "--help"]])
    def test_help_and_version_exit_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize("argv, code", [([], 1), (["rank-scan", *SS43, "--cap", "abc"], 1),
                                            (["--version"], 0)])
    def test_process_exit_codes(self, argv, code):
        out = subprocess.run([sys.executable, "-m", "rep2ldc", *argv],
                             env=_cli_env(), capture_output=True, text=True)
        assert out.returncode == code
        if code:
            assert len(out.stderr.splitlines()) == 1 and out.stderr.startswith("error: ")
        else:
            assert out.stderr == "" and out.stdout

    @pytest.mark.parametrize("argv", [
        ["fixtures", "export", "--fixture", "dihedral(3,7)"],
        ["fixtures", "export", "--fixture", "symmetric(3,2)", "--full"],
        ["rank-scan", "--fixture", "dihedral(3,7)", "--format", "json"],
        ["verify", "--input", "{ldc}", "--format", "json"],
    ], ids=["fixtures-export", "fixtures-export-full", "rank-scan-json", "verify-json"])
    def test_stdout_and_output_bytes_agree(self, argv, ldc_file, tmp_path, capsys):
        """The one JSON writer gives a file and stdout the same bytes."""
        argv = [a.format(ldc=ldc_file) for a in argv]
        path = tmp_path / "doc.json"
        code = main(argv)
        printed = capsys.readouterr().out
        assert main([*argv, "--output", str(path)]) == code
        assert path.read_bytes() == printed.encode()
