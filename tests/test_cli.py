import os
import subprocess
import sys

import pytest

import rep2ldc
from rep2ldc.cli import main
from rep2ldc.fields import GF
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
def singular_inputs(tmp_path_factory):
    """A group spec and a certificate, each with a singular generator."""
    tmp = tmp_path_factory.mktemp("singular")
    field = {"char": 3}
    zero = {"field": field, "rows": 2, "cols": 2, "entries": [[0, 0], [0, 0]]}
    spec = tmp / "singular_group.json"
    dump_json({"field": field, "dim": 2, "generators": [zero]}, str(spec))
    cert = tmp / "singular_cert.json"
    assert main(["construct", "--fixture", "signed_shift(4,3)", "--special2",
                 "--h", "1", "--output", str(cert)]) == 0
    doc = load_json(str(cert))
    gen = doc["group"]["generators"][0]
    gen["entries"] = [[0] * gen["cols"] for _ in range(gen["rows"])]
    dump_json(doc, str(cert))
    return {"group": str(spec), "cert": str(cert)}


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
], ids=["rank-scan-singular", "construct-singular", "verify-singular", "h-999", "h-negative",
        "hs-1000", "alphas-non-unit", "lambda-non-unit"])
def test_bad_input_exits_1_without_traceback(argv, singular_inputs, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(rep2ldc.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    argv = [a.format(**singular_inputs) for a in argv]
    out = subprocess.run(
        [sys.executable, "-m", "rep2ldc.cli", *argv, "--output", str(tmp_path / "out.json")],
        env=env, capture_output=True, text=True,
    )
    assert out.returncode == 1
    assert any(line.startswith("error: ") for line in out.stderr.splitlines())
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "out.json").exists()


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


class TestConstructVerify:
    def test_round_trip(self, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        assert main(["construct", "--fixture", "signed_shift(4,3)", "--special2",
                     "--h", "1", "--seed", "0", "--output", str(cert_path)]) == 0
        out = capsys.readouterr().out
        assert "m=64" in out and "t=4" in out
        assert main(["verify", "--input", str(cert_path)]) == 0

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
        inst = hadamard(2, GF(2)).as_general()
        path = tmp_path / "general.json"
        dump_json(ldc_to_json(inst), str(path))
        assert main(["verify", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "not applicable" in out

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
