"""Smoke tests of the benchmark itself, on small fixtures.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import workloads  # noqa: E402
from rep2ldc import _kernels, construct, fixtures, groups  # noqa: E402

SEEDS = (workloads.DEFAULT_SEED, 7)
NAMES = ("construct", "verify", "rank_scan")


def _jobs(workload, seed):
    return workloads.setup(workload, seed, harness.NullTracer(), workloads.SMOKE)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", NAMES)
def test_outputs_repeat_and_pass(workload, seed):
    jobs = _jobs(workload, seed)
    first, second = (harness.run_pass(jobs, traced=False) for _ in range(2))
    traced = harness.run_pass(jobs, traced=True)
    assert harness.judge([first, second, traced], None) == []
    digests = [[r.digest for r in p.runs] for p in (first, second, traced)]
    assert digests[0] == digests[1] == digests[2]
    assert all(r.passed for r in first.runs)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("trace", (False, True))
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_prints_with_its_unit(workload, trace, seed):
    result = harness.run_workload(workload, seed, 0.05, trace, table=workloads.SMOKE)
    assert result.correct and result.failed == 0 and result.attempted >= 2
    doc = json.loads(result.json_line())
    expected = harness.PER_LAYER_UNITS if trace else harness.E2E_UNITS
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected
    text = "\n".join(result.lines)
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in result.lines if line.startswith("  ")), name
    assert "failed_ratio" in text and "env: python=" in text


def test_seed_picks_a_conjugate_of_generator_zero():
    group = fixtures.parse_fixture("signed_shift(4,3)")
    g0 = group.generators[0]
    assert workloads.job_elements(group, "signed_shift(4,3)", workloads.DEFAULT_SEED)[0] == g0
    h, h2 = workloads.job_elements(group, "signed_shift(4,3)", 7)
    assert (h, h2) == workloads.job_elements(group, "signed_shift(4,3)", 7)
    assert h != h2 and group.element_order(h) == group.element_order(g0)


def test_cold_cache_passes_do_the_same_counted_work():
    jobs = [job for name in NAMES for job in _jobs(name, workloads.DEFAULT_SEED)]
    passes = [harness.run_pass(jobs, traced=True) for _ in range(2)]
    values, problems = harness.per_layer(passes)
    assert problems == []
    for name in harness.WORK_COUNTS:
        _, _, get = next(m for m in harness.PER_PASS_LAYER if m[0] == name)
        assert get(passes[0].tracer) == get(passes[1].tracer), name
    assert values["kernels.best_z_calls"] > 0 and values["groups.left_perm_calls"] > 0
    assert values["groups.element_order_calls"] > 0 and values["groups.close_calls"] > 0


def test_tracing_restores_every_binding():
    before = (_kernels.matmul_mod, construct.choose_z, construct.verify,
              groups.MatrixGroup.left_perm, workloads.construct.build_special_2ldc)
    harness.run_pass(_jobs("construct", workloads.DEFAULT_SEED), traced=True)
    after = (_kernels.matmul_mod, construct.choose_z, construct.verify,
             groups.MatrixGroup.left_perm, workloads.construct.build_special_2ldc)
    assert before == after


def test_wrong_bytes_count_as_failed():
    golden = {name: "0" * 64 for name in ("signed_shift(4,3) scan", "dihedral(5,11) scan")}
    result = harness.run_workload("rank_scan", 0, 0.05, False, table=workloads.SMOKE,
                                  golden=golden)
    assert not result.correct and result.failed == result.attempted
    assert json.loads(result.json_line())["metrics"]["jobs_per_s"]["value"] == 0


def test_pinned_hashes_cover_every_job():
    with open(harness.GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    for workload in NAMES:
        names = {f"{fixture} {kind}" for fixture, kinds in workloads.WORKLOADS[workload]
                 for kind in kinds}
        assert set(golden[workload]) == names


def test_fails_without_the_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "rank_scan", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_metric_tables():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == harness.E2E_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == harness.PER_LAYER_UNITS


def test_times_are_scaled_by_the_calibration():
    assert harness.calibration.scale(0.01, 0.03) == pytest.approx(harness.calibration.REF_S / 0.02)
    assert harness.calibration.measure() > 0
    run = harness.JobRun("job", 1, 2.0, None, True, scale=0.5)
    assert run.ref_seconds == 1.0
    assert harness._jobs_per_s([harness.Pass(False, 3.0, [run])]) == 1.0
    assert harness._jobs_per_s([harness.Pass(False, 3.0, [run])], raw=True) == 0.5
