"""Timed phase, correctness gate and reports of the end-to-end benchmark.

Expects ``rep2ldc`` importable (run.py puts the checkout's ``src`` first on
``sys.path``).  One client runs the jobs of a workload back to back in this
process (a closed loop, single-threaded), one whole pass of every job after
another, until the next pass would end past ``--seconds``.

Every reported time is in reference seconds: the measured time scaled by
how fast the machine ran a fixed calibration load right before and right
after it (see calibration.py).  Raw times are printed beside them.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import calibration
import kernel_cases
import workloads
from tracer import NullTracer, Tracer, library_hooks
from rep2ldc import _kernels, bounds, certcheck, construct, fixtures, serialize

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
SETUP_REPS = 3

E2E_UNITS = {
    "jobs_per_s": "jobs/s",
    "job_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


@dataclass
class JobRun:
    name: str
    size: int                                   # |G| of the job's group
    seconds: float                              # raw wall time
    digest: str | None
    passed: bool
    error: str | None = None
    failed: bool = False                        # set by judge()
    spans: dict = field(default_factory=dict)   # name -> (total, self, calls), traced only
    scale: float = 1.0                          # reference seconds per raw second

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale


@dataclass
class Pass:
    traced: bool
    wall: float
    runs: list[JobRun]
    tracer: Tracer | None = None


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "USING_NUMBA": bool(_kernels.USING_NUMBA),
        "REP2LDC_NUMBA": os.environ.get("REP2LDC_NUMBA", "<unset>"),
        "REP2LDC_CAP": os.environ.get("REP2LDC_CAP", "<unset>"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


def fingerprint_lines(env: dict) -> list[str]:
    lines = ["env: " + " ".join(f"{k}={v}" for k, v in env.items())]
    if env["USING_NUMBA"]:
        lines.append("FLAG: the numba kernels are active; the pure-numpy path is the one "
                     "that counts (set REP2LDC_NUMBA=0)")
    return lines


# ---------------------------------------------------------------------------
# timed phase
# ---------------------------------------------------------------------------

def _delta(before: dict, after: dict) -> dict:
    out = {}
    for name, st in after.items():
        b = before.get(name)
        calls = st.calls - (b.calls if b else 0)
        if calls:
            out[name] = (st.total - (b.total if b else 0.0), st.self - (b.self if b else 0.0), calls)
    return out


def run_pass(jobs: list[workloads.Job], traced: bool) -> Pass:
    tr = Tracer() if traced else NullTracer()
    if traced:
        tr.install(library_hooks())
    runs = []
    t_pass = time.perf_counter()
    cal = calibration.measure()
    try:
        for job in jobs:
            before = tr.snapshot() if traced else None
            t0 = time.perf_counter()
            try:
                with tr.span("job"):
                    text, passed = job.run(tr)
                digest, error = workloads.sha256(text), None
            except Exception:  # a failing job is counted; the run goes on
                digest, passed, error = None, False, traceback.format_exc(limit=4)
            dt = time.perf_counter() - t0
            spans = _delta(before, tr.snapshot()) if traced else {}
            cal_after = calibration.measure()
            runs.append(JobRun(job.name, job.size, dt, digest, passed, error, spans=spans,
                               scale=calibration.scale(cal, cal_after)))
            cal = cal_after
    finally:
        if traced:
            tr.uninstall()
    return Pass(traced, time.perf_counter() - t_pass, runs, tr if traced else None)


def timed_phase(jobs, seconds: float, trace: bool) -> list[Pass]:
    """Whole passes until the next one would end past `seconds`.

    Untraced runs make only untraced passes.  Traced runs alternate
    untraced and traced passes (at least one of each), so the tracing
    overhead is measured on the same set-up.
    """
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(jobs, traced=trace and len(passes) % 2 == 1))
        elapsed = time.perf_counter() - t0
        if trace and len(passes) < 2:
            continue
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def set_up(workload: str, seed: int, table) -> tuple[list, list[float], list[float], list[float]]:
    """Run set-up SETUP_REPS times; keep the last jobs.

    Returns the jobs, the set-up times in reference seconds, the raw ones
    and the raw fixture-build times.
    """
    setup_times, raw_times, build_times = [], [], []
    cal = calibration.measure()
    for _ in range(SETUP_REPS):
        jobs = None  # release the previous repetition before building the next
        tr = Tracer()
        t0 = time.perf_counter()
        jobs = workloads.setup(workload, seed, tr, table)
        raw_times.append(time.perf_counter() - t0)
        cal_after = calibration.measure()
        setup_times.append(raw_times[-1] * calibration.scale(cal, cal_after))
        cal = cal_after
        build_times.append(tr.stats["fixtures.build"].total)
    return jobs, setup_times, raw_times, build_times


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def load_golden(workload: str) -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def judge(passes: list[Pass], golden: dict | None) -> list[str]:
    """Mark failed job runs and return one message per failure.

    The reference hash of a job is the pinned one when `golden` is given
    (default seed), otherwise the first pass's, so every pass, traced or
    not, must reproduce the same bytes.
    """
    reference = {} if golden is None else dict(golden)
    messages = []
    for i, p in enumerate(passes):
        for r in p.runs:
            problems = []
            if r.error is not None:
                problems.append(f"exception\n{r.error}")
            else:
                if not r.passed:
                    problems.append("report did not pass")
                ref = (reference.setdefault(r.name, r.digest) if golden is None
                       else reference.get(r.name))
                if ref is None:
                    problems.append("no pinned hash")
                elif r.digest != ref:
                    problems.append(f"output hash {r.digest} != reference {ref}")
            r.failed = bool(problems)
            where = f"pass {i + 1} ({'traced' if p.traced else 'untraced'}) {r.name}"
            messages += [f"{where}: {m}" for m in problems]
    return messages


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _jobs_per_s(passes: list[Pass], raw: bool = False) -> float:
    """Correct jobs per second of job time, over all job runs of `passes`
    (reference seconds unless `raw`)."""
    runs = [r for p in passes for r in p.runs]
    busy = sum(r.seconds if raw else r.ref_seconds for r in runs)
    return sum(not r.failed for r in runs) / busy


def end_to_end(passes: list[Pass], setup_times: list[float]) -> dict:
    times = [r.ref_seconds for p in passes for r in p.runs]
    return {
        "jobs_per_s": _jobs_per_s(passes),
        "job_s_p50": statistics.median(times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _self(name):
    return lambda tr: tr.stats[name].self if name in tr.stats else 0.0


def _total(name):
    return lambda tr: tr.stats[name].total if name in tr.stats else 0.0


def _calls(name):
    return lambda tr: tr.stats[name].calls if name in tr.stats else 0


def _count(name):
    return lambda tr: tr.counts.get(name, 0)


def _z_candidates(tr):
    return _count("construct.z_candidates")(tr) + _calls("kernels.count_nonzero_dots")(tr)


def _z_survivor_ratio(tr):
    base = tr.counts.get("construct.z_scanned_normals", 0)
    return tr.counts.get("construct.z_survivors", 0) / base if base else 0.0


# (metric, unit, value from one traced pass).  Times are self times for
# spans; kernel timers and linalg.rref_qq are inclusive leaf timers whose
# time also sits inside their callers' self time.  With numba absent,
# matmul_mod is matmul_mod_np, so kernels.matmul also counts the products
# inside the numpy z-scan.
PER_PASS_LAYER = [
    ("kernels.best_z_s", "s", _self("kernels.best_z")),
    ("kernels.best_z_calls", "count", _calls("kernels.best_z")),
    ("kernels.best_z_ops", "count", _count("kernels.best_z_ops")),
    ("kernels.best_z_bytes", "bytes", _count("kernels.best_z_bytes")),
    ("kernels.matmul_s", "s", _total("kernels.matmul")),
    ("kernels.matmul_calls", "count", _calls("kernels.matmul")),
    ("kernels.rref_s", "s", _total("kernels.rref")),
    ("kernels.rref_calls", "count", _calls("kernels.rref")),
    ("groups.close_s", "s", _self("groups.close")),
    ("groups.close_calls", "count", _calls("groups.close")),
    ("groups.elements_closed", "count", _count("groups.elements_closed")),
    ("groups.left_perm_s", "s", _self("groups.left_perm")),
    ("groups.left_perm_calls", "count", _calls("groups.left_perm")),
    ("groups.element_order_s", "s", _self("groups.element_order")),
    ("groups.element_order_calls", "count", _calls("groups.element_order")),
    ("groups.burnside_s", "s", _self("groups.burnside")),
    ("construct.build_self_s", "s", _self("construct.build")),
    ("construct.prepare_s", "s", _self("construct.prepare")),
    ("construct.spanning_family_s", "s", _self("construct.spanning_family")),
    ("construct.dual_vectors_s", "s", _self("construct.dual_vectors")),
    ("construct.validate_family_s", "s", _self("construct.validate_family")),
    ("construct.normals_s", "s", _self("construct.normals")),
    ("construct.normals", "count", _count("construct.normals")),
    ("construct.normal_classes", "count", _count("construct.normal_classes")),
    ("construct.choose_z_s", "s", _self("construct.choose_z")),
    ("construct.z_candidates", "count", _z_candidates),
    ("construct.z_survivor_ratio", "ratio", _z_survivor_ratio),
    ("construct.code_vectors_s", "s", _self("construct.code_vectors")),
    ("construct.spanning_identities_s", "s", _self("construct.spanning_identities")),
    ("construct.orbit_check_s", "s", _self("construct.orbit_check")),
    ("linalg.matmul_calls", "count", _calls("linalg.matmul")),
    ("linalg.rref_calls", "count", _calls("linalg.rref")),
    ("linalg.rref_qq_s", "s", _total("linalg.rref_qq")),
    ("ldc.verify_s", "s", _self("ldc.verify")),
    ("ldc.sets_checked", "count", _count("ldc.sets_checked")),
    ("bounds.rank_scan_s", "s", _self("bounds.rank_scan")),
    ("bounds.avg_fixed_space_s", "s", _self("bounds.avg_fixed_space")),
    ("bounds.elements_scanned", "count", _count("bounds.elements_scanned")),
    ("bounds.entropy_audit_s", "s", _self("bounds.entropy_audit")),
    ("certcheck.parse_s", "s", _self("certcheck.parse")),
    ("certcheck.verify_cert_s", "s", _self("certcheck.verify_cert")),
    ("certcheck.failures", "count", _count("certcheck.failures")),
    ("serialize.cert_to_json_s", "s", _self("serialize.cert_to_json")),
    ("serialize.cert_bytes", "bytes", _count("serialize.cert_bytes")),
]

OTHER_LAYER_UNITS = {
    "fixtures.build_s": "s",
    "kernels.case_rref_s": "s",
    "kernels.case_matmul_s": "s",
    "kernels.case_zscan_s": "s",
    "tracing.overhead_jobs_per_s": "jobs/s",
}

PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_PASS_LAYER} | OTHER_LAYER_UNITS

# counted work that must repeat exactly from one cold-cache pass to the next
WORK_COUNTS = [name for name, unit, _ in PER_PASS_LAYER
               if name.startswith(("kernels.", "groups.")) and name.endswith("_calls")]


def per_layer(traced: list[Pass]) -> tuple[dict, list[str]]:
    """Per-layer values (times: median over traced passes; counts: pass 1)
    and a problem for every count that differs between traced passes."""
    values, problems = {}, []
    for name, unit, get in PER_PASS_LAYER:
        series = [get(p.tracer) for p in traced]
        if unit == "s":
            values[name] = statistics.median(series)
        else:
            values[name] = series[0]
            if name in WORK_COUNTS and len(set(series)) != 1:
                problems.append(f"counted work {name} differs between traced passes: {series}")
    return values, problems


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

@dataclass
class Result:
    lines: list[str]
    metrics: dict           # name -> value
    units: dict             # name -> unit
    attempted: int
    failed: int
    problems: list[str]

    @property
    def correct(self) -> bool:
        return not self.problems

    def json_line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": self.units[k]} for k, v in self.metrics.items()},
        })


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 table=workloads.WORKLOADS, golden: dict | None = None) -> Result:
    env = fingerprint()
    lines = fingerprint_lines(env)
    jobs, setup_times, raw_setup, build_times = set_up(workload, seed, table)
    lines.append(f"workload {workload} seed {seed}: {len(jobs)} jobs per pass, one client, "
                 f"closed loop, single-threaded; set-up x{SETUP_REPS}: "
                 + ", ".join(f"{t:.3f}" for t in raw_setup) + " s raw, "
                 + ", ".join(f"{t:.3f}" for t in setup_times) + " reference s")

    layer = {}
    problems = []
    if trace:
        case_times, case_failures = kernel_cases.run_cases(seed)
        layer.update(case_times)
        problems += [f"kernel case: {f}" for f in case_failures]
    passes = timed_phase(jobs, seconds, trace)
    problems += judge(passes, golden)
    attempted = sum(len(p.runs) for p in passes)
    failed = sum(1 for p in passes for r in p.runs if r.failed)

    untraced = [p for p in passes if not p.traced]
    e2e = end_to_end(untraced, setup_times)
    lines += _pass_lines(passes)
    lines.append(f"job_s_p50 over {sum(len(p.runs) for p in untraced)} untraced job runs; "
                 f"times in reference seconds (calibration load = {calibration.REF_S} s), "
                 f"raw jobs/s {_jobs_per_s(untraced, raw=True):.6g}")
    for name, value in e2e.items():
        lines.append(f"  {name:<16} {value:>12.6g} {E2E_UNITS[name]}")
    lines.append(f"  {'failed_ratio':<16} {failed / attempted:>12.6g} ratio "
                 f"({failed} of {attempted} job runs)")

    if not trace:
        metrics, units = e2e, E2E_UNITS
    else:
        traced = [p for p in passes if p.traced]
        values, count_problems = per_layer(traced)
        problems += count_problems
        layer.update(values)
        layer["fixtures.build_s"] = statistics.median(build_times)
        traced_rate = _jobs_per_s(traced)
        layer["tracing.overhead_jobs_per_s"] = traced_rate - e2e["jobs_per_s"]
        lines += _traced_lines(traced, e2e["jobs_per_s"], traced_rate)
        metrics = {name: layer[name] for name in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
        for name in metrics:
            lines.append(f"  {name:<34} {metrics[name]:>14.6g} {units[name]}"
                         + (f"  (base: {metrics['construct.normals']} normals)"
                            if name == "construct.z_survivor_ratio" else ""))
    lines += [f"FAILED {p}" for p in problems]
    return Result(lines, metrics, units, attempted, failed, problems)


def _pass_lines(passes: list[Pass]) -> list[str]:
    lines = []
    for i, p in enumerate(passes):
        lines.append(f"pass {i + 1} ({'traced' if p.traced else 'untraced'}): {p.wall:.3f} s, "
                     f"{len(p.runs)} jobs")
    untraced = [p for p in passes if not p.traced]
    lines.append("job times, median over untraced passes: raw s, reference s")
    for j, r in enumerate(untraced[0].runs):
        t = statistics.median(p.runs[j].seconds for p in untraced)
        t_ref = statistics.median(p.runs[j].ref_seconds for p in untraced)
        lines.append(f"  {r.name:<28} |G|={r.size:<6} {t:>9.3f} {t_ref:>9.3f}")
    return lines


def _traced_lines(traced: list[Pass], untraced_rate: float, traced_rate: float) -> list[str]:
    share = (traced_rate - untraced_rate) / untraced_rate if untraced_rate else float("nan")
    lines = [f"tracing overhead: {traced_rate:.6g} traced - {untraced_rate:.6g} untraced jobs/s "
             f"= {traced_rate - untraced_rate:+.6g} jobs/s ({share:+.1%})"]
    first = traced[0]
    lines.append("per-job raw times, traced pass 1 (largest self time among library spans):")
    for r in first.runs:
        lib = {k: v for k, v in r.spans.items() if k != "job"}
        top = max(lib.items(), key=lambda kv: kv[1][1]) if lib else ("-", (0, 0, 0))
        lines.append(f"  {r.name:<28} |G|={r.size:<6} {r.seconds:>9.3f} s   "
                     f"{top[0]} {top[1][1]:.3f} s")
    lines.append("spans, traced pass 1: calls, total s, self s (kernel timers are inclusive)")
    stats = sorted(first.tracer.stats.items(), key=lambda kv: (-kv[1].self, -kv[1].total))
    for name, st in stats:
        self_s = f"{st.self:>10.3f}" if st.kind == "span" else f"{'-':>10}"
        total_s = f"{st.total:>10.3f}" if st.kind != "counter" else f"{'-':>10}"
        lines.append(f"  {name:<32} {st.calls:>9} {total_s} {self_s}")
    return lines


# ---------------------------------------------------------------------------
# ROADMAP baseline table
# ---------------------------------------------------------------------------

LADDER = (
    "signed_shift(4,3)",
    "signed_shift(4,0)",
    "signed_shift(6,5)",
    "symmetric(6,7)",
    "signed_shift(8,3)",
    "signed_shift(10,3)",
)
BUILD_NOT_RUN = {"signed_shift(10,3)": "not run (66 s)"}  # verify needs that build too
TABLE_COLUMNS = ("closure", "build special2", "verify_cert_json", "rank scan", "avg fixed space")


def baseline_table() -> list[str]:
    """The ROADMAP "Open items" table, one traced run per ladder fixture.

    closure = groups.close inside the fixture build; build = the
    build_special_2ldc span on generator 0; verify_cert_json = JSON text to
    report; rank scan and avg fixed space = their bounds spans.
    """
    lines = ["| fixture | \\|G\\| | " + " | ".join(TABLE_COLUMNS) + " |",
             "|---|---|" + "---|" * len(TABLE_COLUMNS)]
    for fixture in LADDER:
        tr = Tracer()
        tr.install(library_hooks())
        try:
            group = fixtures.parse_fixture(fixture)
            cells = {"closure": tr.stats["groups.close"].total}
            if fixture in BUILD_NOT_RUN:
                cells["build special2"] = BUILD_NOT_RUN[fixture]
                cells["verify_cert_json"] = "not run (no certificate)"
            else:
                cert = construct.build_special_2ldc(workloads.fresh(group), group.generators[0])
                cells["build special2"] = tr.stats["construct.build"].total
                text = serialize.canonical_json(serialize.cert_to_json(cert))
                with tr.span("verify_cert_json"):
                    certcheck.verify_cert(certcheck.cert_from_json(json.loads(text)))
                cells["verify_cert_json"] = tr.stats["verify_cert_json"].total
            bounds.check_rank_separation(workloads.fresh(group))
            cells["rank scan"] = tr.stats["bounds.rank_scan"].total
            bounds.avg_fixed_space(workloads.fresh(group))
            cells["avg fixed space"] = tr.stats["bounds.avg_fixed_space"].total
        finally:
            tr.uninstall()
        row = [fixture, str(len(group))] + [
            c if isinstance(c, str) else f"{c:.3f}" for c in (cells[k] for k in TABLE_COLUMNS)
        ]
        lines.append("| " + " | ".join(row) + " |")
    return lines
