"""Workloads of the end-to-end benchmark: fixtures, set-up and jobs.

A job is one user-level request, measured as the library call the matching
CLI subcommand makes:

* construct -- build_special_2ldc / lambda_variant / build_q_ldc, then
  cert_to_json to canonical text, then entropy_audit for special2 form.
* verify    -- certificate JSON text -> cert_from_json -> verify_cert.  The
  text carries only the group spec, so the group is re-closed in the job.
* rank_scan -- check_rank_separation + burnside_irreducible + avg_fixed_space.

Group closure is set-up for construct and rank_scan.  Each of their jobs
runs on a fresh MatrixGroup that shares the closed elements, so the
per-group caches (left_perm, element_order, stacked) start cold in every
job, as they do in every CLI call.

The seed picks, per fixture, a conjugate x g0 x^-1 of generator 0 as the
element h (and conjugates the second reflection of the general-q job the
same way).  Conjugates have the same order and rank(h - I), so every seed
costs the same work; the default seed takes x = identity, i.e. h = g0.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from rep2ldc import bounds, certcheck, construct, fixtures, groups, serialize

DEFAULT_SEED = 0
LAMBDA = 1
# general q = 3 job: [h, h2, id] . [1, 1, -2] with h, h2 two distinct reflections
GENERAL_ALPHAS = (1, 1, -2)

# (fixture, kinds); kinds are construction kinds, or "scan" for rank_scan.
WORKLOADS: dict[str, tuple[tuple[str, tuple[str, ...]], ...]] = {
    # exhaustive z selection is most of the signed_shift(8,3) builds and sets
    # peak memory; symmetric(7,11) takes the randomized-z branch and spends
    # its time in left_perm, signed_shift(4,0) runs the rational lattice search
    "construct": (
        ("signed_shift(8,3)", ("special2", "lambda", "general")),
        ("symmetric(7,11)", ("special2",)),
        ("signed_shift(4,0)", ("special2",)),
    ),
    # re-closing the group (the |G|^2 product check) dominates the
    # 384-element and the rational jobs, the per-(j, s) spanning-identity
    # loop the large ones; no z-scan runs here
    "verify": (
        ("signed_shift(6,5)", ("special2", "general", "lambda")),
        ("signed_shift(8,3)", ("special2", "general")),
        ("symmetric(7,11)", ("special2",)),
        ("signed_shift(4,0)", ("special2",)),
    ),
    # the bounds layer: element orders, rank(g - I) and fixed spaces, up to
    # 10240 elements
    "rank_scan": (
        ("signed_shift(10,3)", ("scan",)),
        ("symmetric(7,11)", ("scan",)),
        ("signed_shift(4,0)", ("scan",)),
    ),
}

# Small fixtures for the benchmark's own smoke test.
SMOKE: dict[str, tuple[tuple[str, tuple[str, ...]], ...]] = {
    "construct": (
        ("signed_shift(4,3)", ("special2", "lambda", "general")),
        ("dihedral(5,11)", ("special2",)),
    ),
    "verify": (
        ("signed_shift(4,3)", ("special2", "lambda", "general")),
        ("dihedral(5,11)", ("special2",)),
    ),
    "rank_scan": (
        ("signed_shift(4,3)", ("scan",)),
        ("dihedral(5,11)", ("scan",)),
    ),
}


@dataclass
class Job:
    name: str                       # "fixture kind", unique within a workload
    size: int                       # |G|
    run: Callable                   # run(tracer) -> (output text, report passed)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fresh(group: groups.MatrixGroup) -> groups.MatrixGroup:
    """Same closed elements and numbering, empty per-group caches."""
    return groups.MatrixGroup(
        group.field, group.dim, list(group.elements), group.index, group.generators, group.words
    )


def _conjugator(group: groups.MatrixGroup, fixture: str, seed: int) -> int:
    if seed == DEFAULT_SEED:
        return group.identity_pos
    rng = np.random.default_rng([seed, zlib.crc32(fixture.encode())])
    return int(rng.integers(1, len(group)))


def job_elements(group: groups.MatrixGroup, fixture: str, seed: int) -> tuple[int, int]:
    """(h, h2): h conjugates generator 0, h2 conjugates g1 g0 g1^-1, both by x."""
    x = _conjugator(group, fixture, seed)
    g0, g1 = group.generators[0], group.generators[1]

    def conj(a: int, b: int) -> int:
        return group.mul(group.mul(a, b), group.inv(a))

    return conj(x, g0), conj(x, conj(g1, g0))


def _build(group: groups.MatrixGroup, kind: str, h: int, h2: int):
    if kind == "special2":
        return construct.build_special_2ldc(group, h)
    if kind == "lambda":
        return construct.lambda_variant(group, h, LAMBDA)
    if kind == "general":
        return construct.build_q_ldc(group, [h, h2, group.identity_pos], list(GENERAL_ALPHAS))
    raise ValueError(f"unknown construction kind {kind!r}")


def _cert_text(cert) -> str:
    return serialize.canonical_json(serialize.cert_to_json(cert))


def _construct_job(closed, kind, h, h2):
    def run(tr):
        cert = _build(fresh(closed), kind, h, h2)
        text = _cert_text(cert)
        tr.add("serialize.cert_bytes", len(text))
        passed = cert.code.form != "special2" or bounds.entropy_audit(cert.code).passed
        return text, passed
    return run


def _verify_job(cert_text):
    def run(tr):
        with tr.span("certcheck.parse"):
            cert = certcheck.cert_from_json(json.loads(cert_text))
        report = certcheck.verify_cert(cert)
        return serialize.canonical_json(report.to_json()), report.passed
    return run


def _rank_scan_job(closed):
    def run(tr):
        group = fresh(closed)
        reports = bounds.check_rank_separation(group)
        irreducible = groups.burnside_irreducible(group)
        afs = bounds.avg_fixed_space(group)
        all_ok = all(r.satisfied and r.uniform_satisfied for r in reports)
        doc = {
            "group_size": len(group),
            "dim": group.dim,
            "burnside_irreducible": irreducible,
            "all_satisfied": all_ok,
            "reports": [r.to_json() for r in reports],
            "avg_fixed_space": afs.to_json(),
        }
        return serialize.canonical_json(doc), all_ok and irreducible and afs.passed
    return run


def setup(workload: str, seed: int, tr, table=WORKLOADS) -> list[Job]:
    """Close every fixture group and prepare each job's input.

    verify certificates are built here, on fresh groups, exactly as a
    construct job builds them.
    """
    closed = {}
    for fixture, _ in table[workload]:
        with tr.span("fixtures.build"):
            closed[fixture] = fixtures.parse_fixture(fixture)
    jobs = []
    for fixture, kinds in table[workload]:
        group = closed[fixture]
        h, h2 = job_elements(group, fixture, seed)
        for kind in kinds:
            if workload == "construct":
                run = _construct_job(group, kind, h, h2)
            elif workload == "verify":
                run = _verify_job(_cert_text(_build(fresh(group), kind, h, h2)))
            elif workload == "rank_scan":
                run = _rank_scan_job(group)
            else:
                raise ValueError(f"unknown workload {workload!r}")
            jobs.append(Job(f"{fixture} {kind}", len(group), run))
    return jobs
