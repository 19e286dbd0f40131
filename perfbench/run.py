#!/usr/bin/env python3
"""End-to-end benchmark of the rep2ldc certify pipeline.

Run from the root of a checkout (the library is imported from ./src):

    python3 perfbench/run.py --workload construct --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload verify --trace 1     # per-layer run
    python3 perfbench/run.py --table                         # ROADMAP baseline table

Workloads: construct, verify, rank_scan (see workloads.py for the jobs and
why each fixture is there).  --trace 0 prints the end-to-end metrics,
--trace 1 the per-layer ones.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every job run
produced the reference bytes and a passing report, 1 otherwise, and 2 when
the library sources are missing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("construct", "verify", "rank_scan"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--table", action="store_true",
                        help="print the ROADMAP baseline table from a traced ladder run")
    args = parser.parse_args(argv)
    if not args.table and args.workload is None:
        parser.error("--workload is required unless --table is given")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "rep2ldc" / "__init__.py").is_file():
        print(f"error: no rep2ldc sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rep2ldc

    if Path(rep2ldc.__file__).resolve().parent != SRC / "rep2ldc":
        print(f"error: imported rep2ldc from {rep2ldc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    import workloads

    if args.table:
        print("\n".join(harness.fingerprint_lines(harness.fingerprint())))
        print("\n".join(harness.baseline_table()))
        return 0
    golden = harness.load_golden(args.workload) if args.seed == workloads.DEFAULT_SEED else None
    result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  golden=golden)
    print("\n".join(result.lines))
    print(result.json_line(), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
