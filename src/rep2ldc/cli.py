"""Command-line interface.

Subcommands: rank-scan, construct, verify, demo, fixtures.  Exit codes
are a stable contract: 0 ok, 1 parse error (also a fixture whose field
does not suit it: even p, no root of unity, p dividing k; a singular
generator; an element position outside [0, |G|); a scalar flag that is
not a field element), 2 cap exceeded, 3 verification or bound
failure, 4 degenerate input (zero combination / identity element /
scalar multiple of identity), 5 spanning failure.
All randomness flows from --seed through one named generator, so reruns
with identical arguments produce byte-identical certificates.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import __version__
from .bounds import avg_fixed_space, check_rank_separation, entropy_audit
from .certcheck import verify_cert_json
from .construct import build_q_ldc, build_special_2ldc, lambda_variant
from .errors import (
    BadCharacteristic,
    CapExceeded,
    CharTwo,
    IdentityElement,
    NoRootOfUnity,
    OrbitDoesNotSpan,
    ParseError,
    Rep2LdcError,
    ScalarMultipleOfIdentity,
    ZeroMatrix,
)
from .fields import Field
from .fixtures import FIXTURES, parse_fixture, signed_shift_group
from .groups import burnside_irreducible
from .ldc import verify as ldc_verify
from .serialize import (
    cert_to_json,
    detect_kind,
    dump_json,
    group_export_json,
    group_from_spec_json,
    ldc_from_json,
    load_json,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CAP = 2
EXIT_VERIFY = 3
EXIT_DEGENERATE = 4
EXIT_SPANNING = 5


def _load_group(args):
    if getattr(args, "fixture", None):
        return parse_fixture(args.fixture, cap=args.cap)
    if getattr(args, "input", None):
        return group_from_spec_json(load_json(args.input), cap=args.cap)
    raise ParseError("need --fixture or --input to name a group")


def _parse_scalar_list(text: str) -> list:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        out.append(Fraction(chunk))
    return out


def _canon_flag(field: Field, values: list, flag: str) -> list:
    """Scalars of a command-line flag as canonical elements of `field`."""
    try:
        return [field.canon(x) for x in values]
    except ZeroDivisionError as exc:
        raise ParseError(f"{flag}: {exc}") from exc


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_rank_scan(args) -> int:
    group = _load_group(args)
    reports = check_rank_separation(group)
    irreducible = burnside_irreducible(group)
    all_ok = all(r.satisfied and r.uniform_satisfied for r in reports)
    if args.format == "json":
        _emit(args, json.dumps({
            "group_size": len(group),
            "dim": group.dim,
            "burnside_irreducible": irreducible,
            "all_satisfied": all_ok,
            "reports": [r.to_json() for r in reports],
        }, indent=2, sort_keys=True))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["h", "order", "gamma", "theta", "rank", "bound", "satisfied",
                         "uniform_satisfied"])
        for r in reports:
            writer.writerow(r.csv_row())
        _emit(args, buf.getvalue().rstrip("\n"))
    else:
        lines = [
            f"group: {len(group)} elements, dim {group.dim}, "
            f"burnside irreducible: {irreducible}",
            f"{'h':>5} {'ord':>4} {'gamma':>6} {'rank':>4} {'bound':>9} ok",
        ]
        for r in reports:
            lines.append(
                f"{r.h:>5} {r.order:>4} {str(r.gamma):>6} {r.actual_rank:>4} "
                f"{r.bound.value:>9.4f} {'yes' if r.satisfied else 'NO'}"
            )
        lines.append(f"all satisfied: {all_ok}")
        _emit(args, "\n".join(lines))
    return EXIT_OK if all_ok else EXIT_VERIFY


def cmd_construct(args) -> int:
    group = _load_group(args)
    modes = sum(1 for flag in (args.special2, args.q is not None, args.lam is not None) if flag)
    if modes != 1:
        raise ParseError("choose exactly one of --special2, --q, --lambda")
    if args.special2:
        if args.h is None:
            raise ParseError("--special2 needs --h INDEX")
        cert = build_special_2ldc(group, args.h, seed=args.seed)
    elif args.lam is not None:
        if args.h is None:
            raise ParseError("--lambda needs --h INDEX")
        (lam,) = _canon_flag(group.field, [args.lam], "--lambda")
        cert = lambda_variant(group, args.h, lam, seed=args.seed)
    else:
        if not args.hs or not args.alphas:
            raise ParseError("--q needs --hs and --alphas lists")
        hs = [int(x) for x in _parse_scalar_list(args.hs)]
        alphas = _canon_flag(group.field, _parse_scalar_list(args.alphas), "--alphas")
        if args.q != len(hs):
            raise ParseError("--q must equal the number of --hs entries")
        cert = build_q_ldc(group, hs, alphas, seed=args.seed)
    doc = cert_to_json(cert)
    out = args.output or "cert.json"
    dump_json(doc, out)
    audit_verdict = "n/a"
    if cert.code.form == "special2":
        audit_verdict = "pass" if entropy_audit(cert.code).passed else "FAIL"
    print(
        f"wrote {out}: kind={cert.kind} m={cert.code.m} t={cert.t} R={cert.R} "
        f"delta={cert.achieved_delta} (claimed {cert.code.claimed_delta}) "
        f"entropy-audit={audit_verdict}"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    if not args.input:
        raise ParseError("verify needs --input FILE")
    doc = load_json(args.input)
    kind = detect_kind(doc)
    if kind == "cert":
        report = verify_cert_json(doc)
        payload = report.to_json()
        passed = report.passed
    elif kind == "ldc":
        instance = ldc_from_json(doc)
        code_report = ldc_verify(instance)
        audit = None
        failures = []
        if instance.form == "special2":
            try:
                audit = entropy_audit(instance)
            except Rep2LdcError as exc:
                failures.append(f"entropy audit rejected the instance: {exc}")
        payload = {
            "kind": "ldc",
            "passed": code_report.passed
            and not failures
            and (audit is None or audit.passed),
            "failures": failures,
            "code_report": code_report.to_json(),
            "entropy_audit": None if audit is None else audit.to_json(),
        }
        passed = payload["passed"]
    else:
        raise ParseError("verify expects an ldc or cert document, got a group spec")
    if args.format == "json":
        _emit(args, json.dumps(payload, indent=2, sort_keys=True))
    else:
        lines = [f"document: {payload['kind']}", f"passed: {payload['passed']}"]
        failures = payload.get("failures", [])
        for f in failures:
            lines.append(f"  failure: {f}")
        code_rep = payload.get("code_report")
        if code_rep:
            lines.append(
                f"code: m={code_rep['m']} t={code_rep['t']} "
                f"delta={code_rep['achieved_delta']} "
                f"(claimed {code_rep['claimed_delta']})"
            )
            for c in code_rep["coordinates"]:
                if c["span_failures"]:
                    lines.append(
                        f"  coordinate {c['coordinate']}: bad sets {c['span_failures']}"
                    )
        aud = payload.get("entropy_audit")
        if aud is None:
            if not payload.get("failures"):
                lines.append("entropy audit: not applicable (general form)")
        else:
            lines.append(
                f"entropy audit: H(X)={aud['entropy']:.6f}, "
                f"log2(m) vs 2*delta*t: {aud['code_size_relation']}, "
                f"passed={aud['passed']}"
            )
        _emit(args, "\n".join(lines))
    return EXIT_OK if passed else EXIT_VERIFY


def cmd_demo(args) -> int:
    field = Field(args.field)
    print(f"building the signed-shift group on F^4 over {field!r} ...")
    group = signed_shift_group(4, args.field, cap=args.cap)
    refl = group.generators[0]
    print(f"  size {len(group)} (= 4 * 2^4), burnside irreducible: "
          f"{burnside_irreducible(group)}")

    from .linalg import Matrix, rank
    witness_rank = rank(group.matrix(refl) - Matrix.identity(field, 4))
    print(f"  reflection at position {refl}: rank(rho(h) - I) = {witness_rank}")

    cert = build_special_2ldc(group, refl, seed=args.seed)
    print(f"special 2-LDC: m={cert.code.m} t={cert.t} R={cert.R} "
          f"delta={cert.achieved_delta} (floor {cert.code.claimed_delta})")
    code_report = ldc_verify(cert.code)
    print(f"  code verification: {'pass' if code_report.passed else 'FAIL'}")

    audit = entropy_audit(cert.code)
    print(f"  entropy audit: H(X)={audit.entropy_value:.6f}, "
          f"log2(m) >= 2*delta*t: {audit.log2m_ge_2dt}, passed: {audit.passed}")

    reports = check_rank_separation(group)
    ok = sum(1 for r in reports if r.satisfied)
    print(f"rank scan: {ok}/{len(reports)} non-identity elements satisfy the bound")

    afs = avg_fixed_space(group)
    print(f"average fixed-space dimension: {afs.average} <= {afs.bound}: {afs.passed}")

    all_ok = (
        code_report.passed
        and audit.passed
        and ok == len(reports)
        and afs.passed
    )
    print(f"demo verdict: {'all checks green' if all_ok else 'FAILURES PRESENT'}")
    return EXIT_OK if all_ok else EXIT_VERIFY


def cmd_fixtures(args) -> int:
    if args.action == "list" or not args.fixture:
        lines = []
        for name, (_, params, desc) in sorted(FIXTURES.items()):
            lines.append(f"{name}({', '.join(params)}): {desc}")
        print("\n".join(lines))
        return EXIT_OK
    group = parse_fixture(args.fixture, cap=args.cap)
    doc = group_export_json(group) if args.full else group.spec_json()
    out = args.output
    if out:
        dump_json(doc, out)
        print(f"wrote {out}: {len(group)} elements")
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rep2ldc",
        description="Reductions from finite matrix-group representations to "
        "locally decodable codes, with exact verification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_group=True):
        if with_group:
            p.add_argument("--input", help="input JSON file")
            p.add_argument("--fixture", help="fixture spec, e.g. signed_shift(4,3)")
        p.add_argument("--cap", type=int, default=None,
                       help="group size cap (default from REP2LDC_CAP or 200000)")
        p.add_argument("--seed", type=int, default=0, help="deterministic seed")
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--output", help="write the report/file here instead of stdout")

    p_scan = sub.add_parser("rank-scan", help="check the rank bound for every element")
    add_common(p_scan)
    p_scan.set_defaults(func=cmd_rank_scan)

    p_con = sub.add_parser("construct", help="run the LDC construction pipeline")
    add_common(p_con)
    p_con.add_argument("--h", type=int, default=None, help="element position index")
    p_con.add_argument("--hs", help="comma-separated element positions (general q)")
    p_con.add_argument("--alphas", help="comma-separated scalars (general q)")
    p_con.add_argument("--q", type=int, default=None, help="query arity for general form")
    p_con.add_argument("--special2", action="store_true", help="special 2-LDC pipeline")
    p_con.add_argument("--lambda", dest="lam", type=Fraction, default=None,
                       help="build the lambda variant rho(h) - lambda*I")
    p_con.set_defaults(func=cmd_construct)

    p_ver = sub.add_parser("verify", help="re-verify an ldc or cert JSON file")
    add_common(p_ver, with_group=False)
    p_ver.add_argument("--input", required=False, help="ldc or cert JSON file")
    p_ver.set_defaults(func=cmd_verify)

    p_demo = sub.add_parser("demo", help="full narrative on the signed-shift group")
    add_common(p_demo, with_group=False)
    p_demo.add_argument("--field", type=int, default=3,
                        help="field characteristic (0 for the rationals)")
    p_demo.set_defaults(func=cmd_demo)

    p_fix = sub.add_parser("fixtures", help="list or export built-in fixtures")
    p_fix.add_argument("action", nargs="?", choices=("list", "export"), default="list")
    add_common(p_fix)
    p_fix.add_argument("--full", action="store_true",
                       help="export the full element list, not just the spec")
    p_fix.set_defaults(func=cmd_fixtures)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError, CharTwo, NoRootOfUnity, BadCharacteristic) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ZeroMatrix, IdentityElement, ScalarMultipleOfIdentity) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except OrbitDoesNotSpan as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPANNING


if __name__ == "__main__":
    sys.exit(main())
