"""Command-line interface.

Subcommands: rank-scan, construct, verify, demo, fixtures; each takes only
the flags it reads (_build_parser).  Exit codes are a stable contract:
0 ok, 1 parse error (also a usage error: a missing subcommand, an unknown
flag, a bad flag value, an integer not in ASCII -?[0-9]+; a fixture whose
field does not suit it: even p, no
root of unity, p dividing k; a singular generator; a cap below 1; an
element position outside [0, |G|); a scalar flag that is not a field
element), 2 cap exceeded, 3 verification or bound failure, 4 degenerate
input (zero combination / identity element / scalar multiple of identity),
5 spanning failure, 6 internal inconsistency (a bug),
7 randomized search budget exhausted, 141 the reader closed stdout early
(128 + SIGPIPE, quietly).  --help and --version exit 0.  EXIT_CODES gives
the code of every error class.  All randomness flows from --seed through
one named generator, so reruns give byte-identical certificates.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys

from . import __version__
from .bounds import avg_fixed_space, check_rank_separation, entropy_audit
from .certcheck import CertCheckReport, verify_cert_json
from .construct import build_q_ldc, build_special_2ldc, lambda_variant
from .errors import (
    BadCharacteristic,
    BudgetExhausted,
    CapExceeded,
    CharTwo,
    DimensionMismatch,
    IdentityElement,
    InternalInconsistency,
    MatchingCrossesPrefixClass,
    NoRootOfUnity,
    NotInvertible,
    OrbitDoesNotSpan,
    PairNotSeparated,
    ParseError,
    Rep2LdcError,
    ScalarMultipleOfIdentity,
    ZeroMatrix,
)
from .fields import Field, _int_from_text, rational_from_json
from .fixtures import FIXTURES, parse_fixture, signed_shift_group
from .groups import DEFAULT_CAP, burnside_irreducible
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
EXIT_INTERNAL = 6
EXIT_BUDGET = 7
EXIT_PIPE = 141  # 128 + SIGPIPE: the reader closed stdout before the report ended

# Exit code per error class; main uses the first class in the error's MRO.
EXIT_CODES = {
    ValueError: EXIT_PARSE,
    ParseError: EXIT_PARSE,
    DimensionMismatch: EXIT_PARSE,
    NotInvertible: EXIT_PARSE,
    CharTwo: EXIT_PARSE,
    NoRootOfUnity: EXIT_PARSE,
    BadCharacteristic: EXIT_PARSE,
    CapExceeded: EXIT_CAP,
    PairNotSeparated: EXIT_VERIFY,
    MatchingCrossesPrefixClass: EXIT_VERIFY,
    ZeroMatrix: EXIT_DEGENERATE,
    IdentityElement: EXIT_DEGENERATE,
    ScalarMultipleOfIdentity: EXIT_DEGENERATE,
    OrbitDoesNotSpan: EXIT_SPANNING,
    InternalInconsistency: EXIT_INTERNAL,
    BudgetExhausted: EXIT_BUDGET,
    Rep2LdcError: EXIT_INTERNAL,  # a class missing above
}


def _load_group(args):
    if args.fixture:
        return parse_fixture(args.fixture, cap=args.cap)
    if args.input:
        return group_from_spec_json(load_json(args.input), cap=args.cap)
    raise ParseError("need --fixture or --input to name a group")


def _scalar_flag(field: Field, text: str, flag: str):
    """One scalar of a command-line flag as a canonical element of `field`.

    The stripped text is read as the file readers read it
    (fields.rational_from_json); other text, a zero denominator and, over
    GF(p), a denominator that is not a unit are each a ParseError naming
    the flag.
    """
    try:
        return field.canon(rational_from_json(text.strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{flag}: bad scalar {text.strip()!r}: {exc}") from exc


def _emit(args, text: str) -> None:
    """A text or CSV report, plus a newline, to --output or stdout."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
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
        dump_json({
            "group_size": len(group),
            "dim": group.dim,
            "burnside_irreducible": irreducible,
            "all_satisfied": all_ok,
            "reports": [r.to_json() for r in reports],
        }, args.output)
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
        lam = _scalar_flag(group.field, args.lam, "--lambda")
        cert = lambda_variant(group, args.h, lam, seed=args.seed)
    else:
        if not args.hs or not args.alphas:
            raise ParseError("--q needs --hs and --alphas lists")
        hs = [_int_from_text(chunk, "--hs") for chunk in args.hs.split(",")]
        alphas = [_scalar_flag(group.field, chunk, "--alphas") for chunk in args.alphas.split(",")]
        if args.q != len(hs):
            raise ParseError("--q must equal the number of --hs entries")
        cert = build_q_ldc(group, hs, alphas, seed=args.seed)
    out = args.output or "cert.json"
    dump_json(cert_to_json(cert), out)
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
    doc = load_json(args.input)
    kind = detect_kind(doc)
    if kind == "cert":
        report = verify_cert_json(doc, args.cap)
    elif kind == "ldc":
        instance = ldc_from_json(doc)
        code_report, audit, failures = ldc_verify(instance), None, ()
        if instance.form == "special2":
            try:
                audit = entropy_audit(instance)
            except Rep2LdcError as exc:
                failures = (f"entropy audit rejected the instance: {exc}",)
        report = CertCheckReport(kind="ldc", failures=failures,
                                 code_report=code_report, audit=audit)
    else:
        raise ParseError("verify expects an ldc or cert document, got a group spec")
    payload, passed = report.to_json(), report.passed
    if args.format == "json":
        dump_json(payload, args.output)
    else:
        lines = [f"document: {payload['kind']}", f"passed: {payload['passed']}"]
        lines += [f"  failure: {f}" for f in payload["failures"]]
        code_rep = payload["code_report"]
        lines.append(
            f"code: m={code_rep['m']} t={code_rep['t']} "
            f"delta={code_rep['achieved_delta']} "
            f"(claimed {code_rep['claimed_delta']})"
        )
        lines += [f"  coordinate {c['coordinate']}: bad sets {c['span_failures']}"
                  for c in code_rep["coordinates"] if c["span_failures"]]
        aud = payload["entropy_audit"]
        if aud is not None:
            lines.append(
                f"entropy audit: H(X)={aud['entropy']:.6f}, "
                f"log2(m) vs 2*delta*t: {aud['code_size_relation']}, "
                f"passed={aud['passed']}"
            )
        elif not payload["failures"]:
            lines.append("entropy audit: not applicable (general form)")
        _emit(args, "\n".join(lines))
    return EXIT_OK if passed else EXIT_VERIFY


def cmd_demo(args) -> int:
    field = Field(args.field)
    print(f"building the signed-shift group on F^4 over {field!r} ...")
    group = signed_shift_group(4, args.field, cap=args.cap)
    refl = group.generators[0]
    print(f"  size {len(group)} (= 4 * 2^4), burnside irreducible: "
          f"{burnside_irreducible(group)}")

    witness_rank = group.orders_and_ranks()[1][refl]
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
    if args.action == "list":
        if args.fixture or args.output or args.full or args.cap is not None:
            raise ParseError("fixtures list takes no flags; export takes --fixture")
        lines = []
        for name, (_, params, desc) in sorted(FIXTURES.items()):
            lines.append(f"{name}({', '.join(params)}): {desc}")
        print("\n".join(lines))
        return EXIT_OK
    if not args.fixture:
        raise ParseError("fixtures export needs --fixture NAME")
    group = parse_fixture(args.fixture, cap=args.cap)
    dump_json(group_export_json(group) if args.full else group.spec_json(), args.output)
    if args.output:
        print(f"wrote {args.output}: {len(group)} elements")
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Flags only as spelled (no prefixes: `rank-scan --h` is not --help);
    a usage error is a ParseError, exit 1, not argparse's 2, the cap code."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ParseError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rep2ldc",
        description="Reductions from finite matrix-group representations to "
        "locally decodable codes, with exact verification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)  # subparsers are _Parser too

    def integer(flag):  # the type of an integer flag: fields._int_from_text naming it
        return lambda text: _int_from_text(text, flag)

    def cap(p):
        p.add_argument("--cap", type=integer("--cap"), default=None,
                       help=f"group element cap (default {DEFAULT_CAP})")

    def group(p):
        p.add_argument("--input", help="group spec JSON file")
        p.add_argument("--fixture", help="fixture spec, e.g. signed_shift(4,3)")
        cap(p)

    def report(p, formats):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", help="write the report here instead of stdout")

    p_scan = sub.add_parser("rank-scan", help="check the rank bound for every element")
    group(p_scan)
    report(p_scan, ("text", "json", "csv"))
    p_scan.set_defaults(func=cmd_rank_scan)

    p_con = sub.add_parser("construct", help="run the LDC construction pipeline")
    group(p_con)
    p_con.add_argument("--seed", type=integer("--seed"), default=0, help="deterministic seed")
    p_con.add_argument("--output", help="certificate file (default cert.json)")
    p_con.add_argument("--h", type=integer("--h"), default=None, help="element position index")
    p_con.add_argument("--hs", help="comma-separated element positions (general q)")
    p_con.add_argument("--alphas", help="comma-separated scalars (general q)")
    p_con.add_argument("--q", type=integer("--q"), default=None,
                       help="query arity for general form")
    p_con.add_argument("--special2", action="store_true", help="special 2-LDC pipeline")
    p_con.add_argument("--lambda", dest="lam", default=None,
                       help="build the lambda variant rho(h) - lambda*I")
    p_con.set_defaults(func=cmd_construct)

    p_ver = sub.add_parser("verify", help="re-verify an ldc or cert JSON file")
    p_ver.add_argument("--input", required=True, help="ldc or cert JSON file")
    cap(p_ver)
    report(p_ver, ("text", "json"))
    p_ver.set_defaults(func=cmd_verify)

    p_demo = sub.add_parser("demo", help="full narrative on the signed-shift group")
    cap(p_demo)
    p_demo.add_argument("--seed", type=integer("--seed"), default=0, help="deterministic seed")
    p_demo.add_argument("--field", type=integer("--field"), default=3,
                        help="field characteristic (0 for the rationals)")
    p_demo.set_defaults(func=cmd_demo)

    p_fix = sub.add_parser("fixtures", help="list or export built-in fixtures")
    p_fix.add_argument("action", nargs="?", choices=("list", "export"), default="list")
    p_fix.add_argument("--fixture", help="fixture spec to export, e.g. signed_shift(4,3)")
    cap(p_fix)
    p_fix.add_argument("--output", help="write the export here instead of stdout")
    p_fix.add_argument("--full", action="store_true",
                       help="export the full element list, not just the spec")
    p_fix.set_defaults(func=cmd_fixtures)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the interpreter's final flush
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # silences that flush
        return EXIT_PIPE
    except (Rep2LdcError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(EXIT_CODES[c] for c in type(exc).__mro__ if c in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
