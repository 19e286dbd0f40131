"""rep2ldc: from irreducible matrix-group representations to locally
decodable codes, with exact rank and entropy bound verification.

Everything is exact: GF(p) residues on int64 arrays, reduced by numpy
kernels that fall back to Python integers where int64 could overflow,
and Fractions over the rationals.
"""

__version__ = "0.1.0"

from .bounds import (
    AvgFixedSpaceReport,
    BoundReport,
    EntropyAudit,
    LogBound,
    avg_fixed_space,
    check_rank_separation,
    entropy,
    entropy_audit,
    gamma,
    lambda_bound,
    match_entropy_check,
    theta,
)
from .certcheck import CertCheckReport, cert_from_json, verify_cert, verify_cert_json
from .construct import (
    ConstructionCert,
    SpanningFamily,
    beta,
    build_q_ldc,
    build_special_2ldc,
    check_spanning_identities,
    choose_z,
    combine,
    dual_vectors,
    lambda_variant,
    minimal_spanning_family,
    orbit_projection_check,
    spanning_tuple_identity,
)
from .fields import GF, QQ, Field
from .fixtures import dihedral_rep, parse_fixture, signed_shift_group, symmetric_standard_rep
from .groups import (
    CycleDecomposition,
    MatrixGroup,
    burnside_irreducible,
    close_group,
    fixed_space,
    mult_cycles,
    spin,
)
from .ldc import (
    LdcInstance,
    QMatching,
    VerificationReport,
    achieved_delta,
    greedy_matching_general,
    hadamard,
    max_special_matching,
    verify,
)
from .linalg import (
    Matrix,
    Subspace,
    apply_to_subspace,
    invert,
    nullspace,
    orth_complement,
    rank,
    rank_factorize,
    rref,
    subspace_contains,
    subspace_sum,
)
from .serialize import (
    cert_to_json,
    group_export_json,
    group_from_spec_json,
    group_spec_to_json,
    ldc_from_json,
    ldc_to_json,
    matrix_from_json,
    matrix_to_json,
)

__all__ = [
    "__version__",
    # fields
    "Field", "GF", "QQ",
    # linalg
    "Matrix", "Subspace", "rref", "rank", "nullspace", "rank_factorize",
    "orth_complement", "subspace_sum", "subspace_contains", "apply_to_subspace",
    "invert",
    # groups
    "MatrixGroup", "CycleDecomposition", "close_group", "mult_cycles",
    "burnside_irreducible", "spin", "fixed_space",
    # ldc
    "QMatching", "LdcInstance", "VerificationReport", "verify", "achieved_delta",
    "max_special_matching", "greedy_matching_general", "hadamard",
    # construct
    "ConstructionCert", "SpanningFamily", "combine", "minimal_spanning_family",
    "dual_vectors", "beta", "choose_z", "spanning_tuple_identity",
    "check_spanning_identities", "build_q_ldc", "build_special_2ldc",
    "lambda_variant", "orbit_projection_check",
    # bounds
    "theta", "gamma", "LogBound", "BoundReport", "check_rank_separation",
    "lambda_bound", "entropy", "match_entropy_check", "EntropyAudit",
    "entropy_audit", "AvgFixedSpaceReport", "avg_fixed_space",
    # fixtures
    "signed_shift_group", "dihedral_rep", "symmetric_standard_rep", "parse_fixture",
    # serialization / certs
    "matrix_to_json", "matrix_from_json", "group_spec_to_json",
    "group_from_spec_json", "group_export_json", "ldc_to_json", "ldc_from_json",
    "cert_to_json", "cert_from_json", "verify_cert", "verify_cert_json",
    "CertCheckReport",
]
