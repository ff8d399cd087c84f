"""Exactness certificates for semidefinite relaxations of sparse ridge
regression, with brute-force/continuous oracles and a Gaussian-ensemble
support-recovery harness."""

from .certificates import (
    CertOutcome,
    DclCertificate,
    KktReport,
    PwgCertificate,
    SupportContext,
    check_dcl,
    check_pwg,
    kkt_variables,
    pwg_witness_to_dcl,
    verify_dcl_certificate,
    verify_kkt,
)
from .ensemble import (
    EnsembleConfig,
    TrialRecord,
    aggregate_curves,
    evaluate_trial,
    generate_instance,
    run_sweep,
)
from .linalg import (
    RestrictedRidgeSolution,
    correlation_scores,
    max_eig_sym,
    ridge_restricted_solve,
)
from .oracles import (
    BruteForceResult,
    PwgValueResult,
    brute_force_l0,
    project_capped_simplex,
    pwg_value,
)
from .problem import DEFAULT_REL_TOL, ProblemInstance, normalize_support
from .rng import SplitMix64, seed_derive

__version__ = "0.1.0"

__all__ = [
    "CertOutcome",
    "DclCertificate",
    "EnsembleConfig",
    "KktReport",
    "ProblemInstance",
    "PwgCertificate",
    "BruteForceResult",
    "PwgValueResult",
    "RestrictedRidgeSolution",
    "SplitMix64",
    "SupportContext",
    "TrialRecord",
    "DEFAULT_REL_TOL",
    "aggregate_curves",
    "brute_force_l0",
    "check_dcl",
    "check_pwg",
    "correlation_scores",
    "evaluate_trial",
    "generate_instance",
    "kkt_variables",
    "max_eig_sym",
    "normalize_support",
    "project_capped_simplex",
    "pwg_value",
    "pwg_witness_to_dcl",
    "ridge_restricted_solve",
    "run_sweep",
    "seed_derive",
    "verify_dcl_certificate",
    "verify_kkt",
]
