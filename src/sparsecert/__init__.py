"""Exactness certificates for semidefinite relaxations of sparse ridge
regression, with brute-force/continuous oracles and a Gaussian-ensemble
support-recovery harness.

The top level holds the user path: build a `ProblemInstance`, decide both
relaxations on a `SupportContext`, re-verify with `verify_dcl_certificate`,
compare with the oracles, and sweep. Every other name lives only in the
module that defines it."""

from .certificates import (
    CertOutcome,
    DclCertificate,
    PwgCertificate,
    SupportContext,
    check_dcl,
    check_pwg,
    verify_dcl_certificate,
)
from .ensemble import EnsembleConfig, TrialRecord, aggregate_curves, generate_instance, run_sweep
from .oracles import BruteForceResult, PwgValueResult, brute_force_l0, pwg_value
from .problem import ProblemInstance

__version__ = "0.1.0"

__all__ = [
    "ProblemInstance",
    "SupportContext",
    "check_pwg",
    "check_dcl",
    "verify_dcl_certificate",
    "CertOutcome",
    "PwgCertificate",
    "DclCertificate",
    "brute_force_l0",
    "pwg_value",
    "BruteForceResult",
    "PwgValueResult",
    "EnsembleConfig",
    "TrialRecord",
    "generate_instance",
    "run_sweep",
    "aggregate_curves",
]
