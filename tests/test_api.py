"""The package's top-level API: the user path and nothing else, and the
README's Python examples run against it as written."""

import importlib
import re
from pathlib import Path

import pytest

import sparsecert

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = {
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
}

# references, helpers and kernels that live only in their own module
MODULE_ONLY = {
    "verify_kkt": "certificates",
    "KktReport": "certificates",
    "kkt_variables": "certificates",
    "pwg_witness_to_dcl": "certificates",
    "evaluate_trial": "ensemble",
    "correlation_scores": "linalg",
    "max_eig_sym": "linalg",
    "ridge_restricted_solve": "linalg",
    "RidgeFit": "linalg",
    "ridge_fit": "linalg",
    "project_capped_simplex": "oracles",
    "tie_window": "oracles",
    "normalize_support": "problem",
    "DEFAULT_REL_TOL": "problem",
    "SplitMix64": "rng",
    "seed_derive": "rng",
}


def test_all_lists_exactly_the_user_path():
    assert len(sparsecert.__all__) == len(PUBLIC)
    assert set(sparsecert.__all__) == PUBLIC


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from sparsecert import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


@pytest.mark.parametrize("name", sorted(MODULE_ONLY))
def test_module_only_names_import_from_their_module(name):
    module = importlib.import_module(f"sparsecert.{MODULE_ONLY[name]}")
    assert hasattr(module, name)
    assert not hasattr(sparsecert, name)


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks, "README.md has no ```python block"
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
