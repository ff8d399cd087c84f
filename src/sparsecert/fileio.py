"""On-disk formats: instance JSON, sweep config JSON, result CSVs.

All formats are frozen so reruns diff cleanly: CSVs are UTF-8 with LF line
endings, reals use Python's shortest round-trip repr (at most 17 significant
digits), booleans are 0/1, and row order follows the configured grid order.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .ensemble import EnsembleConfig, RecoveryCurve, TrialRecord
from .problem import ProblemInstance, normalize_support

SWEEP_HEADER = "p,k,n,alpha,rho_multiplier,rho,trial,seed,pwg_exact,dcl_exact"
AGG_HEADER = "p,alpha,rho_multiplier,pwg_rate,dcl_rate,trials"

_INSTANCE_KEYS = {"n", "p", "rho", "k", "X", "y", "support"}
_CONFIG_KEYS = {
    "p_list",
    "trials",
    "alpha_grid",
    "rho_multipliers",
    "gamma",
    "master_seed",
}


def fmt_real(x: float) -> str:
    """Shortest representation that round-trips the double exactly."""
    return repr(float(x))


def _require_int(doc: dict, key: str) -> int:
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)) or int(v) != v:
        raise ValueError(f"key {key!r} must be an integer")
    return int(v)


def _require_real(doc: dict, key: str) -> float:
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"key {key!r} must be a number")
    return float(v)


def _require_real_list(doc: dict, key: str, length: int) -> np.ndarray:
    v = doc[key]
    if not isinstance(v, list) or any(
        isinstance(x, bool) or not isinstance(x, (int, float)) for x in v
    ):
        raise ValueError(f"key {key!r} must be an array of numbers")
    if len(v) != length:
        raise ValueError(f"key {key!r} has length {len(v)}, expected {length}")
    return np.asarray(v, dtype=float)


def load_instance(path) -> tuple[ProblemInstance, tuple[int, ...] | None]:
    """Strict instance parse: keys n, p, rho, k, X (row-major flat array of
    n*p numbers), y, optional support. Unknown keys are rejected."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("instance file must be a JSON object")
    unknown = set(doc) - _INSTANCE_KEYS
    if unknown:
        raise ValueError(f"unknown key {sorted(unknown)[0]!r} in instance file")
    for key in ("n", "p", "rho", "k", "X", "y"):
        if key not in doc:
            raise ValueError(f"missing key {key!r} in instance file")
    n = _require_int(doc, "n")
    p = _require_int(doc, "p")
    rho = _require_real(doc, "rho")
    k = _require_int(doc, "k")
    X = _require_real_list(doc, "X", n * p).reshape(n, p)
    y = _require_real_list(doc, "y", n)
    inst = ProblemInstance(X=X, y=y, rho=rho, k=k)
    support = None
    if "support" in doc:
        raw = doc["support"]
        if not isinstance(raw, list):
            raise ValueError("key 'support' must be an array of integers")
        support = normalize_support(raw, p)
    return inst, support


def save_instance(path, inst: ProblemInstance, support=None) -> None:
    doc = {
        "n": inst.n,
        "p": inst.p,
        "rho": inst.rho,
        "k": inst.k,
        "X": [float(v) for v in inst.X.reshape(-1)],
        "y": [float(v) for v in inst.y],
    }
    if support is not None:
        doc["support"] = [int(i) for i in support]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_ensemble_config(path) -> EnsembleConfig:
    """Strict config parse (JSON mirror of EnsembleConfig, defaults applied)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file must be a JSON object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown key {sorted(unknown)[0]!r} in config file")
    for key in ("p_list", "trials"):
        if key not in doc:
            raise ValueError(f"missing key {key!r} in config file")
    kwargs: dict = {
        "p_list": doc["p_list"],
        "trials": _require_int(doc, "trials"),
    }
    if "alpha_grid" in doc:
        kwargs["alpha_grid"] = doc["alpha_grid"]
    if "rho_multipliers" in doc:
        kwargs["rho_multipliers"] = doc["rho_multipliers"]
    if "gamma" in doc:
        kwargs["gamma"] = _require_real(doc, "gamma")
    if "master_seed" in doc:
        kwargs["master_seed"] = _require_int(doc, "master_seed")
    return EnsembleConfig(**kwargs)


def write_sweep_csv(path, records: list[TrialRecord]) -> None:
    lines = [SWEEP_HEADER]
    for r in records:
        lines.append(
            ",".join(
                (
                    str(r.p),
                    str(r.k),
                    str(r.n),
                    fmt_real(r.alpha),
                    fmt_real(r.rho_multiplier),
                    fmt_real(r.rho),
                    str(r.trial_index),
                    str(r.trial_seed),
                    "1" if r.pwg_exact else "0",
                    "1" if r.dcl_exact else "0",
                )
            )
        )
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def write_agg_csv(path, curves: list[RecoveryCurve]) -> None:
    lines = [AGG_HEADER]
    for curve in curves:
        for alpha, pwg_rate, dcl_rate, trials in curve.points:
            lines.append(
                ",".join(
                    (
                        str(curve.p),
                        fmt_real(alpha),
                        fmt_real(curve.rho_multiplier),
                        fmt_real(pwg_rate),
                        fmt_real(dcl_rate),
                        str(trials),
                    )
                )
            )
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def read_agg_csv(path) -> list[dict]:
    """Rows of the aggregate CSV as dicts with typed fields."""
    text = Path(path).read_bytes().decode("utf-8")
    lines = [ln for ln in text.split("\n") if ln]
    if not lines or lines[0] != AGG_HEADER:
        raise ValueError("aggregate CSV missing expected header")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 6:
            raise ValueError(f"malformed aggregate CSV row: {ln!r}")
        rows.append(
            {
                "p": int(parts[0]),
                "alpha": float(parts[1]),
                "rho_multiplier": float(parts[2]),
                "pwg_rate": float(parts[3]),
                "dcl_rate": float(parts[4]),
                "trials": int(parts[5]),
            }
        )
    return rows
