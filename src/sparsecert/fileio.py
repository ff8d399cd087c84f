"""On-disk formats: instance JSON, sweep config JSON, result CSVs.

All formats are frozen so reruns diff cleanly: CSVs are UTF-8 with LF line
endings, reals use Python's shortest round-trip repr (at most 17 significant
digits), booleans are 0/1, and row order follows the configured grid order.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .ensemble import EnsembleConfig, RecoveryCurve, TrialRecord
from .problem import ProblemInstance, _is_number, normalize_support

SWEEP_HEADER = "p,k,n,alpha,rho_multiplier,rho,trial,seed,pwg_exact,dcl_exact"
AGG_HEADER = "p,alpha,rho_multiplier,pwg_rate,dcl_rate,trials"

_INSTANCE_KEYS = {"n", "p", "rho", "k", "X", "y", "support"}


def fmt_real(x: float) -> str:
    """Shortest representation that round-trips the double exactly."""
    return repr(float(x))


def _require_number(doc: dict, key: str, kind: type):
    if not _is_number(doc[key], kind):
        raise ValueError(f"key {key!r} must be a finite {'integer' if kind is int else 'number'}")
    return kind(doc[key])


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
    n, p, k = (_require_number(doc, key, int) for key in ("n", "p", "k"))
    rho = _require_number(doc, "rho", float)
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
    """Strict config parse: a JSON object whose keys are EnsembleConfig's
    fields, the required ones present. The fields check their own values."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file must be a JSON object")
    fields = dataclasses.fields(EnsembleConfig)
    required = {
        f.name for f in fields
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    }
    problems = [f"unknown key {key!r}" for key in sorted(set(doc) - {f.name for f in fields})]
    problems += [f"missing key {key!r}" for key in sorted(required - set(doc))]
    if problems:
        raise ValueError(", ".join(problems) + " in config file")
    return EnsembleConfig(**doc)


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
