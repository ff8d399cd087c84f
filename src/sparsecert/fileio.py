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

from .ensemble import EnsembleConfig, TrialRecord
from .problem import ProblemInstance, _is_number, normalize_support

SWEEP_HEADER = "p,k,n,alpha,rho_multiplier,rho,trial,seed,pwg_exact,dcl_exact"
# the aggregate CSV's columns, in order, each with the type it parses to
AGG_COLUMNS = {
    "p": int, "alpha": float, "rho_multiplier": float,
    "pwg_rate": float, "dcl_rate": float, "trials": int,
}
AGG_HEADER = ",".join(AGG_COLUMNS)

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
    try:
        return np.asarray(v, dtype=float)
    except OverflowError:  # an integer too large for a float
        raise ValueError(f"key {key!r} has an entry past the float range") from None


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


def _write_csv(path, header: str, lines) -> None:
    Path(path).write_bytes("\n".join((header, *lines, "")).encode("utf-8"))


def write_sweep_csv(path, records: list[TrialRecord]) -> None:
    # a conditional, not `:d`: formatting a bool with `:d` made this writer a third slower
    f = fmt_real
    _write_csv(path, SWEEP_HEADER, (
        f"{r.p},{r.k},{r.n},{f(r.alpha)},{f(r.rho_multiplier)},{f(r.rho)},{r.trial_index},"
        f"{r.trial_seed},{'1' if r.pwg_exact else '0'},{'1' if r.dcl_exact else '0'}"
        for r in records
    ))


def write_agg_csv(path, rows: list[dict]) -> None:
    """Write the rows of `ensemble.aggregate_curves`."""
    f = fmt_real
    _write_csv(path, AGG_HEADER, (
        f"{r['p']},{f(r['alpha'])},{f(r['rho_multiplier'])},"
        f"{f(r['pwg_rate'])},{f(r['dcl_rate'])},{r['trials']}"
        for r in rows
    ))


def read_agg_csv(path) -> list[dict]:
    """The aggregate CSV's rows, typed and keyed as `aggregate_curves` gives
    them. Every p and trial count must be at least 1, every alpha and rho
    multiplier a finite positive real and every rate a real in [0, 1]."""
    text = Path(path).read_bytes().decode("utf-8")
    lines = [ln for ln in text.split("\n") if ln]
    if not lines or lines[0] != AGG_HEADER:
        raise ValueError("aggregate CSV missing expected header")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(AGG_COLUMNS):
            raise ValueError(f"malformed aggregate CSV row: {ln!r}")
        row = {name: parse(part) for (name, parse), part in zip(AGG_COLUMNS.items(), parts)}
        # the comparisons are false for nan, and they exclude inf
        grid_ok = row["p"] >= 1 and 0.0 < row["alpha"] < np.inf and 0.0 < row["rho_multiplier"] < np.inf
        if not (grid_ok and 0.0 <= row["pwg_rate"] <= 1.0 and 0.0 <= row["dcl_rate"] <= 1.0 and row["trials"] >= 1):
            raise ValueError(f"aggregate CSV row {ln!r} needs p >= 1, finite positive alpha and"
                             " rho_multiplier, rates in [0, 1] and trials >= 1")
        rows.append(row)
    return rows
