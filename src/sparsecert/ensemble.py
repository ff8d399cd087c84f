"""Gaussian-ensemble recovery experiments.

Each cell of the sweep grid is (p, alpha, rho_multiplier). A trial draws a
standard-normal design, plants a k-sparse +/-1 signal on a uniform random
support, observes it through Gaussian noise, and asks whether each relaxation
certifies exactness at the true support:

    k = ceil(sqrt(p)),  n = ceil(alpha * k * ln(p - k)),
    rho = rho_multiplier * sqrt(n),  y = X beta* + noise_std * eps.

Trials are seeded independently through `seed_derive`, so parallel and serial
sweeps produce identical records.
"""

from __future__ import annotations

import math
import numbers
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .certificates import SupportContext, check_dcl, check_pwg
from .problem import ProblemInstance
from .rng import SplitMix64, seed_derive

DEFAULT_ALPHA_GRID = [1.0 + 0.5 * i for i in range(19)]  # 1, 1.5, ..., 10
DEFAULT_RHO_MULTIPLIERS = [2.0, 3.0, 4.0, 6.0, 8.0, 12.0]
DEFAULT_NOISE_STD = 0.5


def _grid(values, name: str, kind: type) -> list:
    """A config grid as a list of `kind` (int or float). Anything but a
    nonempty list of finite real numbers that `kind` keeps unchanged is
    rejected: booleans, strings, null, inf, NaN, and 16.5 as an int."""
    if not isinstance(values, list) or not values:
        raise ValueError(f"{name} must be a nonempty list")
    for v in values:
        if (
            isinstance(v, bool)
            or not isinstance(v, numbers.Real)
            or not (abs(v) <= sys.float_info.max and kind(v) == v)
        ):
            raise ValueError(f"{name} entries must be finite {kind.__name__}s, got {v!r}")
    return [kind(v) for v in values]


@dataclass
class EnsembleConfig:
    p_list: list[int]
    trials: int
    alpha_grid: list[float] = field(default_factory=lambda: list(DEFAULT_ALPHA_GRID))
    rho_multipliers: list[float] = field(
        default_factory=lambda: list(DEFAULT_RHO_MULTIPLIERS)
    )
    gamma: float = DEFAULT_NOISE_STD
    master_seed: int = 0

    def __post_init__(self) -> None:
        self.p_list = _grid(self.p_list, "p_list", int)
        self.alpha_grid = _grid(self.alpha_grid, "alpha_grid", float)
        self.rho_multipliers = _grid(self.rho_multipliers, "rho_multipliers", float)
        if len(set(self.p_list)) != len(self.p_list):
            raise ValueError("p_list entries must be distinct")
        if len(set(self.alpha_grid)) != len(self.alpha_grid):
            raise ValueError("alpha_grid entries must be distinct")
        if len(set(self.rho_multipliers)) != len(self.rho_multipliers):
            raise ValueError("rho_multipliers entries must be distinct")
        for p in self.p_list:
            if p < 4:
                raise ValueError(f"p={p} too small (need p >= 4 so that k < p - 1)")
        for a in self.alpha_grid:
            if a <= 0:
                raise ValueError("alpha values must be positive")
        for r in self.rho_multipliers:
            if r <= 0:
                raise ValueError("rho multipliers must be positive")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        # seed_derive reads the seed mod 2^64: a wider one would alias another
        if (
            isinstance(self.master_seed, bool)
            or not isinstance(self.master_seed, numbers.Integral)
            or not 0 <= self.master_seed < 2**64
        ):
            raise ValueError(f"master_seed must be an integer in [0, 2^64), got {self.master_seed!r}")


@dataclass
class TrialRecord:
    p: int
    k: int
    n: int
    alpha: float
    rho_multiplier: float
    rho: float
    trial_index: int
    trial_seed: int
    pwg_exact: bool
    dcl_exact: bool


@dataclass
class RecoveryCurve:
    p: int
    rho_multiplier: float
    points: list[tuple[float, float, float, int]]  # (alpha, pwg_rate, dcl_rate, trials)


def sparsity_for(p: int) -> int:
    return math.ceil(math.sqrt(p))


def sample_size_for(p: int, alpha: float) -> int:
    k = sparsity_for(p)
    if p - k <= 1:
        raise ValueError(f"p={p} leaves p - k = {p - k} <= 1, ln(p-k) degenerate")
    return math.ceil(alpha * k * math.log(p - k))


def generate_instance(
    cfg: EnsembleConfig, p: int, alpha: float, rho_multiplier: float, trial_index: int
) -> tuple[ProblemInstance, np.ndarray, tuple[int, ...]]:
    """Draw one trial's (instance, planted signal, true support).

    Stream layout (see rng module for the generator itself): n*p design
    normals row-major, then the k-subset draw, then k sign draws in support
    order, then n noise normals.
    """
    if p not in cfg.p_list:
        raise ValueError(f"p={p} not in the configured grid")
    alpha_index = cfg.alpha_grid.index(alpha)
    rho_index = cfg.rho_multipliers.index(rho_multiplier)
    k = sparsity_for(p)
    n = sample_size_for(p, alpha)
    rho = rho_multiplier * math.sqrt(n)
    seed = seed_derive(cfg.master_seed, p, alpha_index, rho_index, trial_index)
    gen = SplitMix64(seed)
    X = gen.normals(n * p).reshape(n, p)
    support = gen.subset(p, k)
    beta = np.zeros(p)
    beta[list(support)] = gen.signs(k)
    noise = gen.normals(n)
    y = X @ beta + cfg.gamma * noise
    inst = ProblemInstance(X=X, y=y, rho=rho, k=k)
    return inst, beta, support


def evaluate_trial(
    inst: ProblemInstance, support_true: tuple[int, ...]
) -> tuple[bool, bool]:
    """Does each relaxation certify exactness at the planted support? Both
    tests run on one SupportContext, so the scores are computed once."""
    if len(support_true) != inst.k:
        raise ValueError(
            f"true support has size {len(support_true)}, expected k={inst.k}"
        )
    ctx = SupportContext(inst, support_true)
    return check_pwg(inst, ctx).exact, check_dcl(inst, ctx).exact


def _run_cell(args: tuple) -> list[TrialRecord]:
    cfg, p, alpha, rho_multiplier = args
    alpha_index = cfg.alpha_grid.index(alpha)
    rho_index = cfg.rho_multipliers.index(rho_multiplier)
    records = []
    for trial_index in range(cfg.trials):
        seed = seed_derive(cfg.master_seed, p, alpha_index, rho_index, trial_index)
        inst, _, support = generate_instance(cfg, p, alpha, rho_multiplier, trial_index)
        pwg_exact, dcl_exact = evaluate_trial(inst, support)
        records.append(
            TrialRecord(
                p=p,
                k=inst.k,
                n=inst.n,
                alpha=alpha,
                rho_multiplier=rho_multiplier,
                rho=inst.rho,
                trial_index=trial_index,
                trial_seed=seed,
                pwg_exact=pwg_exact,
                dcl_exact=dcl_exact,
            )
        )
    return records


def run_sweep(cfg: EnsembleConfig, workers: int | None = None) -> list[TrialRecord]:
    """All trial records in deterministic cell order (p, alpha, rho multiplier,
    trial). The record stream is identical for any worker count."""
    cells = [
        (cfg, p, alpha, mult)
        for p in cfg.p_list
        for alpha in cfg.alpha_grid
        for mult in cfg.rho_multipliers
    ]
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    if workers == 1 or len(cells) == 1:
        results = [_run_cell(cell) for cell in cells]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell, cells))
    return [rec for cell_records in results for rec in cell_records]


def aggregate_curves(cfg: EnsembleConfig, records: list[TrialRecord]) -> list[RecoveryCurve]:
    """Recovery rates per (p, rho multiplier) across the alpha grid."""
    by_cell: dict[tuple[int, float, float], list[TrialRecord]] = {}
    for rec in records:
        by_cell.setdefault((rec.p, rec.alpha, rec.rho_multiplier), []).append(rec)
    curves = []
    for p in cfg.p_list:
        for mult in cfg.rho_multipliers:
            points = []
            for alpha in cfg.alpha_grid:
                cell = by_cell.get((p, alpha, mult), [])
                if not cell:
                    continue
                pwg_rate = sum(r.pwg_exact for r in cell) / len(cell)
                dcl_rate = sum(r.dcl_exact for r in cell) / len(cell)
                points.append((alpha, pwg_rate, dcl_rate, len(cell)))
            curves.append(RecoveryCurve(p=p, rho_multiplier=mult, points=points))
    return curves
