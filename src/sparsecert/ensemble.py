"""Gaussian-ensemble recovery experiments.

Each cell of the sweep grid is (p, alpha, rho_multiplier). A trial draws a
standard-normal design, plants a k-sparse +/-1 signal on a uniform random
support, observes it through Gaussian noise, and asks whether each relaxation
certifies exactness at the true support:

    k = ceil(sqrt(p)),  n = ceil(alpha * k * ln(p - k)),
    rho = rho_multiplier * sqrt(n),  y = X beta* + noise_std * eps.

`evaluate_trial` runs both tests on one `SupportContext`, which validates the
support and computes the scores and the threshold witness once.

Trials are seeded independently through `seed_derive`, so a sweep's records
do not depend on how its trials are shared out: `run_sweep` gives each of its
w processes one strided slice of the record-order trial list, and reassembles
the records in that order. The caller runs slice 0 itself; each of w - 1
children made with `os.fork` runs one other slice and sends its records back
over a pipe. A child's exception is raised again in the caller, and a child
that dies without a result is a `ChildProcessError`.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass, field

import numpy as np

from . import _lapack
from .certificates import SupportContext, check_dcl, check_pwg
from .problem import ProblemInstance, _is_number
from .rng import SplitMix64, seed_derive

DEFAULT_ALPHA_GRID = [1.0 + 0.5 * i for i in range(19)]  # 1, 1.5, ..., 10
DEFAULT_RHO_MULTIPLIERS = [2.0, 3.0, 4.0, 6.0, 8.0, 12.0]
DEFAULT_NOISE_STD = 0.5


def _grid(values, name: str, kind: type) -> list:
    """A config grid as a list of distinct `kind`s (int or float): a nonempty
    list whose entries pass `_is_number`."""
    if not isinstance(values, list) or not values:
        raise ValueError(f"{name} must be a nonempty list")
    for v in values:
        if not _is_number(v, kind):
            raise ValueError(f"{name} entries must be finite {kind.__name__}s, got {v!r}")
    if len(set(values)) != len(values):
        raise ValueError(f"{name} entries must be distinct")
    return [kind(v) for v in values]


@dataclass
class EnsembleConfig:
    """A sweep grid and its trial budget. Every field is checked here, for
    configs built in Python and loaded from JSON alike; integer fields also
    take integral floats such as 16.0, and no field takes a boolean."""

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
        if min(self.p_list) < 4:
            raise ValueError(f"p_list entry {min(self.p_list)} is too small (need p >= 4 so that k < p - 1)")
        if min(self.alpha_grid) <= 0:
            raise ValueError("alpha_grid entries must be positive")
        if min(self.rho_multipliers) <= 0:
            raise ValueError("rho_multipliers entries must be positive")
        if not (_is_number(self.trials, int) and self.trials >= 1):
            raise ValueError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not (_is_number(self.gamma, float) and self.gamma >= 0):
            raise ValueError(f"gamma must be a finite real >= 0, got {self.gamma!r}")
        # seed_derive reads the seed mod 2^64: a wider one would alias another
        if not (_is_number(self.master_seed, int) and 0 <= self.master_seed < 2**64):
            raise ValueError(f"master_seed must be an integer in [0, 2^64), got {self.master_seed!r}")
        self.trials, self.gamma, self.master_seed = int(self.trials), float(self.gamma), int(self.master_seed)


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


def sparsity_for(p: int) -> int:
    return math.ceil(math.sqrt(p))


def sample_size_for(p: int, alpha: float) -> int:
    k = sparsity_for(p)
    if p - k <= 1:
        raise ValueError(f"p={p} leaves p - k = {p - k} <= 1, ln(p-k) degenerate")
    return math.ceil(alpha * k * math.log(p - k))


def _trial_seed(cfg: EnsembleConfig, p: int, alpha: float, rho_multiplier: float, trial_index: int) -> int:
    """The stream seed of one trial: `seed_derive` at the grid indices of its
    alpha and rho multiplier. A p, alpha or multiplier outside the grid is a
    ValueError."""
    if p not in cfg.p_list:
        raise ValueError(f"p={p} not in the configured grid")
    alpha_index = cfg.alpha_grid.index(alpha)
    rho_index = cfg.rho_multipliers.index(rho_multiplier)
    return seed_derive(cfg.master_seed, p, alpha_index, rho_index, trial_index)


def generate_instance(
    cfg: EnsembleConfig, p: int, alpha: float, rho_multiplier: float, trial_index: int
) -> tuple[ProblemInstance, np.ndarray, tuple[int, ...]]:
    """Draw one trial's (instance, planted signal, true support).

    Stream layout (see rng module for the generator itself): n*p design
    normals row-major, then the k-subset draw, then k sign draws in support
    order, then n noise normals.
    """
    gen = SplitMix64(_trial_seed(cfg, p, alpha, rho_multiplier, trial_index))
    k = sparsity_for(p)
    n = sample_size_for(p, alpha)
    rho = rho_multiplier * math.sqrt(n)
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
    tests run on one SupportContext, which also validates the support."""
    ctx = SupportContext(inst, support_true)
    return check_pwg(inst, ctx).exact, check_dcl(inst, ctx).exact


def _run_trials(cfg: EnsembleConfig, keys: list[tuple]) -> list[TrialRecord]:
    """The records of `keys`, each (p, alpha, rho_multiplier, trial), in order.
    generate_instance and evaluate_trial are looked up here at call time."""
    records = []
    for p, alpha, rho_multiplier, trial_index in keys:
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
                trial_seed=_trial_seed(cfg, p, alpha, rho_multiplier, trial_index),
                pwg_exact=pwg_exact,
                dcl_exact=dcl_exact,
            )
        )
    return records


def _child(cfg: EnsembleConfig, keys: list[tuple], result_fd: int) -> None:
    """In a forked child: write the pickled (True, records) or (False, exception)
    to `result_fd` and end the process, never returning into the caller's stack."""
    try:
        try:
            result = (True, _run_trials(cfg, keys))
        except Exception as exc:
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:  # the caller could not rebuild it
                exc = RuntimeError(repr(exc))
            result = (False, exc)
        with os.fdopen(result_fd, "wb") as out:
            out.write(pickle.dumps(result))
        os._exit(0)
    finally:
        os._exit(1)


def run_sweep(cfg: EnsembleConfig, workers: int | None = None) -> list[TrialRecord]:
    """All trial records in order (p, alpha, rho multiplier, trial), identical
    for any worker count. `workers` counts the processes that run trials, the
    caller included (None: the CPUs this process may run on, at most one per
    trial). Process i of w runs the strided slice keys[i::w], so each slice
    holds the same mix of cells: the caller runs slice 0, the largest, and
    w - 1 forked children the rest, each sending its records back over a pipe.
    With w > 1, every process runs OpenBLAS on one thread until the call ends.
    A child's exception is raised here, a child that ends without a result is
    a ChildProcessError, and no child outlives the call."""
    if workers is not None and not (_is_number(workers, int) and workers >= 1):
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    if workers is None:
        workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    keys = [
        (p, alpha, mult, trial)
        for p in cfg.p_list
        for alpha in cfg.alpha_grid
        for mult in cfg.rho_multipliers
        for trial in range(cfg.trials)
    ]
    w = min(int(workers), len(keys))
    records: list = [None] * len(keys)
    pipes = {}  # the read end of each child's result pipe, by pid
    threads = _lapack.set_blas_threads(1 if w > 1 else None)
    try:
        for i in range(1, w):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(cfg, keys[i::w], write_fd)
            os.close(write_fd)
            pipes[pid] = os.fdopen(read_fd, "rb")
        records[::w] = _run_trials(cfg, keys[::w])
        # every pipe to EOF before any reap: a result can outgrow the pipe buffer
        results = [pipe.read() for pipe in pipes.values()]
    except BaseException:
        for pid in pipes:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pipe in pipes.values():
            pipe.close()
        statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pipes]
        _lapack.set_blas_threads(threads)
    for i, (pid, status, data) in enumerate(zip(pipes, statuses, results), 1):
        if status != 0:
            raise ChildProcessError(f"sweep worker pid {pid} ended with exit status {status} and no result")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        records[i::w] = value
    return records


def aggregate_curves(cfg: EnsembleConfig, records: list[TrialRecord]) -> list[dict]:
    """The aggregate CSV's rows: the recovery rates of each (p, rho multiplier,
    alpha) cell that has records, in that order, keyed as the CSV's columns."""
    by_cell: dict[tuple[int, float, float], list[TrialRecord]] = {}
    for rec in records:
        by_cell.setdefault((rec.p, rec.alpha, rec.rho_multiplier), []).append(rec)
    return [
        {
            "p": p,
            "alpha": alpha,
            "rho_multiplier": mult,
            "pwg_rate": sum(r.pwg_exact for r in cell) / len(cell),
            "dcl_rate": sum(r.dcl_exact for r in cell) / len(cell),
            "trials": len(cell),
        }
        for p in cfg.p_list
        for mult in cfg.rho_multipliers
        for alpha in cfg.alpha_grid
        if (cell := by_cell.get((p, alpha, mult)))
    ]
