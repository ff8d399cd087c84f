"""Problem data for cardinality-constrained ridge regression.

An instance is (X, y, rho, k): minimize 0.5*||X b - y||^2 + 0.5*rho*||b||^2
subject to at most k nonzero entries of b. Candidate supports are plain
sorted tuples of column indices, validated by `normalize_support`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Shared relative tolerance for oracle/certificate agreement checks.
DEFAULT_REL_TOL = 1e-9


@dataclass
class ProblemInstance:
    """One regression instance. Treat as immutable after construction."""

    X: np.ndarray  # (n, p) design matrix
    y: np.ndarray  # (n,) response
    rho: float     # ridge weight, > 0
    k: int         # cardinality budget, 1 <= k <= p

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float).reshape(-1)
        self.rho = float(self.rho)
        self.k = int(self.k)
        if self.X.ndim != 2:
            raise ValueError("X must be a 2-d matrix")
        n, p = self.X.shape
        if n < 1 or p < 1:
            raise ValueError("X must have at least one row and one column")
        if self.y.shape != (n,):
            raise ValueError(f"y has length {self.y.shape[0]}, expected {n}")
        if not np.isfinite(self.X).all():
            raise ValueError("X contains NaN/Inf entries")
        if not np.isfinite(self.y).all():
            raise ValueError("y contains NaN/Inf entries")
        if not np.isfinite(self.rho) or self.rho <= 0.0:
            raise ValueError("rho must be a positive finite real")
        if not 1 <= self.k <= p:
            raise ValueError(f"k={self.k} outside [1, p={p}]")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


def normalize_support(indices: Sequence[int], p: int) -> tuple[int, ...]:
    """Validate a candidate support: integer column indices, no duplicates,
    all in [0, p). Returns the sorted tuple. Empty supports are allowed here;
    operations that require nonempty supports check separately."""
    out = []
    for i in indices:
        j = int(i)
        if j != i:
            raise ValueError(f"support index {i!r} is not an integer")
        if not 0 <= j < p:
            raise ValueError(f"support index {j} outside [0, {p})")
        out.append(j)
    tup = tuple(sorted(out))
    for a, b in zip(tup, tup[1:]):
        if a == b:
            raise ValueError(f"duplicate support index {a}")
    return tup
