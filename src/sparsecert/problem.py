"""Problem data for cardinality-constrained ridge regression.

An instance is (X, y, rho, k): minimize 0.5*||X b - y||^2 + 0.5*rho*||b||^2
subject to at most k nonzero entries of b. Candidate supports are plain
sorted tuples of column indices, validated by `normalize_support`.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Shared relative tolerance for oracle/certificate agreement checks.
DEFAULT_REL_TOL = 1e-9


def _is_number(v, kind: type) -> bool:
    """Is v a finite real number that `kind` (int or float) keeps unchanged?
    False for booleans, strings, None, inf, NaN, integers past the largest
    float, and 16.5 as an int."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    try:
        return math.isfinite(v) and kind(v) == v
    except OverflowError:  # an integer too large for a float
        return False


@dataclass
class ProblemInstance:
    """One regression instance. Treat as immutable after construction. X and
    y are stored as C-ordered float64 arrays."""

    X: np.ndarray  # (n, p) design matrix
    y: np.ndarray  # (n,) response
    rho: float     # ridge weight, > 0
    k: int         # cardinality budget, 1 <= k <= p

    def __post_init__(self) -> None:
        # C-ordered whatever the caller's layout, on which BLAS's summation
        # order, and so a certificate's last ulp, depends
        X, y = np.asarray(self.X), np.asarray(self.y)
        if np.iscomplexobj(X) or np.iscomplexobj(y):
            raise ValueError("X and y must be real")
        self.X = np.ascontiguousarray(X, dtype=float)
        self.y = np.ascontiguousarray(y.reshape(-1), dtype=float)
        if self.X.ndim != 2:
            raise ValueError("X must be a 2-d matrix")
        n, p = self.X.shape
        if n < 1 or p < 1:
            raise ValueError("X must have at least one row and one column")
        if self.y.shape != (n,):
            raise ValueError(f"y has length {self.y.shape[0]}, expected {n}")
        # numpy's max and min propagate a NaN, so these also test finiteness
        x_big = max(float(self.X.max()), -float(self.X.min()))
        if not math.isfinite(x_big):
            raise ValueError("X contains NaN/Inf entries")
        y_big = max(float(self.y.max()), -float(self.y.min()))
        if not math.isfinite(y_big):
            raise ValueError("y contains NaN/Inf entries")
        # every entry of X^T X, X X^T, X^T y and y^T y is at most ||[X y]||_F^2;
        # it must stay below a quarter of the largest float, with room for sums
        # of such entries. Tested in log space before any product is formed;
        # the bound n (p + 1) big^2 clears ordinary data with no further pass.
        big = max(x_big, y_big)
        log_room = math.log(sys.float_info.max / 4.0)
        if big > 0.0 and 2.0 * math.log(big) + math.log(n * (p + 1)) >= log_room:
            sq = float(np.sum((self.X / big) ** 2) + np.sum((self.y / big) ** 2))
            if 2.0 * math.log(big) + math.log(sq) >= log_room:
                raise ValueError("X and y are too large: their Gram products X^T X and X^T y would overflow")
        if not (_is_number(self.rho, float) and self.rho > 0.0):
            raise ValueError(f"rho must be a positive finite real, got {self.rho!r}")
        if not (_is_number(self.k, int) and 1 <= self.k <= p):
            raise ValueError(f"k must be an integer in [1, p={p}], got {self.k!r}")
        self.rho, self.k = float(self.rho), int(self.k)

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
        if not _is_number(i, int):
            raise ValueError(f"support index {i!r} is not an integer")
        j = int(i)
        if not 0 <= j < p:
            raise ValueError(f"support index {j} outside [0, {p})")
        out.append(j)
    tup = tuple(sorted(out))
    for a, b in zip(tup, tup[1:]):
        if a == b:
            raise ValueError(f"duplicate support index {a}")
    return tup
