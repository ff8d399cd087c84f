"""Dense kernels shared by the certificate checks and oracles.

Everything is phrased around the n x n kernel matrix

    K_S = I_n + (1/rho) * X_S X_S^T

whose inverse never gets formed: its action is computed through the
|S|-dimensional Woodbury form when |S| < n. `K_S^{-1} y` equals the residual
y - X b* of the ridge fit restricted to S, and the per-column correlation
scores X_j^T K_S^{-1} y drive both certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .problem import ProblemInstance, normalize_support


@dataclass
class RestrictedRidgeSolution:
    """Ridge minimizer constrained to a support, plus its objective value."""

    beta: np.ndarray  # (p,), exactly zero off the support
    value: float      # 0.5*||X beta - y||^2 + 0.5*rho*||beta||^2


def _restricted_coeffs(inst: ProblemInstance, support: tuple[int, ...]) -> np.ndarray:
    """Solve (rho I + X_S^T X_S) b_S = X_S^T y by Cholesky (SPD since rho > 0)."""
    Xs = inst.X[:, support]
    gram = Xs.T @ Xs + inst.rho * np.eye(len(support))
    rhs = Xs.T @ inst.y
    cho = scipy.linalg.cho_factor(gram, lower=True)
    return scipy.linalg.cho_solve(cho, rhs)


def ridge_restricted_solve(inst: ProblemInstance, support: Sequence[int]) -> RestrictedRidgeSolution:
    """Ridge regression over the columns in `support` (must be nonempty)."""
    sup = normalize_support(support, inst.p)
    if not sup:
        raise ValueError("restricted ridge solve needs a nonempty support")
    beta = np.zeros(inst.p)
    beta[list(sup)] = _restricted_coeffs(inst, sup)
    resid = inst.X @ beta - inst.y
    value = 0.5 * float(resid @ resid) + 0.5 * inst.rho * float(beta @ beta)
    return RestrictedRidgeSolution(beta=beta, value=value)


def ridge_kernel_solve(inst: ProblemInstance, support: Sequence[int], v: np.ndarray) -> np.ndarray:
    """Apply K_S^{-1} = (I + X_S X_S^T / rho)^{-1} to a length-n vector.

    Uses the Woodbury identity w = v - X_S (rho I + X_S^T X_S)^{-1} X_S^T v
    when |S| < n, a direct dense solve otherwise. Empty support gives w = v.
    """
    sup = normalize_support(support, inst.p)
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape != (inst.n,):
        raise ValueError(f"vector has length {v.shape[0]}, expected n={inst.n}")
    if not sup:
        return v.copy()
    Xs = inst.X[:, sup]
    if len(sup) < inst.n:
        gram = Xs.T @ Xs + inst.rho * np.eye(len(sup))
        cho = scipy.linalg.cho_factor(gram, lower=True)
        return v - Xs @ scipy.linalg.cho_solve(cho, Xs.T @ v)
    kernel = np.eye(inst.n) + (Xs @ Xs.T) / inst.rho
    cho = scipy.linalg.cho_factor(kernel, lower=True)
    return scipy.linalg.cho_solve(cho, v)


def correlation_scores(inst: ProblemInstance, support: Sequence[int]) -> np.ndarray:
    """c_j = X_j^T K_S^{-1} y for every column j (support columns included)."""
    return inst.X.T @ ridge_kernel_solve(inst, support, inst.y)


def max_eig_sym(A: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and a unit eigenvector of a symmetric matrix.

    Only the top eigenpair is computed (LAPACK's selected-index solver), not
    the full decomposition. A non-finite entry raises ValueError."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not A.size:
        raise ValueError("matrix must be square and nonempty")
    if not np.array_equal(A, A.T):  # exactly symmetric skips both scans
        scale = max(1.0, float(np.abs(A).max()))
        if float(np.abs(A - A.T).max()) > 1e-12 * scale:
            raise ValueError("matrix is not symmetric")
    top = A.shape[0] - 1
    w, V = scipy.linalg.eigh(A, subset_by_index=[top, top])
    return float(w[0]), V[:, 0]
