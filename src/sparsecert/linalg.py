"""Dense kernels shared by the certificate checks and oracles.

Both certificates rest on the ridge kernel of a support S,

    K_S = I_n + (1/rho) * X_S X_S^T,

and every factorization of such a kernel goes through `kernel_factor`, the
one place that picks its side: for an n x m matrix G it factors the m x m
Woodbury form rho I_m + G^T G when 0 < m < n, else rho I_n + G G^T (= rho
K_S for G = X_S). `ridge_coefficients`, the one ridge solve, reads the fit
off either side. For G = X_S it is the restricted fit b*_S, `K_S^{-1} y`
is its residual y - X_S b*_S, and the scores X_j^T K_S^{-1} y drive both
certificates; for G = X diag(sqrt z) it is the relaxation oracle's fit.
`cholesky` is the single LAPACK `potrf` call site. It factors its argument
in place, so `kernel_factor` factors the kernel it has just built with no
copy, and a caller that still needs a matrix after factoring it passes a
copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrf, dpotrs

from .problem import ProblemInstance, normalize_support


@dataclass
class RestrictedRidgeSolution:
    """Ridge minimizer constrained to a support, plus its objective value."""

    beta: np.ndarray  # (p,), exactly zero off the support
    value: float      # 0.5*||X beta - y||^2 + 0.5*rho*||beta||^2


def cholesky(A: np.ndarray) -> Optional[np.ndarray]:
    """Cholesky factor of a symmetric matrix by one LAPACK `potrf` (only its
    lower triangle is the factor), or None when A is not positive definite.
    A C- or Fortran-ordered float64 A is factored in place: its entries are
    overwritten, whatever the outcome. A non-finite entry raises ValueError."""
    if not np.isfinite(A).all():
        raise ValueError("cannot factor a matrix with a non-finite entry")
    # a symmetric C-ordered matrix is its own transpose, which is Fortran-
    # ordered, and potrf overwrites a Fortran-ordered float64 array with no copy
    L, info = dpotrf(A.T if A.flags.c_contiguous else A, lower=1, clean=0, overwrite_a=1)
    return L if info == 0 else None


def kernel_factor(G: np.ndarray, rho: float) -> tuple[np.ndarray, bool]:
    """(L, woodbury): the Cholesky factor L of rho I_m + G^T G when
    woodbury, which is when 0 < m < n for the n x m matrix G, else of
    rho I_n + G G^T. A factorization that fails raises ValueError."""
    woodbury = 0 < G.shape[1] < G.shape[0]
    kernel = G.T @ G if woodbury else G @ G.T
    kernel.flat[:: kernel.shape[0] + 1] += rho
    L = cholesky(kernel)
    if L is None:
        raise ValueError("the ridge kernel is too ill-conditioned to factor")
    return L, woodbury


def ridge_coefficients(G: np.ndarray, y: np.ndarray, rho: float) -> np.ndarray:
    """argmin_b ||y - G b||^2 + rho ||b||^2 = (rho I + G^T G)^{-1} G^T y
    = G^T (rho I_n + G G^T)^{-1} y, on the side `kernel_factor` picks; empty for no columns."""
    L, woodbury = kernel_factor(G, rho)
    if woodbury:
        return dpotrs(L, G.T @ y, lower=1)[0]
    return G.T @ dpotrs(L, y, lower=1)[0]


def ridge_restricted_solve(inst: ProblemInstance, support: Sequence[int]) -> RestrictedRidgeSolution:
    """Ridge regression over the columns in `support` (must be nonempty)."""
    sup = normalize_support(support, inst.p)
    if not sup:
        raise ValueError("restricted ridge solve needs a nonempty support")
    beta = np.zeros(inst.p)
    beta[list(sup)] = ridge_coefficients(inst.X[:, sup], inst.y, inst.rho)
    resid = inst.X @ beta - inst.y
    value = 0.5 * float(resid @ resid) + 0.5 * inst.rho * float(beta @ beta)
    return RestrictedRidgeSolution(beta=beta, value=value)


def correlation_scores(inst: ProblemInstance, support: Sequence[int]) -> np.ndarray:
    """c_j = X_j^T K_S^{-1} y = X_j^T (y - X_S b*_S) for every column j
    (support columns included); X^T y for the empty support."""
    Xs = inst.X[:, normalize_support(support, inst.p)]
    return inst.X.T @ (inst.y - Xs @ ridge_coefficients(Xs, inst.y, inst.rho))


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
