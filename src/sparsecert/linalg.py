"""Dense kernels shared by the certificate checks and oracles.

Both certificates rest on the ridge kernel of a support S,

    K_S = I_n + (1/rho) * X_S X_S^T,

and every such kernel is built and factored by `kernel_factor`, the one
place that picks its side: for the n x m matrix G = X[:, cols] / scale it
accumulates in place, over chunks of G (`kernel_chunks`), the m x m Woodbury
form rho I_m + G^T G when 0 < m < n, else rho I_n + G G^T (= rho K_S for
G = X_S). `ridge_fit`, the one ridge solve, reads the fit off either
side, with its residual and overflow-safe value. For G = X_S it is the
restricted fit b*_S, whose residual r = y - X_S b*_S = K_S^{-1} y gives the
scores X^T r that drive both certificates; for G = X_T diag(sqrt z_T), on
the support T of z, it is the relaxation oracle's fit, whose value is g(z).
`cholesky` is the single LAPACK `potrf` call site. It factors its argument
in place, so `kernel_factor` factors the kernel it has just built with no
copy, and a caller that still needs a matrix after factoring it passes a
copy. LAPACK is reached through `_lapack`, the OpenBLAS that numpy loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _lapack
from .problem import ProblemInstance, normalize_support

CHUNK_ENTRIES = 2**15  # a chunk of G holds at most max(half the kernel's entries, this)


@dataclass
class RidgeFit:
    """Ridge minimizer over the columns of G, with its residual and value."""

    coef: np.ndarray   # (m,), b, for G = X_S in the order of the normalized support
    resid: np.ndarray  # (n,), y - G b
    value: float       # 0.5*||resid||^2 + 0.5*rho*||b||^2


def cholesky(A: np.ndarray) -> Optional[np.ndarray]:
    """Cholesky factor of a symmetric matrix by one LAPACK `potrf` (only its
    lower triangle is the factor), or None when A is not positive definite.
    A writable C- or Fortran-ordered float64 A is factored in place: its
    entries are overwritten, whatever the outcome; any other A is copied
    first. A non-finite entry raises ValueError."""
    if not np.isfinite(A).all():
        raise ValueError("cannot factor a matrix with a non-finite entry")
    # a symmetric C-ordered matrix is its own transpose, which is Fortran-
    # ordered, and potrf overwrites a Fortran-ordered float64 array with no copy
    L = np.asfortranarray(A.T if A.flags.c_contiguous else A, dtype=float)
    if not L.flags.writeable:
        L = L.copy(order="F")
    return L if _lapack.potrf(L) == 0 else None


def kernel_chunks(X: np.ndarray, cols: np.ndarray, scale: np.ndarray, woodbury: bool):
    """(part, chunk) for the row chunks G[part] (woodbury) or else the column
    chunks G[:, part] of G = X[:, cols] / scale, in order, gathered C-ordered
    into one buffer of max(half the kernel's entries, CHUNK_ENTRIES) entries
    or fewer, so each is valid until the next is drawn."""
    width = len(cols) if woodbury else X.shape[0]  # the kernel's order
    length = X.shape[0] if woodbury else len(cols)
    step = max(width // 2, CHUNK_ENTRIES // width)
    buf = np.empty(min(step, length) * width)
    for start in range(0, max(length, 1), step):  # no columns: one empty chunk
        part = slice(start, min(start + step, length))
        rows, idx = (part, cols) if woodbury else (slice(None), cols[part])
        out = buf[: (part.stop - start) * width].reshape((-1, width) if woodbury else (width, -1))
        G = X[rows].take(idx, axis=1, out=out, mode="clip")  # "raise" would copy through a temporary
        G /= scale if woodbury else scale[part]
        yield part, G


def kernel_factor(X: np.ndarray, rho: float, b: np.ndarray, cols=None, scale=None):
    """(L, woodbury, rhs): the Cholesky factor L of rho I_m + G^T G when
    woodbury, which is when 0 < m < n for the n x m matrix G, else of
    rho I_n + G G^T, for G = X[:, cols] / scale (X itself with no `cols`),
    and the right-hand side rhs = G^T b when woodbury, else b. Both are
    summed in one pass over `kernel_chunks`: the kernel is numpy's product
    of the first chunk, and `_lapack.syrk` adds each later one to its lower
    triangle. A factorization that fails raises ValueError."""
    m = X.shape[1] if cols is None else len(cols)
    woodbury = 0 < m < X.shape[0]
    kernel, rhs = None, None if woodbury else b
    for part, G in [(slice(None), X)] if cols is None else kernel_chunks(X, cols, scale, woodbury):
        if kernel is None:  # numpy's product, symmetric, so its transpose is Fortran-ordered
            kernel = (G.T @ G if woodbury else G @ G.T).T
        else:  # a later chunk, added to the lower triangle in place
            _lapack.syrk(kernel, G, trans=not woodbury)
        if woodbury:
            rhs = G.T @ b[part] if rhs is None else rhs + G.T @ b[part]
    kernel.flat[:: kernel.shape[0] + 1] += rho
    L = cholesky(kernel)
    if L is None:
        raise ValueError("the ridge kernel is too ill-conditioned to factor")
    return L, woodbury, rhs


def ridge_fit(G: np.ndarray, y: np.ndarray, rho: float) -> RidgeFit:
    """The fit of b = argmin_b ||y - G b||^2 + rho ||b||^2 = (rho I + G^T G)^{-1} G^T y
    = G^T (rho I_n + G G^T)^{-1} y, on the side `kernel_factor` picks; b is empty for no
    columns. On the n side the solve is about ||y||/rho and may overflow, which LAPACK does
    to inf without a warning, although b is representable: it is then redone for y 2^-j,
    which scales it exactly in binary, with ||y 2^-j||/rho about 2^256, and b is scaled back
    by 2^j. A b that is not representable raises ValueError."""
    L, woodbury, rhs = kernel_factor(G, rho, y)
    if woodbury:
        coef = _lapack.potrs(L, rhs)
    else:
        solved = _lapack.potrs(L, y)
        if np.isfinite(solved).all():
            coef = G.T @ solved
        else:
            j = math.frexp(float(np.abs(y).max()))[1] - math.frexp(rho)[1] - 256
            with np.errstate(over="ignore"):  # an overflow is the ValueError below
                coef = np.ldexp(G.T @ _lapack.potrs(L, np.ldexp(y, -j)), j)
    if not np.isfinite(coef).all():
        raise ValueError("the ridge fit is not representable: its coefficients overflow")
    resid = y - G @ coef
    root = math.sqrt(rho) * coef  # rho ||b||^2 <= ||y||^2, but ||b||^2 alone can overflow
    return RidgeFit(coef=coef, resid=resid, value=0.5 * float(resid @ resid) + 0.5 * float(root @ root))


def ridge_restricted_solve(inst: ProblemInstance, support: Sequence[int]) -> RidgeFit:
    """Ridge regression over the columns in `support` (must be nonempty)."""
    sup = normalize_support(support, inst.p)
    if not sup:
        raise ValueError("restricted ridge solve needs a nonempty support")
    return ridge_fit(inst.X[:, sup], inst.y, inst.rho)


def correlation_scores(inst: ProblemInstance, fit: RidgeFit) -> np.ndarray:
    """c_j = X_j^T K_S^{-1} y = X_j^T (y - X_S b*_S) for every column j
    (support columns included), from the restricted fit `fit` of S."""
    return inst.X.T @ fit.resid


def max_eig_sym(A: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and a unit eigenvector of an exactly symmetric
    matrix.

    Only the top eigenpair is computed (LAPACK's selected-index solver), not
    the full decomposition. An asymmetric matrix, even by roundoff, or a
    non-finite entry raises ValueError."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not A.size:
        raise ValueError("matrix must be square and nonempty")
    if not np.isfinite(A).all():
        raise ValueError("matrix has a non-finite entry")
    if not np.array_equal(A, A.T):
        raise ValueError("matrix is not symmetric")
    return _lapack.syevr_top(np.array(A, order="F"))
