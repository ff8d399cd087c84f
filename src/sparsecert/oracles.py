"""Ground-truth references the certificates are validated against.

`brute_force_l0` enumerates every size-k support (the restricted ridge value
only drops as the support grows, so smaller supports are redundant) and is
the exact nonconvex optimum. `pwg_value` minimizes the continuous boolean
relaxation

    g(z) = 0.5 * y^T (X D(z) X^T / rho + I)^{-1} y,   z in [0,1]^p, sum z <= k,

by projected gradient descent; g is convex in z, every partial derivative is
nonpositive, and the returned feasible point upper-bounds the relaxation
optimum with a Frank-Wolfe gap estimate. For z >= 0 and G = X diag(sqrt z),
y^T (I + X D(z) X^T/rho)^{-1} y = min_b ||y - G b||^2 + rho ||b||^2, so g is
the value of the ridge fit that `linalg.ridge_fit` returns, the same fit
the certificates solve on a support: no n x n kernel is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import ridge_fit
from .problem import ProblemInstance, DEFAULT_REL_TOL

MAX_COMBINATIONS = 10**6  # supports brute_force_l0 may enumerate
BRUTE_FORCE_CHUNK = 4096  # supports per batched factorization in brute_force_l0
PWG_TOL = 1e-10  # pwg_value stops once no coordinate moves by more than this
PWG_ROUNDOFF = 8.0 * np.finfo(float).eps  # ... or a step predicts a decrease of at most this times |g|
PWG_MAX_ITER = 5000


class CombinationBudgetError(ValueError):
    """Raised when C(p, k) exceeds the enumeration budget."""

    def __init__(self, combinations: int, budget: int):
        super().__init__(
            f"C(p, k) = {combinations} exceeds the enumeration budget {budget}"
        )
        self.combinations = combinations
        self.budget = budget


@dataclass
class BruteForceResult:
    value: float
    argmin_supports: list[tuple[int, ...]]  # lexicographic, ties within tie_window


@dataclass
class PwgValueResult:
    value: float
    z: np.ndarray
    iterations: int
    fw_gap: float  # Frank-Wolfe stationarity gap at the returned point
    trace: list[float]  # objective at z0 and after every accepted step or snap


def _lex_supports(p: int, k: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the lexicographic list of size-k subsets of
    range(p), one support per column of a (k, stop - start) index array.

    For entry j, offset[a] counts the (k-j)-subsets of range(p) before the
    first one that starts at a. The entry follows from its rank among the
    (k-j)-subsets of range(prev + 1, p), prev being entry j-1. Those are the
    suffix of the (k-j)-subsets of range(p) after offset[prev + 1] rows, so
    adding that offset gives the rank in the whole list, whose first entry
    one binary search over offset finds."""
    rank = np.arange(start, stop)
    rows = np.empty((k, stop - start), dtype=np.intp)
    for j in range(k):
        offset = np.cumsum([0] + [math.comb(p - 1 - a, k - j - 1) for a in range(p)])
        if j:
            rank += offset[rows[j - 1] + 1]
        rows[j] = np.searchsorted(offset[1:], rank, side="right")
        rank -= offset[rows[j]]
    return rows


def _fits(gram: np.ndarray, xty: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """b^T G_S^{-1} b, b = X_S^T y, for the support in every column of rows,
    by one k-step LDL^T factorization G_S = L D L^T vectorized over them:
    with L z = b, b^T G_S^{-1} b = sum_j z_j^2/D_j. Each step is a handful
    of numpy calls on whole rows, none per support, and no square root is
    taken. A pivot D_j that is not positive and finite raises ValueError."""
    k = rows.shape[0]
    # the lower triangle by columns: cols[j][i - j] holds G_S[i, j], i >= j
    cols = [gram[rows[j:], rows[j]] for j in range(k)]
    z = xty[rows]
    fit = np.zeros(rows.shape[1])
    for j, col in enumerate(cols):
        d = col[0]
        if not (d.min() > 0.0 and d.max() < math.inf):
            raise ValueError("a k x k Gram block X_S^T X_S + rho I is too ill-conditioned to factor")
        ell = col[1:] / d  # L[j+1:, j]
        z[j + 1 :] -= ell * z[j]
        for i in range(j + 1, k):  # Schur complement update of the trailing columns
            cols[i] -= ell[i - j - 1 :] * col[i - j]
        fit += z[j] * (z[j] / d)  # dividing first keeps z_j^2 from overflowing
    return fit


def tie_window(inst: ProblemInstance) -> float:
    """How far above the best-subset value a value still ties: DEFAULT_REL_TOL
    times y^T y/2, the empty fit's value, which bounds every support's value
    and the roundoff of 0.5*(y^T y - fit), about eps*y^T y, and scales with
    them, so rescaling y maps the argmin set onto itself."""
    return DEFAULT_REL_TOL * 0.5 * float(inst.y @ inst.y)


def brute_force_l0(inst: ProblemInstance) -> BruteForceResult:
    """Exact best-subset ridge value by enumerating all supports of size k.

    The value of a support is 0.5*(y^T y - b^T G_S^{-1} b), with
    G_S = X_S^T X_S + rho I and b = X_S^T y; X^T X + rho I and X^T y are
    formed once. Supports are visited in lexicographic order in chunks of
    at most BRUTE_FORCE_CHUNK, each an integer index array unranked from
    its row numbers (`_lex_supports`), with no Python object per support.
    A chunk gathers the lower triangles of its k x k blocks G_S and factors
    them all in one LDL^T pass vectorized over the chunk (`_fits`), so a
    chunk costs O(k^2) numpy calls and O(k^2) floats per support, whatever
    C(p, k) is. A Gram block that fails to factor raises ValueError. Every
    support within `tie_window(inst)` of the best value is an argmin."""
    total = math.comb(inst.p, inst.k)
    if total > MAX_COMBINATIONS:
        raise CombinationBudgetError(total, MAX_COMBINATIONS)
    X, y = inst.X, inst.y
    gram = X.T @ X + inst.rho * np.eye(inst.p)
    xty = X.T @ y
    yty = float(y @ y)
    window = tie_window(inst)
    best = math.inf
    ties: list[tuple[float, tuple[int, ...]]] = []
    for start in range(0, total, BRUTE_FORCE_CHUNK):
        rows = _lex_supports(inst.p, inst.k, start, min(start + BRUTE_FORCE_CHUNK, total))
        values = 0.5 * (yty - _fits(gram, xty, rows))
        best = min(best, float(values.min()))
        bound = best + window
        ties = [(v, s) for v, s in ties if v <= bound]
        hit = np.flatnonzero(values <= bound)
        ties += zip(values[hit].tolist(), map(tuple, rows[:, hit].T.tolist()))
    # ties within the window of the minimum, in lexicographic order
    return BruteForceResult(value=best, argmin_supports=[s for _, s in ties])


def project_capped_simplex(v: np.ndarray, k: int) -> np.ndarray:
    """Euclidean projection onto {z in [0,1]^p : sum z <= k}.

    If clipping to the box already satisfies the cap, that is the projection;
    otherwise shift by the theta >= 0 with s(theta) = sum clip(v - theta, 0, 1)
    = k. s is piecewise linear and nonincreasing, with breakpoints at v_i - 1
    (coordinate i leaves 1) and v_i (it reaches 0): sorting the 2p breakpoints,
    one cumulative sum of the active-coordinate counts gives s at each of
    them, and theta is solved for on the segment that crosses k. O(p log p).
    Breakpoints need v_i - 1 to be exact, which fails once |v_i| >= 2^53.
    So when some |v_i| >= 2^52, theta, which lies within 1 below the (k+1)-th
    largest entry, is solved for on v minus that entry, and the coordinates
    2^53 or more below it, which stay at 0, leave the breakpoints. A
    non-finite entry, once clipping alone exceeds the cap, is a ValueError.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    v = np.asarray(v, dtype=float).reshape(-1)
    clipped = np.clip(v, 0.0, 1.0)
    if clipped.sum() <= k:
        return clipped
    if not np.isfinite(v).all():
        raise ValueError("cannot project a vector with a non-finite entry")
    w = v
    if max(v.max(), -v.min()) >= 2.0**52:
        v = v - np.partition(v, v.size - k - 1)[v.size - k - 1]
        w = v[v > -(2.0**53)]
    points = np.concatenate([w - 1.0, w])
    order = np.argsort(points)
    points = points[order]
    # number of i with 0 < w_i - theta < 1 just right of each breakpoint
    active = np.cumsum(np.where(order < w.size, 1.0, -1.0))
    # s = w.size at the first breakpoint, min(w) - 1, and drops by active * width
    sums = w.size - np.concatenate([[0.0], np.cumsum(active[:-1] * np.diff(points))])
    j = int(np.searchsorted(-sums, -k))  # first breakpoint with s <= k; j >= 1
    theta = points[j - 1] + (sums[j - 1] - k) / active[j - 1]
    return np.clip(v - theta, 0.0, 1.0)


def _check_kernel_scale(inst: ProblemInstance) -> None:
    """ValueError when the kernel I + X D(z) X^T/rho that defines g may overflow for some z
    in [0, 1]^p: the ridge fit never forms it, but returns noise there (a Frank-Wolfe gap
    of 1e280 at rho = 1e-310). Its entry bound max_a ||x_a||^2/rho (x_a the rows of X) is
    tested once, with a factor 2 of room, as a Python float, whose quotient overflows silently."""
    rows = np.einsum("ij,ij->i", inst.X, inst.X)
    if not math.log(float(rows.max()) / inst.rho + 1.0) < math.log(np.finfo(float).max / 2.0):
        raise ValueError("the kernel I + X D(z) X^T/rho is not representable: ||x_a||^2/rho overflows")


def _relaxed_objective_and_scores(inst: ProblemInstance, z: np.ndarray) -> tuple[float, np.ndarray]:
    """g(z) and the scores X_j^T K(z)^{-1} y, z >= 0, by the ridge fit b of G = X diag(sqrt z):
    r = y - G b is K(z)^{-1} y, and G^T r = rho b makes y^T r = ||r||^2 + rho ||b||^2."""
    fit = ridge_fit(inst.X * np.sqrt(z), inst.y, inst.rho)
    return fit.value, inst.X.T @ fit.resid


def _gradient(inst: ProblemInstance, scores: np.ndarray) -> np.ndarray:
    """dg/dz_j = -c_j^2/(2 rho); ValueError when it overflows, tested at the largest |c_j|
    as Python floats, whose arithmetic overflows to inf silently."""
    top = float(np.abs(scores).max())
    if not top * (top / (2.0 * inst.rho)) < math.inf:
        raise ValueError("the relaxation's gradient c_j^2/(2 rho) is not representable")
    return -scores * (scores / (2.0 * inst.rho))


def relaxed_objective(inst: ProblemInstance, z: np.ndarray) -> float:
    """g(z) = 0.5 * y^T (X D(z) X^T / rho + I)^{-1} y; a negative or
    non-finite entry of z, outside the ridge form's domain, is a ValueError."""
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.shape != (inst.p,):
        raise ValueError(f"z has length {z.shape[0]}, expected p={inst.p}")
    if not (np.isfinite(z).all() and z.min() >= 0.0):
        raise ValueError("z must be finite and nonnegative")
    _check_kernel_scale(inst)
    return _relaxed_objective_and_scores(inst, z)[0]


def _frank_wolfe_gap(grad: np.ndarray, z: np.ndarray, k: int) -> float:
    """max over feasible w of grad^T (z - w). Since grad <= 0, the best w
    puts 1 on the k most negative gradient coordinates. Nonnegative for
    feasible z; clamped against cancellation at vertices."""
    order = np.argsort(grad)
    best = float(grad[order[:k]].sum())
    return max(float(grad @ z) - best, 0.0)


def pwg_value(inst: ProblemInstance) -> PwgValueResult:
    """Minimize the continuous relaxation over the capped simplex.

    Projected gradient descent from the uniform interior point z0 = (k/p)e,
    with a Barzilai-Borwein step safeguarded by Armijo backtracking (so the
    objective trace is monotone). Afterwards the binary point supported on
    the k largest coordinates of z is evaluated and kept if it is lower;
    near-exact instances optimize at a vertex and the snap removes the last
    sliver of first-order error. Stops at PWG_MAX_ITER or as soon as a
    projected trial step would move no coordinate by more than PWG_TOL, or
    would predict a decrease -grad^T delta of at most PWG_ROUNDOFF * |g|, a
    few ulps of the objective: that step is not evaluated (the Armijo test
    would only see roundoff, and halving shrinks the prediction further),
    and z is the last accepted iterate. A kernel whose scale
    is not representable (`_check_kernel_scale`), a ridge fit that
    `linalg.ridge_fit` cannot factor or solve, or a gradient that
    overflows (`_gradient`) raises ValueError.
    """
    _check_kernel_scale(inst)
    p, k = inst.p, inst.k
    z = np.full(p, k / p)
    val, scores = _relaxed_objective_and_scores(inst, z)
    grad = _gradient(inst, scores)
    trace = [val]
    step = 1.0
    iterations = 0
    for iterations in range(1, PWG_MAX_ITER + 1):
        moved = False
        trial_step = step
        for _ in range(60):
            z_new = project_capped_simplex(z - trial_step * grad, k)
            delta = z_new - z
            decrease = float(grad @ delta)
            if float(np.abs(delta).max()) <= PWG_TOL or -decrease <= PWG_ROUNDOFF * abs(val):
                break  # converged: the Armijo test would only see roundoff
            val_new, scores_new = _relaxed_objective_and_scores(inst, z_new)
            if val_new <= val + 1e-4 * decrease:
                moved = True
                break
            trial_step *= 0.5
        if not moved:
            break
        grad_new = _gradient(inst, scores_new)
        # BB1 step for the next iteration, clamped to a sane range
        dg = grad_new - grad
        num = float(delta @ delta)
        den = float(delta @ dg)
        step = min(max(num / den, 1e-12), 1e12) if den > 0 else trial_step * 2.0
        z, val, grad = z_new, val_new, grad_new
        trace.append(val)
    # vertex snap: binary point on the k largest coordinates
    z_bin = np.zeros(p)
    z_bin[np.argsort(-z)[:k]] = 1.0
    val_bin, scores_bin = _relaxed_objective_and_scores(inst, z_bin)
    if val_bin < val:
        z, val = z_bin, val_bin
        grad = _gradient(inst, scores_bin)
        trace.append(val)
    gap = _frank_wolfe_gap(grad, z, k)
    return PwgValueResult(value=val, z=z, iterations=iterations, fw_gap=gap, trace=trace)
