"""Ground-truth references the certificates are validated against.

`brute_force_l0` enumerates every size-k support (the restricted ridge value
only drops as the support grows, so smaller supports are redundant) and is
the exact nonconvex optimum. `pwg_value` minimizes the continuous boolean
relaxation

    g(z) = 0.5 * y^T (X D(z) X^T / rho + I)^{-1} y,   z in [0,1]^p, sum z <= k,

by projected gradient descent; g is convex in z, every partial derivative is
nonpositive, and the returned feasible point upper-bounds the relaxation
optimum with a Frank-Wolfe gap estimate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .problem import ProblemInstance, DEFAULT_REL_TOL

MAX_COMBINATIONS = 10**6  # supports brute_force_l0 may enumerate
BRUTE_FORCE_CHUNK = 4096  # supports per batched factorization in brute_force_l0
PWG_TOL = 1e-10  # pwg_value stops once no coordinate moves by more than this
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
    argmin_supports: list[tuple[int, ...]]  # lexicographic, ties within rel tol


@dataclass
class PwgValueResult:
    value: float
    z: np.ndarray
    iterations: int
    grad_norm_kkt: float  # Frank-Wolfe stationarity gap at the returned point
    trace: list[float]  # objective at z0 and after every accepted step or snap


def brute_force_l0(inst: ProblemInstance) -> BruteForceResult:
    """Exact best-subset ridge value by enumerating all supports of size k.

    The Gram matrix X^T X + rho I is formed once; each chunk of at most
    BRUTE_FORCE_CHUNK supports gathers its k x k blocks and runs one batched
    Cholesky and solve, so memory stays bounded at any budget.
    The value of a support is 0.5*(y^T y - ||L^{-1} X_S^T y||^2)."""
    total = math.comb(inst.p, inst.k)
    if total > MAX_COMBINATIONS:
        raise CombinationBudgetError(total, MAX_COMBINATIONS)
    X, y, k = inst.X, inst.y, inst.k
    gram = X.T @ X + inst.rho * np.eye(inst.p)
    xty = X.T @ y
    yty = float(y @ y)
    best = math.inf
    ties: list[tuple[float, tuple[int, ...]]] = []
    combos = itertools.combinations(range(inst.p), k)
    while chunk := list(itertools.islice(combos, BRUTE_FORCE_CHUNK)):
        idx = np.array(chunk, dtype=np.intp)
        chol = np.linalg.cholesky(gram[idx[:, :, None], idx[:, None, :]])
        w = np.linalg.solve(chol, xty[idx][:, :, None])[:, :, 0]
        values = 0.5 * (yty - np.einsum("ij,ij->i", w, w))
        best = min(best, float(values.min()))
        bound = best + DEFAULT_REL_TOL * max(1.0, abs(best))
        ties = [(v, s) for v, s in ties if v <= bound]
        ties += [(float(values[i]), chunk[i]) for i in np.flatnonzero(values <= bound)]
    # ties within DEFAULT_REL_TOL of the minimum, in lexicographic order
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
    2^53 or more below it, which stay at 0, leave the breakpoints.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    v = np.asarray(v, dtype=float).reshape(-1)
    clipped = np.clip(v, 0.0, 1.0)
    if clipped.sum() <= k:
        return clipped
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


def _relaxed_objective_and_scores(
    inst: ProblemInstance, z: np.ndarray
) -> tuple[float, np.ndarray]:
    """g(z) and the column scores X_j^T K(z)^{-1} y, via one SPD solve.
    K(z) has every eigenvalue >= 1, so a failed Cholesky means roundoff in a
    kernel whose X D(z) X^T/rho swamps the identity: a ValueError."""
    n = inst.n
    kernel = np.eye(n) + (inst.X * z) @ inst.X.T / inst.rho
    kernel = 0.5 * (kernel + kernel.T)
    try:
        cho = scipy.linalg.cho_factor(kernel, lower=True)
    except np.linalg.LinAlgError as err:
        raise ValueError(
            f"the kernel I + X D(z) X^T/rho is too ill-conditioned to factor ({err})"
        ) from None
    ky = scipy.linalg.cho_solve(cho, inst.y)
    return 0.5 * float(inst.y @ ky), inst.X.T @ ky


def relaxed_objective(inst: ProblemInstance, z: np.ndarray) -> float:
    """g(z) = 0.5 * y^T (X D(z) X^T / rho + I)^{-1} y."""
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.shape != (inst.p,):
        raise ValueError(f"z has length {z.shape[0]}, expected p={inst.p}")
    return _relaxed_objective_and_scores(inst, z)[0]


def relaxed_gradient(inst: ProblemInstance, z: np.ndarray) -> np.ndarray:
    """dg/dz_j = -(X_j^T K(z)^{-1} y)^2 / (2 rho); always <= 0."""
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.shape != (inst.p,):
        raise ValueError(f"z has length {z.shape[0]}, expected p={inst.p}")
    _, scores = _relaxed_objective_and_scores(inst, z)
    return -(scores**2) / (2.0 * inst.rho)


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
    projected trial step would move no coordinate by more than PWG_TOL:
    that step is not evaluated (at that size the Armijo test only sees
    roundoff), and z is the last accepted iterate.
    """
    p, k = inst.p, inst.k
    z = np.full(p, k / p)
    val, scores = _relaxed_objective_and_scores(inst, z)
    grad = -(scores**2) / (2.0 * inst.rho)
    trace = [val]
    step = 1.0
    iterations = 0
    for iterations in range(1, PWG_MAX_ITER + 1):
        moved = False
        trial_step = step
        for _ in range(60):
            z_new = project_capped_simplex(z - trial_step * grad, k)
            delta = z_new - z
            if float(np.abs(delta).max()) <= PWG_TOL:
                break  # converged: the Armijo test would only see roundoff
            decrease = float(grad @ delta)
            val_new, scores_new = _relaxed_objective_and_scores(inst, z_new)
            if val_new <= val + 1e-4 * decrease:
                moved = True
                break
            trial_step *= 0.5
        if not moved:
            break
        grad_new = -(scores_new**2) / (2.0 * inst.rho)
        # BB1 step for the next iteration, clamped to a sane range
        dg = grad_new - grad
        num = float(delta @ delta)
        den = float(delta @ dg)
        step = min(max(num / den, 1e-12), 1e12) if den > 0 else trial_step * 2.0
        z, val, grad = z_new, val_new, grad_new
        trace.append(val)
    # vertex snap: binary point on the k largest coordinates
    top = np.argsort(-z)[:k]
    z_bin = np.zeros(p)
    z_bin[top] = 1.0
    val_bin, scores_bin = _relaxed_objective_and_scores(inst, z_bin)
    if val_bin < val:
        z, val = z_bin, val_bin
        grad = -(scores_bin**2) / (2.0 * inst.rho)
        trace.append(val)
    gap = _frank_wolfe_gap(grad, z, k)
    return PwgValueResult(
        value=val, z=z, iterations=iterations, grad_norm_kkt=gap, trace=trace
    )
