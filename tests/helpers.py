"""Shared instance generators and reference identities for the test suite."""

from fractions import Fraction

import numpy as np

from sparsecert import ProblemInstance, ridge_restricted_solve
from sparsecert.linalg import max_eig_sym
from sparsecert.oracles import _relaxed_objective_and_scores
from sparsecert.problem import normalize_support


def noise_instance(rng, n=None, p=None, k=None, rho=None):
    """Pure-noise instance: Gaussian design, Gaussian response."""
    n = int(rng.integers(5, 16)) if n is None else n
    p = int(rng.integers(6, 13)) if p is None else p
    k = int(rng.integers(1, 4)) if k is None else k
    rho = float(rng.choice([0.1, 1.0, 10.0])) if rho is None else rho
    X = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    return ProblemInstance(X=X, y=y, rho=rho, k=k)


def planted_instance(rng, n=None, p=None, k=None, rho=None, amplitude=3.0, noise=0.3):
    """Sparse planted signal with a strong amplitude, so certificates often
    fire. Returns (instance, true support)."""
    n = int(rng.integers(5, 16)) if n is None else n
    p = int(rng.integers(6, 13)) if p is None else p
    k = int(rng.integers(1, 4)) if k is None else k
    rho = float(rng.choice([0.1, 1.0, 10.0])) if rho is None else rho
    X = rng.standard_normal((n, p))
    support = tuple(sorted(rng.choice(p, size=k, replace=False).tolist()))
    beta = np.zeros(p)
    beta[list(support)] = amplitude * rng.choice([-1.0, 1.0], size=k)
    y = X @ beta + noise * rng.standard_normal(n)
    return ProblemInstance(X=X, y=y, rho=rho, k=k), support


def mixed_instance(rng, **kwargs):
    """Half planted, half pure noise."""
    if rng.random() < 0.5:
        inst, _ = planted_instance(rng, **kwargs)
        return inst
    return noise_instance(rng, **kwargs)


def random_support(rng, inst):
    """k distinct random columns, the only support size the certificate
    checks accept."""
    return tuple(sorted(rng.choice(inst.p, size=inst.k, replace=False).tolist()))


def dense_kernel_solve(inst, support, v):
    """K_S^{-1} v = (I + X_S X_S^T / rho)^{-1} v by a dense n x n solve, the
    reference the library's factored forms are checked against. The empty
    support gives v."""
    sup = normalize_support(support, inst.p)
    Xs = inst.X[:, sup]
    return np.linalg.solve(np.eye(inst.n) + Xs @ Xs.T / inst.rho, np.asarray(v, dtype=float))


def ridge_value_kernel(inst, support):
    """Restricted ridge optimum through the kernel identity 0.5*y^T K_S^{-1} y.

    Agrees with ridge_restricted_solve(...).value; accepts the empty support,
    where the value is 0.5*||y||^2.
    """
    return 0.5 * float(inst.y @ dense_kernel_solve(inst, support, inst.y))


def smw_residuals(inst, support):
    """Residuals of the two Woodbury identities tying the restricted solve to
    the kernel form:

        X_j^T (X b* - y) = -X_j^T K_S^{-1} y   for every column j,
        b*_S = (1/rho) X_S^T K_S^{-1} y.

    Returns (max-abs residual of the first, inf-norm residual of the second);
    both vanish in exact arithmetic.
    """
    sup = normalize_support(support, inst.p)
    if not sup:
        raise ValueError("residual check needs a nonempty support")
    sol = ridge_restricted_solve(inst, sup)
    smoothed = dense_kernel_solve(inst, sup, inst.y)
    r1 = float(np.abs(inst.X.T @ (inst.X @ sol.beta - inst.y) + inst.X.T @ smoothed).max())
    r2 = float(np.abs(sol.beta[list(sup)] - inst.X[:, sup].T @ smoothed / inst.rho).max())
    return r1, r2


def relaxed_gradient(inst, z):
    """dg/dz_j = -(X_j^T K(z)^{-1} y)^2 / (2 rho) of the boolean relaxation's
    objective; always <= 0."""
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.shape != (inst.p,):
        raise ValueError(f"z has length {z.shape[0]}, expected p={inst.p}")
    _, scores = _relaxed_objective_and_scores(inst, z)
    return -(scores**2) / (2.0 * inst.rho)


def exact_relaxed_objective(inst, z):
    """g(z) = 0.5 * y^T (I + X D(z) X^T/rho)^{-1} y in exact rational
    arithmetic on the float data, by Gauss-Jordan elimination of the n x n
    kernel, rounded to a float once at the end: the referee for the
    library's ridge form. Costs O(n^3 + n^2 p) Fraction operations, so it is
    meant for n <= 12."""
    n, p = inst.n, inst.p
    if n > 12:
        raise ValueError(f"exact referee is meant for n <= 12, got n={n}")
    X = [[Fraction(float(v)) for v in row] for row in inst.X]
    zq = [Fraction(float(v)) for v in np.asarray(z, dtype=float).reshape(-1)]
    rho = Fraction(float(inst.rho))
    y = [Fraction(float(v)) for v in inst.y]
    # augmented [K | y], K = I + sum_j z_j x_j x_j^T / rho
    rows = [
        [(a == b) + sum(zq[j] * X[a][j] * X[b][j] for j in range(p)) / rho for b in range(n)] + [y[a]]
        for a in range(n)
    ]
    for c in range(n):  # K is positive definite: every pivot is positive
        pivot = rows[c][c]
        rows[c] = [v / pivot for v in rows[c]]
        for a in range(n):
            if a != c and rows[a][c]:
                factor = rows[a][c]
                rows[a] = [va - factor * vc for va, vc in zip(rows[a], rows[c])]
    return float(sum(y[a] * rows[a][n] for a in range(n)) / 2)


def slack_matrices(ctx, lams):
    """The dense slack matrices diag(d(lam)) - X^T X/rho - I_p of a
    SupportContext at the canonical duals of each threshold in `lams`, as an
    (m, p, p) stack: the matrix verify_dcl_certificate tests. Neither the
    search nor the verifier forms them; they are the tests' reference."""
    lams = np.asarray(lams, dtype=float).reshape(-1, 1)
    gram = ctx.inst.X.T @ ctx.inst.X
    base = -0.5 * (gram + gram.T) / ctx.inst.rho - np.eye(ctx.inst.p)
    slack = np.broadcast_to(base, (lams.shape[0],) + base.shape).copy()
    diag = np.arange(ctx.inst.p)
    slack[:, diag[ctx.in_mask], diag[ctx.in_mask]] += lams / ctx.sq_in
    slack[:, diag[ctx.out_mask], diag[ctx.out_mask]] += ctx.sq_out / lams
    return slack


def dense_margin(ctx, lam):
    """Top eigenvalue (the margin) and a unit eigenvector of the slack matrix
    at one threshold; a nonpositive margin certifies."""
    return max_eig_sym(slack_matrices(ctx, [lam])[0])


def dense_margins(ctx, lams):
    """Margins at an array of thresholds, one batched eigenvalue solve."""
    return np.linalg.eigvalsh(slack_matrices(ctx, lams))[:, -1]
