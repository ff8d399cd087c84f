"""Shared instance generators and reference identities for the test suite."""

from fractions import Fraction

import numpy as np

from sparsecert import ProblemInstance, SupportContext
from sparsecert.linalg import max_eig_sym, ridge_restricted_solve
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


def scaled_gaussian_instance(n, p, k, x_scale, y_scale, rho):
    """X = x_scale * N(0,1)^{n x p}, then y = y_scale * N(0,1)^n, both drawn
    from np.random.default_rng(0): the extreme-scale inputs whose overflows
    the oracles and the certificate checks must turn into a ValueError or
    a finite, correct result."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((n, p)) * x_scale
    y = rng.standard_normal(n) * y_scale
    return ProblemInstance(X=X, y=y, rho=rho, k=k)


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
    r1 = float(np.abs(inst.X.T @ (inst.X[:, sup] @ sol.coef - inst.y) + inst.X.T @ smoothed).max())
    r2 = float(np.abs(sol.coef - inst.X[:, sup].T @ smoothed / inst.rho).max())
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


def _exact_solve(A, rhs):
    """x with A x = rhs for a symmetric positive definite Fraction matrix, by
    Gauss-Jordan elimination: every pivot is positive."""
    rows = [list(row) + [v] for row, v in zip(A, rhs)]
    m = len(rows)
    for c in range(m):
        pivot = rows[c][c]
        rows[c] = [v / pivot for v in rows[c]]
        for a in range(m):
            if a != c and rows[a][c]:
                factor = rows[a][c]
                rows[a] = [va - factor * vc for va, vc in zip(rows[a], rows[c])]
    return [row[m] for row in rows]


def _exact_is_pos_def(M):
    """Whether a symmetric Fraction matrix is positive definite: every pivot
    of its Gaussian elimination is positive. Overwrites M."""
    m = len(M)
    for c in range(m):
        pivot = M[c][c]
        if pivot <= 0:
            return False
        for a in range(c + 1, m):
            if M[a][c]:
                factor = M[a][c] / pivot
                M[a][c + 1 :] = [va - factor * vc for va, vc in zip(M[a][c + 1 :], M[c][c + 1 :])]
    return True


def exact_dcl_violations(inst, cert, slack):
    """The conditions a DclCertificate fails in exact rational arithmetic on
    the float data, at a relative `slack`: the referee for
    verify_dcl_certificate, which works in floats. b*_S, its residual r and
    the scores c = X^T r are exact; the duals d are the floats the verifier
    derives (`SupportContext.duals`). The conditions are the support equality
    |d_i c_i^2 - lam| <= slack*lam, the off-support inequality
    c_i^2 - lam*d_i <= slack*lam, the lifted duality gap |P - D| <= slack*P
    (the verifier's P and D, exactly), and X^T X/rho + I - D(d) + slack*I
    positive definite, so the slack matrix is NSD up to slack. Returns their
    names, [] for a certificate. Costs O(p^3 + n p^2) Fraction operations,
    so it is meant for p <= 16 (about 0.2 s at n = 40)."""
    n, p = inst.n, inst.p
    if p > 16:
        raise ValueError(f"exact referee is meant for p <= 16, got p={p}")
    sup = list(cert.support)
    cols = [[Fraction(float(v)) for v in col] for col in inst.X.T]
    y = [Fraction(float(v)) for v in inst.y]
    rho, lam, tol = Fraction(float(inst.rho)), Fraction(float(cert.lam)), Fraction(float(slack))
    d = [Fraction(float(v)) for v in SupportContext(inst, sup).duals(cert.lam)]

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    gram = [[dot(cols[i], cols[j]) for j in range(p)] for i in range(p)]
    b = _exact_solve(
        [[gram[i][j] + (rho if i == j else 0) for j in sup] for i in sup], [dot(cols[i], y) for i in sup]
    )
    Xb = [sum(cols[j][a] * bj for j, bj in zip(sup, b)) for a in range(n)]
    r = [ya - xa for ya, xa in zip(y, Xb)]
    c = [dot(col, r) for col in cols]
    failed = []
    if any(abs(d[i] * c[i] ** 2 - lam) > tol * lam for i in sup):
        failed.append("support equality")
    if any(c[i] ** 2 - lam * d[i] > tol * lam for i in range(p) if i not in sup):
        failed.append("off-support inequality")
    primal = (dot(r, r) + rho * dot(b, b)) / 2
    dual_sum = sum(d[i] * bi**2 for i, bi in zip(sup, b))
    dual = dot(y, y) / 2 - (dot(Xb, Xb) + rho * (dot(b, b) - dual_sum)) / 2 - lam / rho * inst.k / 2
    if abs(primal - dual) > tol * primal:
        failed.append("duality gap")
    M = [[gram[i][j] / rho + ((1 - d[i] + tol) if i == j else 0) for j in range(p)] for i in range(p)]
    if not _exact_is_pos_def(M):
        failed.append("slack matrix not NSD")
    return failed


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
