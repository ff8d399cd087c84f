import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dense_kernel_solve,
    mixed_instance,
    random_support,
    ridge_value_kernel,
    smw_residuals,
)
from sparsecert import (
    ProblemInstance,
    correlation_scores,
    max_eig_sym,
    ridge_restricted_solve,
)
from sparsecert.linalg import kernel_factor

I2 = np.eye(2)


def test_restricted_solve_scalar():
    # 1-d minimization of 0.5*(b-2)^2 + 0.5*b^2
    inst = ProblemInstance(X=[[1.0]], y=[2.0], rho=1.0, k=1)
    sol = ridge_restricted_solve(inst, [0])
    assert sol.beta == pytest.approx([1.0])
    assert sol.value == pytest.approx(1.0)


def test_restricted_solve_zero_response():
    inst = ProblemInstance(X=np.arange(6.0).reshape(3, 2), y=[0, 0, 0], rho=2.0, k=2)
    sol = ridge_restricted_solve(inst, [0, 1])
    assert np.all(sol.beta == 0.0)
    assert sol.value == 0.0


def test_restricted_solve_identity_design():
    inst = ProblemInstance(X=I2, y=[1.0, 0.0], rho=1.0, k=1)
    sol = ridge_restricted_solve(inst, [0])
    assert sol.beta == pytest.approx([0.5, 0.0])
    assert sol.value == pytest.approx(0.25)
    # off-support coordinate is exactly zero, not just small
    assert sol.beta[1] == 0.0


def test_restricted_solve_rejects_empty_support():
    inst = ProblemInstance(X=I2, y=[1.0, 0.0], rho=1.0, k=1)
    with pytest.raises(ValueError):
        ridge_restricted_solve(inst, [])


def test_kernel_value_examples():
    inst = ProblemInstance(X=[[1.0]], y=[2.0], rho=1.0, k=1)
    assert ridge_value_kernel(inst, [0]) == pytest.approx(1.0)
    inst2 = ProblemInstance(X=np.ones((2, 2)), y=[3.0, 4.0], rho=1.0, k=1)
    assert ridge_value_kernel(inst2, []) == pytest.approx(12.5)  # 0.5*||y||^2
    inst3 = ProblemInstance(X=I2, y=[1.0, 0.0], rho=1.0, k=1)
    assert ridge_value_kernel(inst3, [0]) == pytest.approx(0.25)


def test_kernel_solve_examples():
    # K_S^{-1} y is the residual of the restricted fit; scores are X^T of it
    # and b*_S = X_S^T K_S^{-1} y / rho, each against the dense solve
    inst = ProblemInstance(X=I2, y=[1.0, 0.0], rho=1.0, k=1)
    assert np.allclose(dense_kernel_solve(inst, [], inst.y), [1.0, 0.0])
    assert np.allclose(correlation_scores(inst, []), [1.0, 0.0])
    assert np.allclose(dense_kernel_solve(inst, [0], inst.y), [0.5, 0.0])
    assert np.allclose(correlation_scores(inst, [0]), [0.5, 0.0])
    assert np.allclose(ridge_restricted_solve(inst, [0]).beta, [0.5, 0.0])
    inst2 = ProblemInstance(X=[[1.0]], y=[2.0], rho=1.0, k=1)
    assert np.allclose(dense_kernel_solve(inst2, [0], inst2.y), [1.0])
    assert np.allclose(correlation_scores(inst2, [0]), [1.0])
    assert np.allclose(ridge_restricted_solve(inst2, [0]).beta, [1.0])


def test_empty_support_scores_are_exactly_xty():
    rng = np.random.default_rng(5)
    for _ in range(50):
        inst = mixed_instance(rng)
        assert np.array_equal(correlation_scores(inst, ()), inst.X.T @ inst.y)


def test_correlation_scores_examples():
    inst = ProblemInstance(X=I2, y=[1.0, 0.0], rho=1.0, k=1)
    assert correlation_scores(inst, [0]) == pytest.approx([0.5, 0.0])
    inst_zero = ProblemInstance(X=I2, y=[0.0, 0.0], rho=1.0, k=1)
    assert np.all(correlation_scores(inst_zero, [0]) == 0.0)
    inst2 = ProblemInstance(X=[[1.0]], y=[2.0], rho=1.0, k=1)
    assert correlation_scores(inst2, [0]) == pytest.approx([1.0])


def test_value_identity_many_random_instances():
    # solve-based objective vs kernel identity, 1000 draws with n, p <= 20
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        p = int(rng.integers(1, 21))
        k = int(rng.integers(1, p + 1))
        inst = ProblemInstance(
            X=rng.standard_normal((n, p)),
            y=rng.standard_normal(n),
            rho=float(rng.choice([0.1, 1.0, 10.0])),
            k=k,
        )
        sup = tuple(sorted(rng.choice(p, size=k, replace=False).tolist()))
        direct = ridge_restricted_solve(inst, sup).value
        kernel = ridge_value_kernel(inst, sup)
        assert abs(direct - kernel) <= 1e-9 * (1.0 + abs(direct))


def test_value_monotone_in_support_growth():
    rng = np.random.default_rng(11)
    for _ in range(300):
        inst = mixed_instance(rng)
        small = random_support(rng, inst)
        extra = [j for j in range(inst.p) if j not in small]
        rng.shuffle(extra)
        big = tuple(sorted(small + tuple(extra[: max(1, len(extra) // 2)])))
        assert ridge_value_kernel(inst, big) <= ridge_value_kernel(inst, small) + 1e-9


def _assert_matches_dense(inst, sup, rtol=1e-9):
    """Residual y - X_S b*_S, scores and b*_S against the dense n x n solve."""
    dense = dense_kernel_solve(inst, sup, inst.y)
    beta = ridge_restricted_solve(inst, sup).beta
    resid = inst.y - inst.X[:, list(sup)] @ beta[list(sup)]
    assert np.allclose(resid, dense, rtol=rtol, atol=rtol * (1 + np.abs(dense).max()))
    scores = inst.X.T @ dense
    assert np.allclose(correlation_scores(inst, sup), scores,
                       rtol=rtol, atol=rtol * (1 + np.abs(scores).max()))
    coeffs = inst.X[:, list(sup)].T @ dense / inst.rho
    assert np.allclose(beta[list(sup)], coeffs, rtol=rtol, atol=rtol * (1 + np.abs(coeffs).max()))


def test_kernel_solve_matches_dense_solve():
    rng = np.random.default_rng(13)
    for _ in range(200):
        inst = mixed_instance(rng)
        sup = random_support(rng, inst)
        v = rng.standard_normal(inst.n)
        _assert_matches_dense(ProblemInstance(X=inst.X, y=v, rho=inst.rho, k=inst.k), sup)


def test_support_larger_than_n_matches_dense_solve():
    # |S| >= n takes the n x n side of kernel_factor
    rng = np.random.default_rng(19)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        p = int(rng.integers(n + 1, 13))
        inst = mixed_instance(rng, n=n, p=p, k=int(rng.integers(n, p + 1)))
        size = int(rng.integers(n, inst.k + 1))
        sup = tuple(sorted(rng.choice(p, size=size, replace=False).tolist()))
        _assert_matches_dense(inst, sup)


@pytest.mark.parametrize("n, m, woodbury", [(4, 0, False), (4, 2, True), (4, 4, False), (4, 6, False)])
def test_kernel_factor_side_and_factor(n, m, woodbury):
    rng = np.random.default_rng(n + m)
    G = rng.standard_normal((n, m))
    rho = 0.7
    L, side = kernel_factor(G, rho)
    assert side is woodbury
    kernel = G.T @ G + rho * np.eye(m) if woodbury else G @ G.T + rho * np.eye(n)
    assert np.allclose(np.tril(L), np.linalg.cholesky(kernel), rtol=1e-12, atol=1e-12)


def test_kernel_factor_rejects_what_it_cannot_factor():
    for bad in (np.nan, np.inf):
        G = np.ones((3, 2))
        G[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            kernel_factor(G, 1.0)
    # rank one plus rho below roundoff: the n x n side is singular in floating point
    with pytest.raises(ValueError, match="ill-conditioned"):
        kernel_factor(np.ones((2, 3)), 1e-300)


def test_smw_residuals_hand_example():
    inst = ProblemInstance(X=I2, y=[1.0, 0.0], rho=1.0, k=1)
    r1, r2 = smw_residuals(inst, [0])
    assert r1 <= 1e-12 and r2 <= 1e-12


def test_smw_residuals_zero_response():
    inst = ProblemInstance(X=I2, y=[0.0, 0.0], rho=1.0, k=1)
    assert smw_residuals(inst, [0]) == (0.0, 0.0)


def test_smw_residuals_random():
    rng = np.random.default_rng(17)
    for _ in range(300):
        inst = mixed_instance(rng)
        if np.linalg.norm(inst.X) > 1e3:
            continue
        sup = random_support(rng, inst)
        r1, r2 = smw_residuals(inst, sup)
        assert r1 <= 1e-8
        assert r2 <= 1e-8


def test_max_eig_sym_examples():
    lam, u = max_eig_sym(np.eye(3))
    assert lam == pytest.approx(1.0)
    assert np.linalg.norm(u) == pytest.approx(1.0)
    lam, u = max_eig_sym(np.diag([2.0, -2.0]))
    assert lam == pytest.approx(2.0)
    assert abs(u[0]) == pytest.approx(1.0) and u[1] == pytest.approx(0.0)
    lam, u = max_eig_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert lam == pytest.approx(1.0)
    assert np.allclose(np.abs(u), [np.sqrt(0.5), np.sqrt(0.5)])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            max_eig_sym(np.array([[1.0, 0.0], [0.0, bad]]))


def test_max_eig_sym_rejects_asymmetric():
    with pytest.raises(ValueError):
        max_eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_max_eig_sym_accepts_roundoff_asymmetry():
    # an asymmetry within 1e-12 of the largest entry still passes the check
    A = np.array([[2.0, 1.0], [1.0 + 1e-13, -1.0]])
    lam, _ = max_eig_sym(A)
    assert lam == pytest.approx(max_eig_sym(0.5 * (A + A.T))[0], rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31))
def test_max_eig_sym_properties(dim, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((dim, dim))
    A = B + B.T
    lam, u = max_eig_sym(A)
    norm = np.linalg.norm(A)
    assert np.linalg.norm(A @ u - lam * u) <= 1e-8 * (1.0 + norm)
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-10)
    for _ in range(100):
        v = rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        assert lam >= float(v @ A @ v) - 1e-9 * (1.0 + norm)
