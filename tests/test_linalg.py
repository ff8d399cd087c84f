import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import mixed_instance, random_support
from sparsecert import (
    ProblemInstance,
    correlation_scores,
    max_eig_sym,
    ridge_kernel_solve,
    ridge_restricted_solve,
    ridge_value_kernel,
    smw_residuals,
)
from sparsecert.linalg import is_pos_def

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
    inst = ProblemInstance(X=I2, y=[1.0, 0.0], rho=1.0, k=1)
    assert np.allclose(ridge_kernel_solve(inst, [], [1.0, 0.0]), [1.0, 0.0])
    assert np.allclose(ridge_kernel_solve(inst, [0], [1.0, 0.0]), [0.5, 0.0])
    inst2 = ProblemInstance(X=[[1.0]], y=[2.0], rho=1.0, k=1)
    assert np.allclose(ridge_kernel_solve(inst2, [0], [2.0]), [1.0])


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


def test_kernel_solve_matches_dense_solve():
    rng = np.random.default_rng(13)
    for _ in range(200):
        inst = mixed_instance(rng)
        sup = random_support(rng, inst)
        v = rng.standard_normal(inst.n)
        Xs = inst.X[:, sup]
        dense = np.linalg.solve(np.eye(inst.n) + Xs @ Xs.T / inst.rho, v)
        fast = ridge_kernel_solve(inst, sup, v)
        assert np.allclose(fast, dense, rtol=1e-9, atol=1e-9 * (1 + np.abs(dense).max()))


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


def test_max_eig_sym_rejects_asymmetric():
    with pytest.raises(ValueError):
        max_eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_max_eig_sym_accepts_roundoff_asymmetry():
    # an asymmetry within 1e-12 of the largest entry still passes the check
    A = np.array([[2.0, 1.0], [1.0 + 1e-13, -1.0]])
    lam, _ = max_eig_sym(A)
    assert lam == pytest.approx(max_eig_sym(0.5 * (A + A.T))[0], rel=1e-12)


def test_is_pos_def_examples():
    assert is_pos_def(np.eye(3))
    assert not is_pos_def(np.diag([1.0, 0.0]))  # semidefinite is not definite
    assert not is_pos_def(np.array([[1.0, 2.0], [2.0, 1.0]]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            is_pos_def(np.array([[1.0, 0.0], [0.0, bad]]))
        with pytest.raises(ValueError):
            max_eig_sym(np.array([[1.0, 0.0], [0.0, bad]]))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31))
def test_is_pos_def_agrees_with_the_spectrum(dim, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((dim, dim))
    A = B @ B.T - rng.uniform(0.0, 2.0) * np.eye(dim)
    A = 0.5 * (A + A.T)
    low = float(np.linalg.eigvalsh(A)[0])
    if abs(low) > 1e-8 * (1.0 + np.abs(A).max()):
        assert is_pos_def(A) == (low > 0.0)


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
