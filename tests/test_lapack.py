"""The ctypes LAPACK binding against independent references: numpy.linalg
and scipy.linalg, which the library itself does not import."""

import ctypes
import importlib.util

import numpy as np
import pytest
import scipy.linalg

from sparsecert import _lapack
from sparsecert.linalg import cholesky, max_eig_sym

SIZES = [1, 2, 3, 8, 17, 33, 64]
ORDERS = ["C", "F"]


def spd(rng, n):
    B = rng.standard_normal((n, n + 2))
    return B @ B.T + 0.5 * np.eye(n)


def sym(rng, n):
    A = rng.standard_normal((n, n))
    return A + A.T


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n", SIZES)
def test_factor_and_solves_match_references(n, order):
    rng = np.random.default_rng(n)
    A = spd(rng, n)
    L = cholesky(np.array(A, order=order))
    assert L is not None
    ref = np.linalg.cholesky(A)
    assert np.allclose(np.tril(L), ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
    b = rng.standard_normal(n)
    B = np.array(rng.standard_normal((n, 3)), order=order)
    for rhs in (b, B):
        x = _lapack.potrs(L, rhs)
        assert np.allclose(x, np.linalg.solve(A, rhs), rtol=1e-9, atol=1e-9)
        lower = scipy.linalg.solve_triangular(ref, rhs, lower=True)
        assert np.allclose(_lapack.trtrs(L, rhs), lower, rtol=1e-9, atol=1e-9)
        upper = scipy.linalg.solve_triangular(ref, rhs, lower=True, trans="T")
        assert np.allclose(_lapack.trtrs(L, rhs, trans=True), upper, rtol=1e-9, atol=1e-9)
    # the right-hand sides are copied, not overwritten
    assert np.array_equal(B, np.array(B, order="C"))


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n", SIZES)
def test_top_eigenpair_matches_references(n, order):
    rng = np.random.default_rng(100 + n)
    A = np.array(sym(rng, n), order=order)
    before = A.copy()
    lam, u = max_eig_sym(A)
    assert np.array_equal(A, before)  # the eigensolve works on a copy
    scale = np.abs(A).max()
    assert lam == pytest.approx(np.linalg.eigvalsh(A)[-1], rel=1e-12, abs=1e-12 * scale)
    w, V = scipy.linalg.eigh(A, subset_by_index=[n - 1, n - 1])
    assert lam == pytest.approx(w[0], rel=1e-12, abs=1e-12 * scale)
    assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(A @ u, lam * u, atol=1e-9 * scale)
    assert abs(float(u @ V[:, 0])) == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("trans", [False, True])
@pytest.mark.parametrize("n", SIZES)
def test_syrk_accumulates_into_the_lower_triangle(n, trans):
    # c += a^T a (a a^T when trans) with beta = 1: two calls sum two products,
    # and the strict upper triangle is left as it was
    rng = np.random.default_rng(200 + n)
    a, b = rng.standard_normal((n, 5)), rng.standard_normal((n, 5))
    if not trans:
        a, b = a.T.copy(), b.T.copy()  # 5 x n: a^T a is n x n
    start = np.array(sym(rng, n), order="F")
    c = start.copy(order="F")
    _lapack.syrk(c, a, trans)
    _lapack.syrk(c, b, trans)
    want = start + (a @ a.T + b @ b.T if trans else a.T @ a + b.T @ b)
    assert np.allclose(np.tril(c), np.tril(want), rtol=1e-12, atol=1e-12 * np.abs(want).max())
    assert np.array_equal(np.triu(c, 1), np.triu(start, 1))
    # one call into zeros gives numpy's product bit for bit
    c = np.zeros((n, n), order="F")
    _lapack.syrk(c, a, trans)
    assert np.array_equal(np.tril(c), np.tril(a @ a.T if trans else a.T @ a))


def test_syrk_refuses_what_it_cannot_read_or_write_safely():
    c = np.zeros((3, 3), order="F")
    for a, trans in [(np.ones((4, 2)), False), (np.ones((2, 4)), True), (np.ones((3, 4)).T, False),
                     (np.ones((4, 3), dtype=np.float32), False)]:
        with pytest.raises(ValueError, match="C-ordered float64"):
            _lapack.syrk(c, a, trans)


def test_cholesky_factors_a_read_only_matrix_on_a_copy():
    A = spd(np.random.default_rng(5), 4)
    A.setflags(write=False)
    before = A.copy()
    assert np.allclose(np.tril(cholesky(A)), np.linalg.cholesky(before), rtol=1e-12, atol=1e-12)
    assert np.array_equal(A, before)


@pytest.mark.parametrize("order", ORDERS)
def test_cholesky_of_a_matrix_that_is_not_positive_definite_is_none(order):
    A = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]], order=order)
    assert cholesky(A) is None
    assert cholesky(np.zeros((2, 2), order=order)) is None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_entry_is_a_value_error(bad):
    A = np.eye(3)
    A[1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        cholesky(A.copy())
    with pytest.raises(ValueError, match="non-finite"):
        max_eig_sym(A)


def test_a_routine_the_library_does_not_export_is_an_import_error(monkeypatch):
    class NoLapack:
        """A loaded library that exports no LAPACK routine."""

        def __init__(self, path):
            pass

    monkeypatch.setattr(ctypes, "CDLL", NoLapack)
    spec = importlib.util.spec_from_file_location("sparsecert_lapack_probe", _lapack.__file__)
    with pytest.raises(ImportError, match="dpotrf, exported as scipy_dpotrf_64_"):
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
