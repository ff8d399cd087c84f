"""LAPACK's dpotrf, dpotrs, dtrtrs and dsyevr and BLAS's dsyrk, bound by ctypes
from the scipy-openblas64 library that numpy's wheels load for `numpy.linalg`. It
exports them with 64-bit integers as `scipy_<routine>_64_`, and dlsym on numpy's
extension module finds them among its dependencies; a numpy build without them
fails this import with an ImportError. Matrices are Fortran-ordered float64, passed
as their C-ordered transposes (the same memory), and only their lower triangles
are read or written. gfortran appends the length of each character argument.
OpenBLAS's thread count is set through `scipy_openblas_{get,set}_num_threads64_`."""

from __future__ import annotations

import ctypes

import numpy as np
from numpy.linalg import _umath_linalg

_INT, _DBL, _CHR, _LEN = ctypes.c_int64, ctypes.c_double, ctypes.c_char_p, ctypes.c_size_t
_I, _D = ctypes.POINTER(_INT), ctypes.POINTER(_DBL)
_LIB = ctypes.CDLL(_umath_linalg.__file__)


def _bind(routine: str, *argtypes):
    symbol = f"scipy_{routine}_64_"
    try:
        fn = getattr(_LIB, symbol)
    except AttributeError:
        raise ImportError(f"sparsecert needs LAPACK's {routine}, exported as {symbol} by numpy's "
                          f"scipy-openblas64 wheels; numpy {np.__version__} here lacks it") from None
    fn.argtypes, fn.restype = argtypes, None
    return fn


_potrf = _bind("dpotrf", _CHR, _I, _D, _I, _I, _LEN)
_potrs = _bind("dpotrs", _CHR, _I, _I, _D, _I, _D, _I, _I, _LEN)
_trtrs = _bind("dtrtrs", _CHR, _CHR, _CHR, _I, _I, _D, _I, _D, _I, _I, _LEN, _LEN, _LEN)
_syrk = _bind("dsyrk", _CHR, _CHR, _I, _I, _D, _D, _I, _D, _D, _I, _LEN, _LEN)
_syevr = _bind("dsyevr", _CHR, _CHR, _CHR, _I, _D, _I, _D, _D, _I, _I, _D, _I, _D, _D, _I, _I,
               _D, _I, _I, _I, _I, _LEN, _LEN, _LEN)


def _mem(a: np.ndarray):  # a writable Fortran-ordered (or 1-D) float64 array
    return _DBL.from_buffer(a.T)


def syrk(c: np.ndarray, a: np.ndarray, trans: bool = False) -> None:
    """c += a^T a (a a^T when `trans`), a C-ordered float64, in the Fortran-ordered c's lower triangle."""
    if a.dtype != np.float64 or not a.flags.c_contiguous or c.shape != (a.shape[not trans],) * 2:
        raise ValueError("syrk needs a C-ordered float64 a whose product has the shape of c")
    one, n, k, lda = _DBL(1.0), _INT(c.shape[0]), _INT(a.shape[trans]), _INT(max(1, a.shape[1]))
    _syrk(b"L", b"T" if trans else b"N", n, k, one, a.ctypes.data_as(_D), lda, one, _mem(c), n, 1, 1)


def potrf(a: np.ndarray) -> int:
    """Cholesky-factor the Fortran-ordered n x n `a` in place, L in its lower
    triangle; returns LAPACK's info, > 0 when `a` is not positive definite."""
    n, info = _INT(a.shape[0]), _INT()
    _potrf(b"L", n, _mem(a), n, info, 1)
    return info.value


def _solve(routine, L: np.ndarray, b: np.ndarray, *chars: bytes) -> np.ndarray:
    x, n = np.array(b, dtype=float, order="F"), _INT(L.shape[0])
    routine(*chars, n, _INT(x.size // L.shape[0]), _mem(L), n, _mem(x), n, _INT(), *[1] * len(chars))
    return x


def potrs(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(L L^T)^{-1} b for the factor L that `potrf` leaves, into a copy of b."""
    return _solve(_potrs, L, b, b"L")


def trtrs(L: np.ndarray, b: np.ndarray, trans: bool = False) -> np.ndarray:
    """L^{-1} b, or L^{-T} b when `trans`, into a Fortran-ordered copy of b."""
    return _solve(_trtrs, L, b, b"L", b"T" if trans else b"N", b"N")


def syevr_top(a: np.ndarray) -> tuple[float, np.ndarray]:
    """The largest eigenvalue and a unit eigenvector of the symmetric n x n
    `a`, which is overwritten. The workspace query runs first, as in
    `scipy.linalg.eigh`, so the blocked tridiagonal reduction runs."""
    n, info, found, zero = _INT(a.shape[0]), _INT(), _INT(), _DBL(0.0)
    w, z, isuppz = np.empty(a.shape[0]), np.empty(a.shape[0]), np.empty(2, dtype=np.int64)

    def call(work, lwork, iwork, liwork):  # eigenvalues il = iu = n of range 'I'
        _syevr(b"V", b"I", b"L", n, _mem(a), n, zero, zero, n, n, zero, found, _mem(w),
               _mem(z), n, _INT.from_buffer(isuppz), work, lwork, iwork, liwork, info, 1, 1, 1)

    lwork, liwork = _DBL(), _INT()
    call(lwork, _INT(-1), liwork, _INT(-1))
    work, iwork = np.empty(int(lwork.value)), np.empty(liwork.value, dtype=np.int64)
    call(_mem(work), _INT(work.size), _INT.from_buffer(iwork), _INT(iwork.size))
    if info.value != 0:
        raise np.linalg.LinAlgError(f"dsyevr failed with info {info.value}")
    return float(w[0]), z


def set_blas_threads(count: int | None) -> int | None:
    """Set OpenBLAS's thread count and return the one it replaces; set nothing
    and return None for no `count` or a build without the thread symbols."""
    get, put = (getattr(_LIB, f"scipy_openblas_{op}_num_threads64_", None) for op in ("get", "set"))
    if count is None or not (get and put):
        return None
    get.restype, put.argtypes, put.restype = ctypes.c_int, [ctypes.c_int], None
    before = get()
    put(count)
    return before
