"""Deterministic spectral primitives.

Symmetric eigendecomposition with a fixed eigenvalue ordering, and the sign
convention it applies to eigenvector columns (also used by the alignment
solver), so that downstream embeddings are reproducible run to run on one
platform; and the one in-place average of a square matrix with its
transpose, walked one block of rows and their mirror columns at a time,
which every factorization applies to its matrix first; and the rules for
a matrix, an integer and a real argument, :func:`_real_matrix`,
:func:`_integer` and :func:`_nonnegative`. The matrix rule also checks the
row and column counts another argument or structure fixes, so a caller
states a size once, as the rule's ``rows`` and ``cols``.

A factorization runs in place on the caller's matrix: LAPACK's ``dsyevd``,
the routine ``np.linalg.eigh`` calls, is called through the OpenBLAS that
numpy bundles, without ``eigh``'s copy of the matrix in and of the
eigenvectors out. Working set of an n x n factorization: the matrix itself
and LAPACK's workspace of about 2n^2 floats. The same OpenBLAS gives the
experiment's pool its thread-count setter.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy as np

from .errors import IntegrityError, ValidationError

__all__ = ["eig_sym", "mirror_blocks", "symmetrize"]

# Rows per block of mirror_blocks: a temporary of one block is this many
# rows wide.
_SYM_ROWS = 64


def _real_array(values, what, rows=None, cols=None, *, square=False):
    """``values`` as a 2-D array of reals, square if ``square`` is set:
    signed or unsigned integers keep their type (no copy), floats become
    float64. Any other array (complex, bool, string or object) or another
    shape is a ``ValidationError`` naming ``what``, a plural noun such as
    ``"points"``; a row or column count other than ``rows`` or ``cols``,
    where another argument or structure fixes one, an ``IntegrityError``
    naming ``what``, its shape and the shape expected. A matrix file may
    hold NaN, so its writer checks no more."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":
        raise ValidationError(f"{what} are not real numbers: a {arr.dtype} array")
    if arr.ndim != 2 or square and arr.shape[0] != arr.shape[1]:
        raise ValidationError(
            f"{what} must be a {'square' if square else '2-D'} matrix, got shape {arr.shape}"
        )
    if rows not in (None, arr.shape[0]) or cols not in (None, arr.shape[1]):
        expected = ", ".join("*" if size is None else str(size) for size in (rows, cols))
        raise IntegrityError(f"{what} have shape {arr.shape}, expected ({expected})")
    return np.asarray(arr, dtype=float) if arr.dtype.kind == "f" else arr


def _real_matrix(values, what, rows=None, cols=None, *, square=False):
    """:func:`_real_array` of ``values`` if it is finite: the one rule for a matrix argument."""
    arr = _real_array(values, what, rows, cols, square=square)
    if arr.dtype.kind == "f" and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what} contain non-finite entries")
    return arr


def _integer(value, what, low, high=None):
    """``value`` as an ``int`` if it is a Python or numpy integer (not a
    bool) in [``low``, ``high``], or no less than ``low`` if ``high`` is None:
    the one rule for a count, dimension or index argument, which refuses
    anything else with a ``ValidationError`` naming ``what`` and the bounds.
    A JSON field keeps the exact types of ``formats._int`` (no numpy
    integer), and so does a config built in Python, which shares its converters."""
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and low <= value and (high is None or value <= high)):
        return int(value)
    bounds = f"of at least {low}" if high is None else f"in [{low}, {high}]"
    raise ValidationError(f"{what} must be an integer {bounds}, got {value!r}")


def _nonnegative(value, what):
    """``value`` as a float if it is one Python or numpy real (not a bool),
    finite and nonnegative: the one rule for a real scalar argument (a
    ridge, a noise level), which refuses anything else with a
    ``ValidationError`` naming ``what``. A JSON field passes
    ``formats._number``'s exact types first."""
    if isinstance(value, (int, float, np.generic)):
        arr = np.asarray(value)  # a bool is of kind "b", a huge int of "O"
        if arr.dtype.kind in "iuf" and np.isfinite(arr) and arr >= 0:
            return float(arr)
    raise ValidationError(f"{what} must be finite and nonnegative, got {value!r}")


def _openblas(symbol):
    """``symbol`` from the OpenBLAS bundled with numpy, or None where there
    is none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            return getattr(ctypes.CDLL(str(path)), symbol)
        except (OSError, AttributeError):
            continue
    return None


@functools.cache
def _blas_threads_setter():
    """``openblas_set_num_threads_local`` from the OpenBLAS bundled with
    numpy, or None where there is none. It sets the calling thread's count
    in an OpenMP build and the process's in a pthreads one (numpy's wheels),
    and returns the count it replaced."""
    setter = _openblas("openblas_set_num_threads_local")
    if setter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    return setter


# LAPACKE's matrix_layout value for column-major storage, which LAPACKE's
# _work routines pass straight to LAPACK.
_COL_MAJOR = 102


@functools.cache
def _dsyevd():
    """LAPACKE's ``dsyevd_work`` with 64-bit integers, as numpy's
    scipy-openblas wheels export it, or None where there is none."""
    fn = _openblas("scipy_LAPACKE_dsyevd_work64_")
    if fn is not None:
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        fn.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, i64, ptr, i64, ptr,
                       ptr, i64, ptr, i64]
        fn.restype = i64
    return fn


def _eigh_rows(a):
    """Every eigenpair of ``(a + a.T) / 2``, in ``a``'s own memory.

    ``a`` is a writable C-contiguous square float64 array; it is made
    symmetric by :func:`symmetrize` and then overwritten. Returns
    ``(values, rows)``: eigenvalues ascending and ``rows``, which is ``a``,
    holding eigenvector k in row k, with the bits ``np.linalg.eigh`` gives
    the symmetrised matrix's values and its vectors' columns. ``dsyevd``
    runs as ``eigh`` runs it (``'V'``, ``'L'``, the workspace it asks for);
    a call releases the GIL. Without numpy's OpenBLAS, ``eigh`` itself gives
    the same bits through its copies.
    """
    if not (a.ndim == 2 and a.shape[0] == a.shape[1] and a.dtype == np.float64
            and a.flags.c_contiguous and a.flags.writeable):
        raise ValueError("expected a writable C-contiguous square float64 array")
    symmetrize(a)
    dsyevd = _dsyevd()
    if dsyevd is None:
        values, vectors = np.linalg.eigh(a)
        return values, vectors.T
    n = a.shape[0]
    values = np.empty(n)
    size, isize = np.empty(1), np.empty(1, np.int64)

    def call(work, iwork, lwork, liwork):
        return dsyevd(_COL_MAJOR, b"V", b"L", n, a.ctypes.data, max(1, n),
                      values.ctypes.data, work.ctypes.data, lwork, iwork.ctypes.data, liwork)

    call(size, isize, -1, -1)  # the workspace query
    work, iwork = np.empty(int(size[0])), np.empty(int(isize[0]), np.int64)
    if call(work, iwork, work.size, iwork.size) != 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return values, a


def _fix_signs(vectors):
    # Make the largest-magnitude entry of each column positive. argmax picks
    # the first maximum, so the choice is deterministic even under exact ties.
    if vectors.shape[1] == 0:
        return vectors
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def eig_sym(a, count=None):
    """Leading eigenpairs of ``(a + a.T) / 2``, factored in place.

    Parameters
    ----------
    a : (n, n) ndarray
        Writable, C-contiguous float64, and overwritten: it is averaged with
        its transpose by :func:`symmetrize`, and the factorization runs in
        its memory.
    count : int, optional
        How many of the largest eigenpairs to return; all n by default. The
        whole spectrum is computed either way (in ``a`` and about 2n^2
        floats of LAPACK workspace), but only these columns are ordered and
        sign-fixed, with the bits a full call gives them.

    Returns
    -------
    values, vectors : ndarray
        Eigenvalues descending; orthonormal eigenvector columns with each
        column's largest-magnitude entry positive, in the Fortran order
        (and with the bits) that ``np.linalg.eigh``'s ordered columns have.
    """
    values, rows = _eigh_rows(a)
    order = np.argsort(-values, kind="stable")[:count]
    return values[order], _fix_signs(rows[order].T)


def symmetrize(a):
    """Replace a square float array by ``(a + a.T) * 0.5`` in place.

    Only the mirror pairs whose bits differ are averaged, each to the bits of
    ``(a[i, j] + a[j, i]) * 0.5`` (addition commutes exactly); a pair whose
    bits agree is its own mean and keeps them, so ``x + x`` cannot overflow
    where ``x`` does not. The only temporaries are one block of
    :func:`mirror_blocks`. Returns ``a``.
    """
    for upper, lower in mirror_blocks(a):
        differ = upper.view(np.int64) != lower.view(np.int64)
        if differ.any():
            mean = np.add(upper, lower, out=upper.copy(), where=differ)
            np.multiply(mean, 0.5, out=mean, where=differ)
            upper[...] = mean
            lower[...] = mean
    return a


def mirror_blocks(a):
    """Walk a square array as ``(upper, lower)`` pairs of writable views.

    ``upper`` is a block of ``_SYM_ROWS`` rows from the diagonal rightwards,
    ``lower`` the matching columns from the diagonal down, transposed, so
    ``lower[i, j]`` is the mirror of ``upper[i, j]``. Each mirror pair falls
    in exactly one block, and no later block reads a pair an earlier one
    wrote; a pair on a block's diagonal square is in both views.
    """
    n = a.shape[0]
    for start in range(0, n, _SYM_ROWS):
        stop = min(start + _SYM_ROWS, n)
        yield a[start:stop, start:], a[start:, start:stop].T
