"""Deterministic spectral primitives.

Symmetric eigendecomposition with a fixed eigenvalue ordering, and the sign
convention it applies to eigenvector columns (also used by the alignment
solver), so that downstream embeddings are reproducible run to run on one
platform; and the in-place average of a square matrix with its transpose
that makes a matrix symmetric to the bit before it is factored, walked one
block of rows and their mirror columns at a time.
"""

from __future__ import annotations

import numpy as np

__all__ = ["eig_sym", "mirror_blocks", "symmetrize"]

# Rows per block of mirror_blocks: a temporary of one block is this many
# rows wide.
_SYM_ROWS = 64


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
    """Leading eigenpairs of a symmetric matrix.

    Parameters
    ----------
    a : (n, n) ndarray
        Symmetric; not checked. Only the lower triangle is read, so a caller
        whose matrix is symmetric only up to rounding symmetrises it first.
    count : int, optional
        How many of the largest eigenpairs to return; all n by default. The
        whole spectrum is computed either way (``eigh`` holds an n x n
        eigenvector array and its own workspace), but only these columns
        are ordered and sign-fixed, with the bits a full call gives them.

    Returns
    -------
    values, vectors : ndarray
        Eigenvalues descending; orthonormal eigenvector columns with each
        column's largest-magnitude entry positive.
    """
    values, vectors = np.linalg.eigh(a)
    order = np.argsort(-values, kind="stable")[:count]
    # Rebinding frees the unordered vectors before the signs are fixed.
    vectors = vectors[:, order]
    return values[order], _fix_signs(vectors)


def symmetrize(a):
    """Replace a square float array by ``(a + a.T) * 0.5`` in place.

    Each entry is the bits of ``(a[i, j] + a[j, i]) * 0.5``, as the whole-array
    expression gives them (addition commutes exactly), but the only temporary
    is one block of :func:`mirror_blocks`. Returns ``a``.
    """
    for upper, lower in mirror_blocks(a):
        mean = upper + lower
        mean *= 0.5
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
