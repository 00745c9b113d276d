"""Deterministic spectral primitives.

Symmetric eigendecomposition with a fixed eigenvalue ordering, and the sign
convention it applies to eigenvector columns (also used by the alignment
solver), so that downstream embeddings are reproducible run to run on one
platform.
"""

from __future__ import annotations

import numpy as np

__all__ = ["eig_sym"]


def _fix_signs(vectors):
    # Make the largest-magnitude entry of each column positive. argmax picks
    # the first maximum, so the choice is deterministic even under exact ties.
    if vectors.shape[1] == 0:
        return vectors
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def eig_sym(a):
    """Full decomposition of a symmetric matrix.

    Parameters
    ----------
    a : (n, n) ndarray
        Symmetric; not checked. Only the lower triangle is read, so a caller
        whose matrix is symmetric only up to rounding symmetrises it first.

    Returns
    -------
    values, vectors : ndarray
        Eigenvalues descending; orthonormal eigenvector columns with each
        column's largest-magnitude entry positive.
    """
    values, vectors = np.linalg.eigh(a)
    order = np.argsort(-values, kind="stable")
    # Rebinding frees the unordered vectors before the signs are fixed.
    vectors = vectors[:, order]
    return values[order], _fix_signs(vectors)
