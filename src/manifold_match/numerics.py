"""Deterministic spectral primitives.

Symmetric eigendecomposition with a fixed eigenvalue ordering, and the sign
convention it applies to eigenvector columns (also used by the alignment
solver), so that downstream embeddings are reproducible run to run on one
platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = ["SpectralResult", "eig_sym"]


@dataclass(frozen=True)
class SpectralResult:
    """Eigenvalues sorted descending with matching eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_symmetric(a, name, rtol=1e-10):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} contains non-finite entries")
    scale = np.linalg.norm(a)
    if np.linalg.norm(a - a.T) > rtol * max(scale, 1.0):
        raise ValidationError(f"{name} is not symmetric within relative {rtol:g}")
    return 0.5 * (a + a.T)


def _fix_signs(vectors):
    # Make the largest-magnitude entry of each column positive. argmax picks
    # the first maximum, so the choice is deterministic even under exact ties.
    if vectors.shape[1] == 0:
        return vectors
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def eig_sym(a) -> SpectralResult:
    """Full decomposition of a symmetric matrix.

    Parameters
    ----------
    a : (n, n) array_like
        Symmetric within relative 1e-10.

    Returns
    -------
    SpectralResult
        Eigenvalues descending; orthonormal eigenvector columns with each
        column's largest-magnitude entry positive.
    """
    s = _as_symmetric(a, "A")
    values, vectors = np.linalg.eigh(s)
    order = np.argsort(-values, kind="stable")
    return SpectralResult(values[order], _fix_signs(vectors[:, order]))
