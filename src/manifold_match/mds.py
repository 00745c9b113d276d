"""Classical (Torgerson) multidimensional scaling.

Embeds a dissimilarity matrix into Euclidean coordinates by spectrally
factoring the double-centered squared-dissimilarity matrix, keeps only the
strictly positive part of the spectrum, and extends to new points by Gower
interpolation using the stored centering statistics.

Embeddings are plain ``(n, p)`` float arrays, rows = objects. Dissimilarities
are real square matrices (``_real_matrix``), hop counts too; each is squared
straight into float64. Working set: a fit holds one n x n float64 array (the
Gram matrix, centred in place, then averaged with its transpose and factored
in place by :func:`~manifold_match.numerics.eig_sym`, which overwrites it
with the eigenvectors) beside LAPACK's workspace of about 2n^2 floats, about
3n^2 floats in all beside its input. A caller that owns a float64 input it
needs no longer (an experiment's training block, a float matrix the ``mds``
command read) has the Gram matrix built in the input's memory, so input and
fit together hold about 3n^2 floats; hop counts (a geodesic file read from
its twin) add their own n^2 bytes or so. An out-of-sample call holds one
(m, n) float64 array for m new points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .numerics import _real_matrix, eig_sym

__all__ = ["MdsModel", "mds_fit", "mds_out_of_sample", "fidelity_error", "scree"]

# Eigenvalues below this fraction of the leading one count as zero, so that
# rank-deficient configurations report an honest effective dimension.
_POSITIVE_RTOL = 1e-10


@dataclass(frozen=True)
class MdsModel:
    """A fitted classical-scaling configuration.

    ``embedding`` holds the in-sample coordinates (columns centered),
    ``eigenvalues`` the retained positive spectrum, and ``row_means`` /
    ``grand_mean`` the centering statistics of the squared dissimilarities
    needed to embed new points. The effective dimension may be smaller than
    the one asked for when the spectrum has fewer positive eigenvalues.
    ``np.asarray(model)`` is the embedding, so a model serves wherever its
    coordinates would.
    """

    embedding: np.ndarray
    eigenvalues: np.ndarray
    row_means: np.ndarray
    grand_mean: float
    # Set only on the fits mds_fit makes, whose embedding columns are
    # orthogonal by construction; alignment takes no other model's word for it.
    _orthogonal: bool = field(default=False, init=False, repr=False, compare=False)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.embedding, dtype=dtype, copy=copy)

    @property
    def n(self) -> int:
        return self.embedding.shape[0]

    @property
    def effective_dim(self) -> int:
        return self.embedding.shape[1]


def mds_fit(delta, p, *, _overwrite=False) -> MdsModel:
    """Embed a dissimilarity matrix into at most ``p`` Euclidean dimensions.

    The squared dissimilarities are double-centered into a Gram matrix
    whose top eigenpairs give coordinates ``V_p sqrt(L_p)``. Negative
    eigenvalues (non-Euclidean input) are dropped, never clamped, so the
    Gram identity on the retained eigenspace holds exactly. ``_overwrite``
    is for a caller that owns a writable float64 ``delta`` it needs no
    longer (an experiment's gathered training block, a float matrix the
    ``mds`` command read): the Gram matrix is then built and factored in
    ``delta``'s memory, which is left overwritten. The fit's arrays are
    read-only, so it can be kept and shared as returned.
    """
    d = _real_matrix(delta, "dissimilarities", square=True)
    n = d.shape[0]
    if not 1 <= p <= n - 1:
        raise ValidationError(f"target dimension must satisfy 1 <= p <= n-1, got p={p}, n={n}")

    # Double-centre the squared dissimilarities in place, in the order
    # -0.5 * (squared - row_mean_i - row_mean_j + grand_mean).
    gram = np.multiply(d, d, out=d if _overwrite and d.dtype == float else None, dtype=float)
    row_means = gram.mean(axis=1)
    grand_mean = float(gram.mean())
    gram -= row_means[:, None]
    gram -= row_means[None, :]
    gram += grand_mean
    gram *= -0.5
    eigenvalues, eigenvectors = eig_sym(gram, p)
    # The leading eigenvalue sets the cutoff; the p leading ones are sorted,
    # so those above it come first.
    cutoff = max(float(eigenvalues[0]), 0.0) * _POSITIVE_RTOL
    keep = int(np.sum(eigenvalues > cutoff))
    values = eigenvalues[:keep].copy()
    coords = eigenvectors[:, :keep] * np.sqrt(values)
    for array in (coords, values, row_means):
        array.setflags(write=False)
    model = MdsModel(coords, values, row_means, grand_mean)
    object.__setattr__(model, "_orthogonal", True)
    return model


def mds_out_of_sample(model, delta_new):
    """Embed new points from their dissimilarities to the training objects.

    Gower interpolation: with ``s`` the squared new dissimilarities,

        b_i = -1/2 (s_i - row_mean_i - mean(s) + grand_mean)
        y   = L_p^{-1/2} V_p^T b

    which reproduces training rows exactly and recovers held-out points of
    Euclidean configurations. Accepts one dissimilarity vector of length n
    or a matrix of such rows; the output matches the input's ndim. One row
    goes to BLAS's matrix-vector kernel, several to its matrix-matrix
    kernel, so a row projected alone may differ in its last bits from the
    same row projected in a batch.
    """
    arr = np.asarray(delta_new)
    rows = _real_matrix(np.atleast_2d(arr), "new dissimilarities")
    if rows.shape[1] != model.n:
        raise ValidationError(
            f"expected dissimilarities to {model.n} training objects, got shape {arr.shape}"
        )
    if rows.size and rows.min() < 0:
        raise ValidationError("new dissimilarities must be nonnegative")

    # b = -0.5 * (squared - row_means - mean(squared) + grand_mean), built
    # in place in the one (m, n) float array, in that order.
    b = np.multiply(rows, rows, dtype=float)
    means = b.mean(axis=1, keepdims=True)
    b -= model.row_means
    b -= means
    b += model.grand_mean
    b *= -0.5
    # X = V sqrt(L), so L^{-1/2} V^T b = L^{-1} X^T b.
    coords = (b @ model.embedding) / model.eigenvalues
    return coords[0] if arr.ndim == 1 else coords


def fidelity_error(embedding, delta) -> float:
    """Mean squared mismatch between embedded distances and dissimilarities.

    ``(1 / C(n,2)) * sum_{i<j} (|x_i - x_j| - delta_ij)^2`` — the
    within-domain distortion of an embedding.
    """
    x = np.asarray(_real_matrix(embedding, "embedding coordinates"), dtype=float)
    d = _real_matrix(delta, "dissimilarities", square=True)
    n = d.shape[0]
    if x.shape[0] != n:
        raise ValidationError(
            f"embedding has {x.shape[0]} rows but dissimilarity matrix is {n}x{n}"
        )
    if n < 2:
        return 0.0
    # Pairs in row-major upper-triangle order, one row's differences at a
    # time: exact norms of x_j - x_i, with no (n^2, p) temporary.
    gaps = np.concatenate(
        [np.linalg.norm(x[i + 1 :] - x[i], axis=1) - d[i, i + 1 :] for i in range(n - 1)]
    )
    return float(np.mean(gaps * gaps))


def scree(model) -> np.ndarray:
    """Square roots of the retained eigenvalues, descending (scree data)."""
    return np.sqrt(model.eigenvalues)
