"""Linear alignment of per-domain embeddings into a shared space.

CCA for two views and its many-view generalization share one solver. The
objective is the symmetric-definite pencil ``R u = lambda (D + ridge*I) u``
with R holding the between-view blocks ``X_g^T X_h`` (zero diagonal) and D
the block diagonal of ``X_g^T X_g``. Each centered view is whitened by its
thin SVD ``X_g = U_g S_g V_g^T`` (singular values at rounding level
dropped), which turns the pencil into one symmetric eigenproblem on the
stacked shrunken bases ``T = [U_g S_g (S_g^2 + ridge)^(-1/2)]``:
``T^T T - diag(S^2 / (S^2 + ridge))``. At ridge 0 this is Carroll's MAXVAR
GCCA. Per-dimension maps are normalized so the averaged projected energy
``(1/K) sum_g |X_g u_g|^2`` is one. GCCA reports for dimension l the
averaged pairwise cross-correlation of the projected views, exactly one
when all views coincide; CCA reports the cosine of its two projected
views, which differs from the averaged value once ridge > 0 makes the two
views' energies unequal. A dimension whose eigenvalue is not positive is
a ConditioningError rather than a fitted dimension.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConditioningError, FormatError, ValidationError
from .formats import read_matrix, write_json, write_matrix
from .numerics import _fix_signs

__all__ = [
    "AlignmentMaps",
    "cca_fit",
    "gcca_fit",
    "project",
    "commensurability_error",
    "save_alignment",
    "load_alignment",
]

# Ridge is purely numerical; embeddings can be rank-deficient after class
# subsampling. Scaled by the mean squared column norm of the centered views.
_DEFAULT_RIDGE_SCALE = 1e-8

_DESCENDING_SLACK = 1e-9


@dataclass(frozen=True)
class AlignmentMaps:
    """Per-view projection matrices into the shared space.

    ``projections[k]`` maps view k's coordinates (p_k columns) onto the d
    shared dimensions; ``correlations`` holds the per-dimension alignment
    correlations, descending in [-1, 1].
    """

    projections: tuple[np.ndarray, ...]
    correlations: np.ndarray
    method: str
    ridge: float

    def __post_init__(self):
        rho = np.asarray(self.correlations, dtype=float)
        if np.any(np.abs(rho) > 1.0 + _DESCENDING_SLACK):
            raise ValidationError("correlations must lie in [-1, 1]")
        if np.any(np.diff(rho) > _DESCENDING_SLACK):
            raise ValidationError("correlations must be sorted descending")

    @property
    def K(self) -> int:
        return len(self.projections)

    @property
    def d(self) -> int:
        return self.projections[0].shape[1]


def _centered_views(views):
    centered = []
    n_rows = None
    for k, view in enumerate(views):
        x = np.asarray(view, dtype=float)
        if x.ndim != 2:
            raise ValidationError(f"view {k} must be 2-D, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValidationError(f"view {k} contains non-finite entries")
        if n_rows is None:
            n_rows = x.shape[0]
        elif x.shape[0] != n_rows:
            raise ValidationError(
                f"view {k} has {x.shape[0]} rows, expected {n_rows}"
            )
        centered.append(x - x.mean(axis=0))
    return centered, n_rows


def _fit(views, d, ridge, method):
    xs, n = _centered_views(views)
    K = len(xs)
    widths = [x.shape[1] for x in xs]
    if d < 1:
        raise ValidationError(f"shared dimension must be positive, got {d}")
    if d > min(widths):
        raise ValidationError(
            f"shared dimension {d} exceeds the narrowest view width {min(widths)}"
        )
    if d > n - 1:
        raise ValidationError(f"shared dimension {d} needs at least {d + 1} rows, got {n}")
    if ridge is None:
        ridge = _DEFAULT_RIDGE_SCALE * sum(float(np.vdot(x, x)) for x in xs) / sum(widths)
    elif not (np.isfinite(ridge) and ridge >= 0):
        raise ValidationError(f"ridge must be finite and nonnegative, got {ridge}")

    # Whiten each view by its thin SVD X = U S V^T, dropping singular values
    # at rounding level: with w = (s^2 + ridge)^(1/2), the map u = V w^-1 a
    # turns R u = lambda (D + ridge*I) u into an ordinary eigenproblem in a.
    bases, back, shrink = [], [], []
    for x in xs:
        left, s, vt = np.linalg.svd(x, full_matrices=False)
        keep = s > s[0] * max(x.shape) * np.finfo(float).eps
        s = s[keep]
        w = np.sqrt(s * s + ridge)
        bases.append(left[:, keep] * (s / w))
        back.append(vt[keep].T / w)
        shrink.append((s / w) ** 2)
    ranks = [len(s) for s in shrink]
    t = np.hstack(bases)
    values, vectors = np.linalg.eigh(t.T @ t - np.diag(np.concatenate(shrink)))
    leading = np.argsort(-values, kind="stable")[:d]
    # A dimension without positive cross-correlation is not shared; it
    # appears once the views' ranks fall below d (all-zero views included).
    if len(leading) < d or values[leading[-1]] <= 0:
        raise ConditioningError(
            f"the views share {int(np.count_nonzero(values > 0))} positively "
            f"correlated dimensions, fewer than the shared dimension {d}; "
            "reduce the shared dimension"
        )
    top = vectors[:, leading]
    whitened = np.split(top, np.cumsum(ranks)[:-1])
    stacked = _fix_signs(np.vstack([b @ a for b, a in zip(back, whitened)]))

    maps = np.split(stacked, np.cumsum(widths)[:-1])
    projected = [x @ u for x, u in zip(xs, maps)]

    # Normalize each dimension to unit averaged projected energy:
    # (1/K) sum_g |X_g u_g^l|^2 = 1.
    energy = sum((z * z).sum(axis=0) for z in projected) / K
    scale = 1.0 / np.sqrt(energy)
    maps = [u * scale for u in maps]
    projected = [z * scale for z in projected]

    if method == "cca":
        # Cosine of the two projected views: with ridge > 0 their energies
        # differ, so the averaged formula below would understate it.
        z1, z2 = projected
        norms1 = np.linalg.norm(z1, axis=0)
        norms2 = np.linalg.norm(z2, axis=0)
        rho = (z1 * z2).sum(axis=0) / (norms1 * norms2)
    else:
        # Averaged pairwise cross-correlation over ordered view pairs g != h.
        total_z = sum(projected)
        sum_sq = sum((z * z).sum(axis=0) for z in projected)
        rho = ((total_z * total_z).sum(axis=0) - sum_sq) / (K * (K - 1))

    # Stable descending sort; eigenvalue order already matches up to
    # rounding, so this only relabels dimensions deterministically.
    order = np.argsort(-rho, kind="stable")
    rho = rho[order]
    maps = tuple(np.ascontiguousarray(u[:, order]) for u in maps)
    return AlignmentMaps(maps, rho, method, float(ridge))


def cca_fit(x1, x2, d, ridge=None) -> AlignmentMaps:
    """Two-view canonical correlation on centered embeddings.

    Maximizes the per-dimension correlation of the projected views under
    unit projected energy, successive dimensions decorrelated. ``ridge``
    defaults to a small multiple of the mean auto-covariance diagonal;
    pass 0 to disable. A negative or non-finite ridge is a ValidationError.
    """
    return _fit([x1, x2], d, ridge, "cca")


def gcca_fit(views, d, ridge=None) -> AlignmentMaps:
    """Many-view generalization of CCA.

    Maximizes the averaged pairwise cross-correlation over all ordered view
    pairs under unit averaged projected energy; with two views the
    correlation spectrum coincides with :func:`cca_fit`'s.
    """
    if len(views) < 2:
        raise ValidationError(f"need at least 2 views, got {len(views)}")
    return _fit(list(views), d, ridge, "gcca")


def project(maps, view_index, points):
    """Project view ``view_index``'s coordinates into the shared space."""
    if not 0 <= view_index < maps.K:
        raise ValidationError(f"view index {view_index} out of range [0, {maps.K})")
    x = np.asarray(points, dtype=float)
    u = maps.projections[view_index]
    if x.ndim != 2 or x.shape[1] != u.shape[0]:
        raise ValidationError(
            f"points have shape {x.shape}, expected (*, {u.shape[0]}) for view {view_index}"
        )
    return x @ u


def commensurability_error(proj_a, proj_b) -> float:
    """Mean squared shared-space distance between matched rows.

    ``(1/n) sum_i |a_i - b_i|^2`` — how far apart one object's two
    projections land.
    """
    a = np.asarray(proj_a, dtype=float)
    b = np.asarray(proj_b, dtype=float)
    if a.shape != b.shape or a.ndim != 2:
        raise ValidationError(
            f"projections must share one 2-D shape, got {a.shape} and {b.shape}"
        )
    diff = a - b
    return float((diff * diff).sum() / a.shape[0])


def save_alignment(maps, out_dir):
    """Write U_<k>.tsv per view, correlations.tsv, and meta.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for k, u in enumerate(maps.projections, start=1):
        write_matrix(u, out / f"U_{k}.tsv")
    write_matrix(np.reshape(maps.correlations, (-1, 1)), out / "correlations.tsv")
    meta = {"method": maps.method, "d": maps.d, "K": maps.K, "ridge": maps.ridge}
    write_json(meta, out / "meta.json")


def load_alignment(in_dir) -> AlignmentMaps:
    """Inverse of :func:`save_alignment`."""
    src = Path(in_dir)
    meta_path = src / "meta.json"
    with open(meta_path, "r", encoding="utf-8") as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{meta_path}: {exc}") from None
    try:
        K, method, ridge = int(meta["K"]), str(meta["method"]), float(meta["ridge"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{meta_path}: missing or malformed field {exc}") from None
    projections = tuple(read_matrix(src / f"U_{k}.tsv") for k in range(1, K + 1))
    correlations = read_matrix(src / "correlations.tsv")
    if correlations.shape[1] != 1:
        raise FormatError(f"{src / 'correlations.tsv'}: expected one value per line")
    return AlignmentMaps(projections, correlations[:, 0], method, ridge)
