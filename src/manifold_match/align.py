"""Linear alignment of per-domain embeddings into a shared space.

CCA for two views and its many-view generalization share one solver. The
objective is the symmetric-definite pencil ``R u = lambda (D + ridge*I) u``
with R holding the between-view blocks ``X_g^T X_h`` (zero diagonal) and D
the block diagonal of ``X_g^T X_g``. Each centered view is whitened by its
thin SVD ``X_g = U_g S_g V_g^T`` (singular values at rounding level
dropped), which turns the pencil into one symmetric eigenproblem on the
stacked shrunken bases ``T = [U_g S_g (S_g^2 + ridge)^(-1/2)]``:
``T^T T - diag(S^2 / (S^2 + ridge))``. At ridge 0 this is Carroll's MAXVAR
GCCA. A view given as an array is factored by ``np.linalg.svd``. A view
given as an :class:`~manifold_match.mds.MdsModel`, as an experiment passes
them, comes factored: its embedding ``V sqrt(L)`` has centered, mutually
orthogonal columns, so ``S_g`` is their norms, ``U_g`` the columns divided
by them and ``V_g = I``.

Per-dimension maps are normalized so the averaged projected energy
``(1/K) sum_g |X_g u_g|^2`` is one. GCCA reports for dimension l the
averaged pairwise cross-correlation of the projected views, exactly one
when all views coincide; CCA reports the cosine of its two projected
views, which differs from the averaged value once ridge > 0 makes the two
views' energies unequal. A dimension whose eigenvalue is not positive is
a ConditioningError rather than a fitted dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConditioningError, FormatError, ValidationError
from .formats import (_at_least, _int, _number, _str, read_fields, read_matrix, write_json,
                      write_matrix)
from .mds import MdsModel
from .numerics import _fix_signs, _real_matrix, eig_sym

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
    shared dimensions: at least two 2-D arrays (exactly two for ``cca``)
    with the same d >= 1 columns. ``correlations`` holds the d
    per-dimension alignment correlations, descending in [-1, 1].
    """

    projections: tuple[np.ndarray, ...]
    correlations: np.ndarray
    method: str
    ridge: float

    def __post_init__(self):
        shapes = [np.shape(u) for u in self.projections]
        if (len(shapes) < 2 or any(len(shape) != 2 for shape in shapes)
                or len({shape[1] for shape in shapes}) != 1 or shapes[0][1] < 1):
            raise ValidationError(
                f"need two or more 2-D projections of one width d >= 1, got shapes {shapes}"
            )
        if self.method == "cca" and len(shapes) != 2:
            raise ValidationError(f"cca maps have two projections, got {len(shapes)}")
        rho = np.asarray(self.correlations, dtype=float)
        if rho.shape != (shapes[0][1],):
            raise ValidationError(f"{rho.size} correlations for d={shapes[0][1]} dimensions")
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
    for k, view in enumerate(views):
        x = np.asarray(_real_matrix(view, f"view {k} coordinates"), dtype=float)
        if centered and len(x) != len(centered[0]):
            raise ValidationError(f"view {k} has {len(x)} rows, expected {len(centered[0])}")
        centered.append(x - x.mean(axis=0))
    return centered, len(centered[0])


def _factor(view, x):
    """Thin SVD ``(U, s, V^T)`` of the centered view ``x``.

    A fit made by ``mds_fit`` has orthogonal columns, so its singular values
    are the column norms (not necessarily sorted), ``V^T`` is the identity
    (None) and no SVD is needed. Any other view is factored by SVD.
    """
    if isinstance(view, MdsModel) and view._orthogonal:
        s = np.linalg.norm(x, axis=0)
        return x / s, s, None
    return np.linalg.svd(x, full_matrices=False)


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
    else:
        ridge = _ridge(ridge)

    # Whiten each view by its thin SVD X = U S V^T, dropping singular values
    # at rounding level: with w = (s^2 + ridge)^(1/2), the map u = V w^-1 a
    # turns R u = lambda (D + ridge*I) u into an ordinary eigenproblem in a.
    bases, back, shrink = [], [], []
    for view, x in zip(views, xs):
        left, s, vt = _factor(view, x)
        keep = s > s.max() * max(x.shape) * np.finfo(float).eps
        s = s[keep]
        w = np.sqrt(s * s + ridge)
        bases.append(left[:, keep] * (s / w))
        back.append((vt, keep, w))
        shrink.append((s / w) ** 2)
    ranks = [len(s) for s in shrink]
    # One copy of the stacked bases at a time, and none once T^T T exists.
    t = np.hstack(bases)
    del bases
    gram = t.T @ t
    del t
    gram[np.diag_indices_from(gram)] -= np.concatenate(shrink)
    # Factored in place. A column's sign is fixed again on the stacked map
    # below, which negating it beforehand leaves exactly as it is.
    values, top = eig_sym(gram, d)
    del gram
    # A dimension without positive cross-correlation is not shared; it
    # appears once the views' ranks fall below d (all-zero views included).
    if len(values) < d or values[-1] <= 0:
        raise ConditioningError(
            f"the views share {int(np.count_nonzero(values > 0))} positively "
            f"correlated dimensions, fewer than the shared dimension {d}; "
            "reduce the shared dimension"
        )
    whitened = np.split(top, np.cumsum(ranks)[:-1])
    # Each view's map is V w^-1 a: with V the identity, a row scaling into the kept rows.
    stacked = np.zeros((sum(widths), d))
    for (vt, keep, w), a, u in zip(back, whitened, np.split(stacked, np.cumsum(widths)[:-1])):
        if vt is None:
            u[keep] = a * (1 / w)[:, None]
        else:
            u[:] = (vt[keep].T / w) @ a
    maps = np.split(_fix_signs(stacked), np.cumsum(widths)[:-1])
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
    unit projected energy, successive dimensions decorrelated. Each view is
    an ``(n, p)`` array or an :class:`~manifold_match.mds.MdsModel`, whose
    embedding is aligned without refactoring it. ``ridge``
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
    x = np.asarray(_real_matrix(points, "points"), dtype=float)
    u = maps.projections[view_index]
    if x.shape[1] != u.shape[0]:
        raise ValidationError(
            f"points have shape {x.shape}, expected (*, {u.shape[0]}) for view {view_index}"
        )
    return x @ u


def commensurability_error(proj_a, proj_b) -> float:
    """Mean squared shared-space distance between matched rows.

    ``(1/n) sum_i |a_i - b_i|^2`` — how far apart one object's two
    projections land.
    """
    a = np.asarray(_real_matrix(proj_a, "proj_a coordinates"), dtype=float)
    b = np.asarray(_real_matrix(proj_b, "proj_b coordinates"), dtype=float)
    if a.shape != b.shape:
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


def _ridge(ridge):
    """``ridge`` as a float if it is finite and nonnegative: the rule for an
    alignment's ridge and for a config's."""
    if not (np.isfinite(ridge) and ridge >= 0):
        raise ValidationError(f"ridge must be finite and nonnegative, got {ridge}")
    return float(ridge)


def _method(value):
    """``value`` if it names an alignment method: the rule for a config's
    ``method`` and for the one a run's or an alignment's ``meta.json`` records."""
    if _str(value) not in ("cca", "gcca"):
        raise ValidationError(f"method must be 'cca' or 'gcca', got {value!r}")
    return value


# The meta.json fields load_alignment reads, each with its conversion.
_ALIGNMENT_META = {"K": _int, "method": _method, "d": _at_least(1),
                   "ridge": lambda ridge: float(_number(ridge))}


def load_alignment(in_dir) -> AlignmentMaps:
    """Inverse of :func:`save_alignment`. A ``meta.json`` field that is
    missing or not of its type (``K`` an integer, ``method`` ``"cca"`` or
    ``"gcca"``, ``d`` an integer of at least 1, ``ridge`` a number) is a
    ``FormatError`` naming the file and the field; maps that
    :class:`AlignmentMaps` rejects (a width or a correlation count that
    disagrees, say), or whose width is not ``d``, one naming the directory."""
    src = Path(in_dir)
    meta_path = src / "meta.json"
    meta = read_fields(meta_path, _ALIGNMENT_META)
    projections = tuple(read_matrix(src / f"U_{k}.tsv") for k in range(1, meta["K"] + 1))
    correlations = read_matrix(src / "correlations.tsv")
    if correlations.shape[1] != 1:
        raise FormatError(f"{src / 'correlations.tsv'}: expected one value per line")
    try:
        maps = AlignmentMaps(projections, correlations[:, 0], meta["method"], meta["ridge"])
    except ValidationError as exc:
        raise FormatError(f"{src}: {exc}") from None
    if maps.d != meta["d"]:
        raise FormatError(f"{src}: maps of width {maps.d}, but {meta_path} says d={meta['d']}")
    return maps
