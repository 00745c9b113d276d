"""k-nearest-neighbor classification in the shared space.

The cross-view protocol: for each object i the classifier sees every
training-view row except i and predicts test-view row i (the training view
may be the average of two views). The ``kappa`` nearest training rows by
Euclidean distance vote. A distance tie at the kappa-th neighbor goes to the
smallest training index; a vote tie goes to the class with the smallest mean
neighbor distance, then to the smallest class id.

Selection sorts no more than it must. ``np.partition`` finds each query's
kappa-th smallest distance; when exactly kappa columns lie at or below it,
those columns, listed in column order and stable-sorted by distance, are the
kappa nearest in the order a stable sort of the whole row gives. Only a row
whose tie straddles the kappa-th distance is sorted whole. Either way the
neighbors come by distance, then by smallest training index.

Distances are built one coordinate at a time: the training points are held
transposed, one contiguous row per coordinate, and each coordinate's squared
differences form one (queries, m) array. They add into one running total left
to right, coordinate 0 first, whatever the layout of the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import IntegrityError, ValidationError

__all__ = [
    "LabeledEmbedding",
    "knn_predict",
    "loo_cross_view_accuracy",
    "average_views",
]

# Floats per (queries, m) block of distances. Summing the coordinates holds two
# such arrays at once (the running total and one coordinate's squares); nothing
# holds an m^2 * p temporary.
_BLOCK_FLOATS = 1 << 16


@dataclass(frozen=True)
class LabeledEmbedding:
    """Shared-space coordinates with class labels and a provenance tag."""

    points: np.ndarray
    labels: np.ndarray
    view_tag: str = ""

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValidationError(f"points must be 2-D, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValidationError("points contain non-finite coordinates")
        labels = np.asarray(self.labels)
        if labels.ndim != 1 or labels.shape[0] != pts.shape[0]:
            raise IntegrityError(
                f"{labels.shape[0] if labels.ndim == 1 else labels.shape} labels "
                f"for {pts.shape[0]} points"
            )
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValidationError("labels must be integer class ids")
        if labels.size and labels.min() < 0:
            raise ValidationError("labels must be nonnegative")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", labels.astype(np.int64))

    def __len__(self) -> int:
        return self.points.shape[0]


def _stable_prefix(dist, kappa):
    """Column indices of each row's ``kappa`` smallest entries by a full
    stable sort: by value, then by smallest column."""
    return np.argsort(dist, axis=1, kind="stable")[:, :kappa]


def _nearest(dist, kappa):
    """What ``_stable_prefix`` returns, sorting whole only the rows where a tie
    straddles the kappa-th smallest value."""
    kept = dist <= np.partition(dist, kappa - 1, axis=1)[:, kappa - 1, None]
    tied = np.count_nonzero(kept, axis=1) > kappa
    near = np.empty((dist.shape[0], kappa), dtype=np.intp)
    if tied.any():
        near[tied] = _stable_prefix(dist[tied], kappa)
        kept[tied] = False
    rows, cols = np.nonzero(kept)
    order = np.argsort(dist[rows, cols].reshape(-1, kappa), axis=1, kind="stable")
    near[~tied] = np.take_along_axis(cols.reshape(-1, kappa), order, axis=1)
    return near


def _square(cols, queries, k, out=None):
    """Squared differences in coordinate k, one (queries, m) array."""
    out = np.subtract(cols[k], queries[:, k, None], out=out)
    return np.multiply(out, out, out=out)


def _squared_distances(cols, queries):
    """Squared distances from each query row to each column of ``cols`` (p, m),
    the coordinates' squared differences added left to right."""
    buf = np.empty((len(queries), cols.shape[1]))
    total = _square(cols, queries, 0) if len(cols) else np.zeros_like(buf)
    for k in range(1, len(cols)):
        total += _square(cols, queries, k, buf)
    return total


def _knn(points, labels, queries, kappa, leave_one_out):
    """Predicted class per query row; leave-one-out query i skips training row i."""
    high = len(points) - leave_one_out
    if (isinstance(kappa, bool) or not isinstance(kappa, Integral)
            or not 1 <= kappa <= high):
        raise ValidationError(f"kappa must be an integer in [1, {high}], got {kappa!r}")
    q = queries.shape[0]
    cols = np.ascontiguousarray(points.T)
    rows = max(1, _BLOCK_FLOATS // len(points))
    near = np.empty((q, kappa), dtype=np.intp)
    near_dist = np.empty((q, kappa))
    for start in range(0, q, rows):
        block = slice(start, start + rows)
        dist = _squared_distances(cols, queries[block])
        np.sqrt(dist, out=dist)
        if leave_one_out:
            np.fill_diagonal(dist[:, start:], np.inf)
        near[block] = _nearest(dist, kappa)
        near_dist[block] = np.take_along_axis(dist, near[block], axis=1)
    classes, codes = np.unique(labels, return_inverse=True)
    near_codes = codes[near]
    counts = np.zeros((q, classes.size), dtype=np.int64)
    sums = np.zeros((q, classes.size))
    row = np.arange(q)
    # Column by column, so each class's distances add in distance order: the
    # same sum np.mean takes over fewer than 8 values.
    for j in range(kappa):
        counts[row, near_codes[:, j]] += 1
        sums[row, near_codes[:, j]] += near_dist[:, j]
    tied = counts == counts.max(axis=1, keepdims=True)
    mean = np.divide(sums, counts, out=np.full(sums.shape, np.inf), where=tied)
    best = tied & (mean == mean.min(axis=1, keepdims=True))
    return classes[np.argmax(best, axis=1)]


def knn_predict(train, query, kappa) -> int:
    """Majority label among the ``kappa`` nearest training rows."""
    q = np.asarray(query, dtype=float)
    if q.shape != (train.points.shape[1],):
        raise ValidationError(
            f"query has shape {q.shape}, expected ({train.points.shape[1]},)"
        )
    if not np.all(np.isfinite(q)):
        raise ValidationError("query contains non-finite coordinates")
    return int(_knn(train.points, train.labels, q[None, :], kappa, False)[0])


def _check_matched(a, b):
    if a.points.shape != b.points.shape:
        raise IntegrityError(
            f"views have mismatched shapes {a.points.shape} and {b.points.shape}"
        )
    if not np.array_equal(a.labels, b.labels):
        raise IntegrityError("views disagree on labels; rows must be matched objects")


def loo_cross_view_accuracy(train_view, test_view, kappa) -> float:
    """Fraction of objects whose test-view row is predicted correctly from the
    training view with the object itself left out."""
    _check_matched(train_view, test_view)
    predicted = _knn(train_view.points, train_view.labels, test_view.points, kappa, True)
    return np.count_nonzero(predicted == train_view.labels) / len(train_view)


def average_views(a, b, view_tag=None) -> LabeledEmbedding:
    """Pointwise mean of two matched views (the fused training variant)."""
    _check_matched(a, b)
    tag = view_tag if view_tag is not None else a.view_tag + b.view_tag
    return LabeledEmbedding(0.5 * (a.points + b.points), a.labels, tag)
