"""Monte Carlo efficiency study: accuracy vs amount of relation-learning data.

Each replicate samples n' relation-learning objects, embeds every configured
view's dissimilarity sub-matrix by MDS at the scheduled dimension (halved
when regularized), aligns the views by CCA or its many-view generalization,
projects all classifier objects out-of-sample into the shared space, and
scores every configured train->test view combination with leave-one-out
k-NN. Results aggregate into per-cell means with bootstrap standard errors
and serialize to CSV.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .align import _method, cca_fit, gcca_fit, project
from .classify import LabeledEmbedding, average_views, loo_cross_view_accuracy
from .corpus import _name, _view_key, load_corpus
from .dissimilarity import _check_geodesic, frobenius_prescale
from .errors import ConfigError, FormatError, ValidationError
from .formats import (
    _at_least, _int, _number, _of, _optional, _str, read_fields, read_json, read_lines,
    write_json, write_lines,
)
from .mds import mds_fit, mds_out_of_sample
from .numerics import _blas_threads_setter, _nonnegative

__all__ = [
    "CANONICAL_SCHEDULE",
    "ScheduleRow",
    "ViewSpec",
    "ExperimentConfig",
    "CellStats",
    "AccuracyReport",
    "draw_training_sample",
    "replicate_seed_for",
    "run_experiment",
    "emit_curves",
    "reconstruct_report",
]

# Default (fraction, MDS dimension) ladder; dimensions are clamped to n'-1
# when the relation-learning pool is small.
CANONICAL_SCHEDULE = (
    (0.1, 40),
    (0.2, 80),
    (0.3, 100),
    (0.4, 100),
    (0.5, 150),
    (0.6, 150),
    (0.7, 150),
    (0.8, 200),
    (0.9, 200),
    (1.0, 200),
)


@dataclass(frozen=True)
class ScheduleRow:
    """One efficiency setting: sample size n', its fraction S of the pool, and
    the MDS dimension the fit uses (the scheduled one, halved if regularized)."""

    n_prime: int
    fraction: float
    mds_dim: int


@dataclass(frozen=True)
class ViewSpec:
    """A named (domain, dissimilarity-kind) pair, e.g. GE = graph/english."""

    tag: str
    domain: str
    kind: str


def _parse_combination(text):
    parts = text.split("->")
    if len(parts) != 2 or not all(parts):
        raise ConfigError(f"combination {text!r} must look like 'TRAIN->TEST'")
    return parts[0], parts[1]


def _tuple(check, key=None):
    """A converter taking a non-empty tuple or list to the tuple of ``check``
    of each item; with ``key``, no two items may have one ``key``."""
    def convert(items):
        items = tuple(map(check, _of(tuple, list)(items)))
        if not items:
            raise ValidationError("the list is empty")
        keys = [key(item) for item in items] if key else []
        for k, item in enumerate(keys):
            if item in keys[:k]:
                raise ValidationError(f"{item!r} repeats")
        return items
    return convert


def _fractions(fractions):
    """``fractions`` if they are strictly increasing in (0, 1]: the rule for
    a schedule's fractions and for the ones a run's ``meta.json`` records."""
    if not all(a < b for a, b in zip((0, *fractions), fractions)) or fractions[-1] > 1:
        raise ValidationError(f"fractions {list(fractions)} are not strictly increasing in (0, 1]")
    return fractions


def _rows(rows):
    """Schedule rows as (fraction, mds_dim) pairs: at least one row, the
    fractions :func:`_fractions` passes and each mds_dim at least 1."""
    rows = tuple((_number(f), _at_least(1)(d)) for f, d in _tuple(_of(tuple, list))(rows))
    _fractions([fraction for fraction, _ in rows])
    return rows


def _averaged(views):
    """Each averaged view's two view tags as a tuple, keyed by its tag, a
    name; None is none."""
    for tag, pair in ({} if views is None else _of(dict)(views)).items():
        _name(tag)
        if type(pair) not in (tuple, list) or [type(name) for name in pair] != [str, str]:
            raise ConfigError(f"averaged view {tag!r} must name two views, got {pair!r}")
    return {tag: tuple(pair) for tag, pair in (views or {}).items()}


# Every field of an ExperimentConfig, built in Python or read from JSON, and
# the one converter that checks it, with every rule that field keeps alone:
# the exact JSON types, a tuple or list where JSON has a list, a ViewSpec per
# view and a (fraction, mds_dim) pair per row. View tags, averaged-view tags
# and ``feature`` name fields and files of the outputs, and a view's domain
# and kind name a corpus's directory and matrix file, so each is a name
# (:func:`~manifold_match.corpus._name`). _META reads a run's settings back
# with the same converters.
_FIELDS = {
    "views": _tuple(lambda v: ViewSpec(_name(v.tag), _name(v.domain), _name(v.kind)),
                    key=lambda view: view.tag),
    "combinations": _tuple(_str, key=str), "relation_classes": _tuple(_int),
    "classifier_classes": _tuple(_int), "corpus_path": _of(str, type(None)),
    "averaged_views": _averaged, "method": _method, "regularized": _of(bool),
    "shared_dim": _at_least(1), "kappa": _at_least(1), "replicates": _at_least(1),
    "seed": _at_least(0), "schedule": _optional(_rows), "feature": _name,
    "ridge": _optional(lambda ridge: _nonnegative(_number(ridge), "ridge")),
    "cap": _int, "max_hops": _int, "bootstrap_samples": _at_least(1),
}
_REQUIRED_FIELDS = ("views", "combinations", "relation_classes", "classifier_classes")


def _objects(items, make, *keys):
    """``make`` of each object's values in ``keys`` order if ``items`` is a JSON
    list of objects with exactly ``keys``; else ``items``, for _FIELDS to reject."""
    if type(items) is list and all(type(i) is dict and i.keys() == set(keys) for i in items):
        return [make(*(item[key] for key in keys)) for item in items]
    return items


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a reproducible efficiency run needs."""

    views: tuple[ViewSpec, ...]
    combinations: tuple[str, ...]
    relation_classes: tuple[int, ...]
    classifier_classes: tuple[int, ...]
    corpus_path: str | None = None
    averaged_views: dict[str, tuple[str, str]] = field(default_factory=dict)
    method: str = "gcca"
    regularized: bool = False
    shared_dim: int = 15
    kappa: int = 5
    replicates: int = 200
    seed: int = 0
    schedule: tuple[tuple[float, int], ...] | None = None
    feature: str = "default"
    ridge: float | None = None
    cap: int = 6
    max_hops: int = 4
    bootstrap_samples: int = 1000

    def __post_init__(self):
        for name, convert in _FIELDS.items():
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, convert(value))
            except (AttributeError, OverflowError, TypeError, ValueError, ValidationError) as exc:
                detail = exc if isinstance(exc, ValidationError) else repr(value)
                raise ConfigError(f"malformed field {name!r}: {detail}") from None
        base = {view.tag for view in self.views}
        for avg_tag, (a, b) in self.averaged_views.items():
            if self.method != "gcca":
                raise ConfigError(
                    f"averaged view {avg_tag!r} requires method='gcca'; with CCA the "
                    "component views come from different fits"
                )
            if avg_tag in base:
                raise ConfigError(f"averaged view tag {avg_tag!r} collides with a base view")
            if a not in base or b not in base:
                raise ConfigError(
                    f"averaged view {avg_tag!r} references unknown views {a!r}, {b!r}"
                )
        train_ok = base | set(self.averaged_views)
        for combo in self.combinations:
            train, test = _parse_combination(combo)
            if train not in train_ok:
                raise ConfigError(f"combination {combo!r}: unknown training view {train!r}")
            if test not in base:
                raise ConfigError(f"combination {combo!r}: unknown testing view {test!r}")
        if not set(self.relation_classes).isdisjoint(self.classifier_classes):
            raise ConfigError("relation and classifier classes overlap")
        try:
            _check_geodesic(self.cap, self.max_hops)
        except ValidationError as exc:
            raise ConfigError(str(exc)) from None

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        try:
            raw = read_json(path)
        except (OSError, FormatError) as exc:  # each names the file
            raise ConfigError(str(exc)) from None
        return ExperimentConfig.from_dict(raw, source=str(path))

    @staticmethod
    def from_dict(raw, source="config") -> "ExperimentConfig":
        """A JSON object's config, with ``corpus`` as ``corpus_path`` and each view
        and schedule-row object as a ``ViewSpec`` or pair; errors name ``source``."""
        if not isinstance(raw, dict):
            raise ConfigError(f"{source}: the config must be a JSON object")
        names = {("corpus" if name == "corpus_path" else name): name for name in _FIELDS}
        unknown = set(raw) - set(names)
        if unknown:
            raise ConfigError(f"{source}: unknown fields {sorted(unknown)}")
        missing = [name for name in _REQUIRED_FIELDS if name not in raw]
        if missing:
            raise ConfigError(f"{source}: missing fields {missing}")
        fields = {names[name]: value for name, value in raw.items()}
        fields["views"] = _objects(fields["views"], ViewSpec, "tag", "domain", "kind")
        rows = fields.get("schedule")
        fields["schedule"] = _objects(rows, lambda *row: row, "fraction", "mds_dim")
        try:
            return ExperimentConfig(**fields)
        except ConfigError as exc:
            raise ConfigError(f"{source}: {exc}") from None


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _schedule(config, n_pool) -> tuple[ScheduleRow, ...]:
    """The config's schedule bound to a pool of ``n_pool`` relation-learning
    objects, with n' = round(S * n_pool).

    The default ladder drops rows with n' < 2 (its S = 100 % row stays, as
    the pool holds at least 2 objects) and clamps each dimension to n' - 1;
    a configured row whose dimension is not below n' is unsatisfiable.
    Each row's dimension is halved (floor, at least 1) when regularized and
    must still reach ``shared_dim``.
    """
    rows = []
    for fraction, dim in CANONICAL_SCHEDULE if config.schedule is None else config.schedule:
        n_prime = int(fraction * n_pool + 0.5)
        if config.schedule is None:
            if n_prime < 2:
                continue
            dim = min(dim, n_prime - 1)
        elif dim >= n_prime:
            raise ConfigError(
                f"schedule row S={fraction:g}: mds_dim={dim} >= n'={n_prime} is unsatisfiable"
            )
        fit_dim = max(1, dim // 2) if config.regularized else dim
        if config.shared_dim > fit_dim:
            raise ConfigError(
                f"schedule row S={fraction:g}: shared_dim={config.shared_dim} exceeds "
                f"the {'regularized ' if config.regularized else ''}MDS dimension {fit_dim}"
            )
        rows.append(ScheduleRow(n_prime, fraction, fit_dim))
    return tuple(rows)


@dataclass
class _PreparedRun:
    config: ExperimentConfig
    schedule: tuple[ScheduleRow, ...]
    full: dict[str, np.ndarray]
    rel_idx: np.ndarray
    clf_idx: np.ndarray
    labels_clf: np.ndarray
    ref_tag: str | None
    fit_keys: dict[str, tuple]  # view tag -> what its whole-pool fit depends on
    # The corpus's whole-pool fits by fit key and dimension, each kept as
    # (MdsModel, prescale factor or None).
    fits: dict


def _prepare(config, corpus) -> _PreparedRun:
    if corpus is None:
        if config.corpus_path is None:
            raise ConfigError("config has no corpus path and no corpus was supplied")
        corpus = load_corpus(config.corpus_path)
    missing = sorted(
        (set(config.relation_classes) | set(config.classifier_classes)) - set(corpus.class_sizes())
    )
    if missing:
        raise ConfigError(f"config names classes absent from the corpus: {missing}")

    rel_idx = np.flatnonzero(np.isin(corpus.labels, sorted(config.relation_classes)))
    clf_idx = np.flatnonzero(np.isin(corpus.labels, sorted(config.classifier_classes)))
    if rel_idx.size < 2:
        raise ConfigError(f"only {rel_idx.size} relation-learning objects")
    if clf_idx.size < 2:
        raise ConfigError(f"only {clf_idx.size} classifier objects")
    if config.kappa > clf_idx.size - 1:
        raise ConfigError(
            f"kappa={config.kappa} exceeds the leave-one-out training size "
            f"{clf_idx.size - 1}"
        )

    schedule = _schedule(config, int(rel_idx.size))
    full = {v.tag: corpus.view(v.domain, v.kind, config.cap, config.max_hops) for v in config.views}
    keys = {v.tag: _view_key(v.domain, v.kind, config.cap, config.max_hops) for v in config.views}
    # Text views are prescaled onto the first graph view's norm.
    ref_tag = next((v.tag for v in config.views if v.kind == "graph"), None)
    # A whole-pool fit is fixed by its view, the pool and, for a prescaled
    # text view, the reference view the factor comes from.
    fit_keys = {
        v.tag: (keys[v.tag], rel_idx.tobytes(), keys.get(ref_tag) if v.kind == "text" else None)
        for v in config.views
    }
    return _PreparedRun(
        config=config,
        schedule=schedule,
        full=full,
        rel_idx=rel_idx,
        clf_idx=clf_idx,
        labels_clf=corpus.labels[clf_idx],
        ref_tag=ref_tag,
        fit_keys=fit_keys,
        fits=corpus._fits,
    )


def replicate_seed_for(seed, row_index, replicate_index) -> int:
    """Stable per-replicate seed derived from the experiment seed."""
    ss = np.random.SeedSequence(seed, spawn_key=(row_index, replicate_index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def draw_training_sample(replicate_seed, relation_indices, n_prime) -> np.ndarray:
    """Sample n' distinct relation-learning indices, sorted for stable slicing."""
    rng = np.random.default_rng(replicate_seed)
    return np.sort(rng.choice(relation_indices, size=n_prime, replace=False))


# Rows per slice that _block gathers: its only temporary is one slice of
# whole rows of the view.
_BLOCK_ROWS = 64


def _block(matrix, rows, cols):
    """``matrix[np.ix_(rows, cols)]``, gathered with ``take`` along rows and
    then columns, a slice of rows at a time, straight into the result. The
    indices are in range, so ``mode="clip"`` changes nothing but spares
    ``take`` the buffer its default mode fills before copying into ``out``."""
    out = np.empty((rows.size, cols.size), matrix.dtype)
    for start in range(0, rows.size, _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        matrix.take(rows[start:stop], axis=0).take(cols, axis=1, out=out[start:stop], mode="clip")
    return out


def _scaled(block, factor):
    """``block * factor``: in place for a float block, which is the caller's
    own, and into a new float array for an unsigned one, which cannot hold
    the product."""
    return np.multiply(block, factor, out=block if block.dtype == float else None)


def _fit_view(prepared, view, sample, dim):
    """One view's MDS fit of a drawn sample, and the Frobenius prescale
    factor its dissimilarities took (None for a view that is not
    prescaled). A text view is prescaled onto the reference view's training
    block; its classifier rows take the same factor. The training block is
    this call's own, so a float one is squared into the fit's Gram matrix
    in place rather than into a second n' x n' array."""
    train = _block(prepared.full[view.tag], sample, sample)
    factor = None
    if view.kind == "text" and prepared.ref_tag is not None:
        factor = frobenius_prescale(train, _block(prepared.full[prepared.ref_tag], sample, sample))
        train = _scaled(train, factor)
    return mds_fit(train, dim, _overwrite=True), factor


def _run_single(prepared, sample, mds_dim):
    """Embed every view of one drawn sample at ``mds_dim``, then align,
    project and score every combination: one GCCA fit of all views serves
    every combination (and the averaged views), while CCA fits each
    combination's (test, train) pair. Each view's MDS fit and prescale
    factor are looked up by fit key and dimension: in the corpus's kept
    (read-only) fits for a whole-pool sample, so a kept fit gathers no
    training block, and in this call's own store otherwise. The alignment
    whitens each view by the factorization MDS computed instead of an SVD.
    Every view is fitted, and its fit sets the shared dimension, but only
    the views some combination or averaged view reads are projected out of
    sample and into the shared space. Returns the accuracies by combination
    and, for each view whose effective MDS dimension falls below
    ``shared_dim``, its ``(tag, effective dimension)``."""
    config = prepared.config
    labels = prepared.labels_clf
    shortfalls = []
    # No two tasks of a run share a key: one holds each sample at each dimension.
    fits = prepared.fits if sample.size == prepared.rel_idx.size else {}
    read = {tag for combo in config.combinations for tag in _parse_combination(combo)}
    read.update(*config.averaged_views.values())

    train_fit = {}
    clf_emb = {}
    for view in config.views:
        key = (prepared.fit_keys[view.tag], mds_dim)
        if key not in fits:
            fits[key] = _fit_view(prepared, view, sample, mds_dim)
        model, factor = fits[key]
        if model.effective_dim < config.shared_dim:
            shortfalls.append((view.tag, model.effective_dim))
        train_fit[view.tag] = model
        if view.tag not in read:
            continue
        oos = _block(prepared.full[view.tag], prepared.clf_idx, sample)
        if factor is not None:
            oos = _scaled(oos, factor)
        clf_emb[view.tag] = mds_out_of_sample(model, oos)
    d_shared = min(config.shared_dim, *(model.effective_dim for model in train_fit.values()))

    def aligned(maps, k, tag):
        """The classifier objects of view ``tag``, the fit's view k, in the
        shared space."""
        return LabeledEmbedding(project(maps, k, clf_emb[tag]), labels, tag)

    if config.method == "gcca":
        tags = [v.tag for v in config.views]
        maps = gcca_fit([train_fit[tag] for tag in tags], d_shared, ridge=config.ridge)
        shared = {tag: aligned(maps, k, tag) for k, tag in enumerate(tags) if tag in read}
        for avg_tag, (a, b) in config.averaged_views.items():
            shared[avg_tag] = average_views(shared[a], shared[b], view_tag=avg_tag)
    accuracies = {}
    for combo in config.combinations:
        train_tag, test_tag = _parse_combination(combo)
        if config.method == "gcca":
            train_view, test_view = shared[train_tag], shared[test_tag]
        else:
            maps = cca_fit(
                train_fit[test_tag], train_fit[train_tag], d_shared, ridge=config.ridge
            )
            test_view, train_view = aligned(maps, 0, test_tag), aligned(maps, 1, train_tag)
        accuracies[combo] = loo_cross_view_accuracy(train_view, test_view, config.kappa)
    return accuracies, shortfalls


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity
        return os.cpu_count() or 1


def _run_tasks(prepared, tasks):
    """``_run_single`` on each ``(sample, mds_dim)`` task, results in task
    order.

    A task that raises leaves its exception as its result. The calling
    thread takes the task with the largest n' first and ``cores - 1``
    helper threads take the smallest, so that two large working sets are
    seldom held at once. With more than one task, every task runs with one
    BLAS thread, whatever the core count, since BLAS rounds differently on
    more threads; the caller's count comes back afterwards. Without
    OpenBLAS's setter, or with one task, the caller runs every task alone
    at BLAS's own thread count. Once a task raises, no task after it in
    task order starts, as a serial run would not reach them; every task
    before it still runs, so the first exception in task order is the one
    a serial run raises.
    """
    results = [None] * len(tasks)
    queue = deque(sorted(range(len(tasks)), key=lambda i: tasks[i][0].size))
    first_failure = len(tasks)
    lock = threading.Lock()

    def work(take):
        nonlocal first_failure
        while True:
            try:
                i = take()
            except IndexError:
                return
            if i > first_failure:
                continue
            try:
                results[i] = _run_single(prepared, *tasks[i])
            except Exception as exc:  # re-raised by the caller, in task order
                results[i] = exc
                with lock:
                    first_failure = min(first_failure, i)

    set_threads = _blas_threads_setter() if len(tasks) > 1 else None
    if set_threads is None:
        work(queue.pop)
        return results

    def helper():
        set_threads(1)
        work(queue.popleft)

    previous = set_threads(1)
    helpers = []
    try:
        for _ in range(min(_usable_cores(), len(tasks)) - 1):
            thread = threading.Thread(target=helper, name="manifold-match replicate")
            thread.start()
            helpers.append(thread)
        work(queue.pop)
    finally:
        queue.clear()
        for thread in helpers:
            thread.join()
        set_threads(previous)
    return results


# ---------------------------------------------------------------------------
# Aggregation and reporting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellStats:
    """Replicate accuracies for one (combination, fraction) cell."""

    accuracies: tuple[float, ...]
    mean: float
    std_error: float
    item_std_error: float


@dataclass
class AccuracyReport:
    method: str
    feature: str
    fractions: tuple[float, ...]
    combinations: tuple[str, ...]
    cells: dict[tuple[str, float], CellStats]  # (combination, fraction) -> stats
    warnings: list[str]
    m_classifier: int
    seed: int
    bootstrap_samples: int
    replicates: int


# The report settings meta.json records, each with the conversion
# reconstruct_report applies when it reads them back: the config's own for
# the settings a config holds, and the schedule's rule for ``fractions``.
_META = {
    **{name: _FIELDS[name] for name in ("method", "feature", "combinations", "seed",
                                        "bootstrap_samples", "replicates")},
    "fractions": lambda items: _fractions(_tuple(lambda f: float(_number(f)))(items)),
    "m_classifier": _at_least(1),
}


def _bootstrap_stats(accuracies, m_classifier, rng, n_boot):
    acc = np.asarray(accuracies, dtype=float)
    if np.all(acc == acc[0]):
        se = 0.0  # agreement means exactly zero, not accumulated rounding
    else:
        picks = rng.integers(0, acc.size, size=(n_boot, acc.size))
        se = float(acc[picks].mean(axis=1).std())
    # Test-item resampling: how much the cell mean would move if the m
    # classifier objects were redrawn; nonzero even when sampling variance
    # vanishes at S = 100%.
    draws = rng.binomial(m_classifier, min(max(acc.mean(), 0.0), 1.0), size=n_boot)
    item_se = float((draws / m_classifier).std())
    return se, item_se


def _aggregate(accuracies, warnings, **meta) -> AccuracyReport:
    """The report of ``accuracies``, which maps each (combination, fraction)
    cell to its accuracies in replicate order; ``meta`` holds the fields of
    ``_META``."""
    cells = {}
    keys = [(combo, fraction) for fraction in meta["fractions"] for combo in meta["combinations"]]
    for cell_index, key in enumerate(keys):
        acc = [float(a) for a in accuracies[key]]
        rng = np.random.default_rng(
            np.random.SeedSequence(meta["seed"], spawn_key=(1000003, cell_index))
        )
        se, item_se = _bootstrap_stats(acc, meta["m_classifier"], rng, meta["bootstrap_samples"])
        cells[key] = CellStats(tuple(acc), float(np.mean(acc)), se, item_se)
    return AccuracyReport(cells=cells, warnings=list(warnings), **meta)


def run_experiment(config, corpus=None, on_row=None) -> AccuracyReport:
    """Run the full schedule x replicates grid and aggregate.

    ``on_row`` (optional) is called once per schedule row, in row order,
    with ``(row, row_records)``; records are
    ``(method, combination, feature, fraction, replicate, accuracy)`` tuples.
    Deterministic in (config, corpus): replicate seeds derive from
    ``config.seed`` and the (row, replicate) position only.

    Each distinct result is computed once. A task is a drawn sample at one
    MDS dimension, and a replicate whose sample and dimension match an
    earlier replicate's, in its own row or another, replays that task's
    accuracies and shortfalls (at S = 100 % every replicate draws the whole
    pool, so one task serves all of them at each dimension). It still gets
    its own records and warning lines, which name its own row's S. The
    distinct tasks run on every usable core (see ``_run_tasks``) and are
    merged back in (row, replicate) order, so the report, the records and
    the first error raised do not depend on the core count. The geodesic
    and cosine views built from ``corpus`` are kept on that corpus object,
    keyed by domain (and ``cap``/``max_hops`` for geodesics), so a later
    call on the same object does not rebuild them. So are the MDS fits of
    the whole relation pool, one per view and dimension, each with its
    view's prescale factor, so a later call on the same pool (a CCA run
    after a GCCA run, say) neither fits nor gathers the training blocks of
    its S = 100 % rows; it still projects, aligns and scores them.
    """
    prepared = _prepare(config, corpus)
    tasks = []  # distinct (sample, mds_dim) pairs in order of first use
    seen = {}  # (drawn sample's bytes, mds_dim) -> task index
    draws = []  # per row, each replicate's task index
    for row_index, row in enumerate(prepared.schedule):
        draws.append([])
        for rep in range(config.replicates):
            sample = draw_training_sample(
                replicate_seed_for(config.seed, row_index, rep),
                prepared.rel_idx,
                row.n_prime,
            )
            key = (sample.tobytes(), row.mds_dim)
            if key not in seen:
                seen[key] = len(tasks)
                tasks.append((sample, row.mds_dim))
            draws[-1].append(seen[key])
    results = _run_tasks(prepared, tasks)

    accuracies = {}  # (combination, fraction) -> accuracies in replicate order
    warnings = []
    for row, row_draws in zip(prepared.schedule, draws):
        row_records = []
        for rep, task in enumerate(row_draws):
            if isinstance(results[task], Exception):
                raise results[task]
            scores, shortfalls = results[task]
            for tag, dim in shortfalls:
                warnings.append(
                    f"replicate {rep}: S={row.fraction:g}: view {tag} effective MDS "
                    f"dimension {dim} is below shared_dim {config.shared_dim}"
                )
            for combo in config.combinations:
                accuracies.setdefault((combo, row.fraction), []).append(scores[combo])
                row_records.append(
                    (config.method, combo, config.feature, row.fraction, rep, scores[combo])
                )
        if on_row is not None:
            on_row(row, row_records)
    return _aggregate(
        accuracies,
        warnings,
        method=config.method,
        feature=config.feature,
        fractions=tuple(float(row.fraction) for row in prepared.schedule),
        combinations=config.combinations,
        m_classifier=int(prepared.clf_idx.size),
        seed=config.seed,
        bootstrap_samples=config.bootstrap_samples,
        replicates=config.replicates,
    )


def _fmt(x) -> str:
    return repr(float(x))


def emit_curves(report, out_dir):
    """Write curves CSV, summary table, replicate log, warnings, and meta.

    Numeric fields use shortest round-trip formatting, so re-aggregating the
    replicate log reproduces the curves file byte for byte.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    curves = ["fraction,combination,mean_accuracy,std_error,item_std_error"]
    log = ["method\tcombination\tfeature\tfraction\treplicate\taccuracy"]
    for fraction in report.fractions:
        for combo in report.combinations:
            stats = report.cells[(combo, fraction)]
            curves.append(
                f"{_fmt(fraction)},{combo},{_fmt(stats.mean)},"
                f"{_fmt(stats.std_error)},{_fmt(stats.item_std_error)}"
            )
            log += (
                f"{report.method}\t{combo}\t{report.feature}\t{_fmt(fraction)}\t{rep}\t{_fmt(acc)}"
                for rep, acc in enumerate(stats.accuracies)
            )
    write_lines(out / f"curves_{report.method}_{report.feature}.csv", curves)

    heads = ",".join(f"S={fraction * 100:g}%" for fraction in report.fractions)
    table = [f"method,combination,feature,{heads}"]
    for combo in report.combinations:
        row = (report.cells[(combo, fraction)] for fraction in report.fractions)
        values = ",".join(f"{stats.mean:.4f}±{stats.std_error:.4f}" for stats in row)
        table.append(f"{report.method},{combo},{report.feature},{values}")
    write_lines(out / "table.csv", table)

    write_lines(out / "replicates.log", log)
    write_lines(out / "warnings.log", report.warnings)
    write_json({name: getattr(report, name) for name in _META}, out / "meta.json")


def reconstruct_report(out_dir) -> AccuracyReport:
    """Rebuild a report from meta.json plus replicates.log (for audits).

    Each cell's accuracies are taken in replicate-index order, so the log's
    line order does not matter. A meta.json field that is missing or not of
    its exact type, or breaks the rule a config keeps for it (``method``,
    ``feature``, ``combinations``, ``seed``, ``bootstrap_samples``,
    ``replicates``), a schedule's rule (``fractions``) or ``m_classifier``'s
    of at least 1, is a ``FormatError`` naming the file and the field, and a
    malformed log line one naming ``replicates.log:line``. So is a log whose cells do not each hold
    replicates 0..R-1 once, with R the ``replicates`` of meta.json, a log
    record outside meta.json's cells, and a log that is not UTF-8.
    """
    out = Path(out_dir)
    meta_path, log_path = out / "meta.json", out / "replicates.log"
    meta = read_fields(meta_path, _META)
    replicates = meta["replicates"]
    accuracies = {
        (combo, fraction): [None] * replicates
        for fraction in meta["fractions"]
        for combo in meta["combinations"]
    }
    lines = read_lines(log_path)
    if not next(lines, "").startswith("method\t"):
        raise FormatError(f"{log_path}:1: unexpected header")
    for lineno, line in enumerate(lines, start=2):
        if not line:
            continue
        try:
            _, combo, _, fraction, rep, acc = line.split("\t")
            fraction, rep, acc = float(fraction), int(rep), float(acc)
        except ValueError as exc:
            raise FormatError(f"{log_path}:{lineno}: {exc}") from None
        cell = accuracies.get((combo, fraction))
        if cell is None:
            raise FormatError(
                f"{log_path}:{lineno}: record for {combo!r} at S={fraction:g} is not "
                f"a cell of {meta_path}"
            )
        if not 0 <= rep < replicates or cell[rep] is not None:
            raise FormatError(
                f"{log_path}:{lineno}: replicate {rep} of {combo!r} at S={fraction:g} "
                f"repeats or lies outside 0..{replicates - 1} ({meta_path})"
            )
        cell[rep] = acc
    for (combo, fraction), cell in accuracies.items():
        missing = [rep for rep, acc in enumerate(cell) if acc is None]
        if missing:
            raise FormatError(
                f"{log_path}: {combo!r} at S={fraction:g} lacks replicates {missing[:10]} "
                f"of the 0..{replicates - 1} that {meta_path} says"
            )
    warnings_path = out / "warnings.log"
    warnings = []
    if warnings_path.is_file():
        warnings = [line for line in read_lines(warnings_path) if line.strip()]
    return _aggregate(accuracies, warnings, **meta)
