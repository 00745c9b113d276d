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

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .align import cca_fit, gcca_fit, project
from .classify import LabeledEmbedding, average_views, loo_cross_view_accuracy
from .corpus import ClassSplitSpec, load_corpus
from .dissimilarity import cosine_dissimilarity, graph_geodesic
from .errors import ConfigError, ValidationError
from .formats import write_json
from .mds import mds_fit, mds_out_of_sample

__all__ = [
    "CANONICAL_SCHEDULE",
    "ScheduleRow",
    "DimensionSchedule",
    "ViewSpec",
    "ExperimentConfig",
    "CellStats",
    "AccuracyReport",
    "draw_training_sample",
    "replicate_seed_for",
    "run_replicate",
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
    """One efficiency setting: sample size, its fraction of n, MDS dimension."""

    n_prime: int
    fraction: float
    mds_dim: int


@dataclass(frozen=True)
class DimensionSchedule:
    rows: tuple[ScheduleRow, ...]

    def __post_init__(self):
        rows = tuple(self.rows)
        if not rows:
            raise ValidationError("schedule has no rows")
        last = 0.0
        for row in rows:
            if not 0.0 < row.fraction <= 1.0:
                raise ValidationError(f"fraction {row.fraction} outside (0, 1]")
            if row.fraction <= last:
                raise ValidationError("fractions must be strictly increasing")
            last = row.fraction
            if not 1 <= row.mds_dim < row.n_prime:
                raise ValidationError(
                    f"schedule row S={row.fraction:g} needs 1 <= mds_dim < n'={row.n_prime}, "
                    f"got mds_dim={row.mds_dim}"
                )
        object.__setattr__(self, "rows", rows)

    @staticmethod
    def default_for(n_relation) -> "DimensionSchedule":
        """The canonical ladder with fractions kept and dimensions clamped."""
        rows = []
        for fraction, dim in CANONICAL_SCHEDULE:
            n_prime = int(fraction * n_relation + 0.5)
            if n_prime < 2:
                continue
            rows.append(ScheduleRow(n_prime, fraction, min(dim, n_prime - 1)))
        if not rows:
            raise ValidationError(
                f"relation-learning pool of {n_relation} objects is too small "
                "for the default schedule"
            )
        return DimensionSchedule(tuple(rows))


def mds_dim_for(row, regularized) -> int:
    """Scheduled MDS dimension, halved (floor, at least 1) when regularized."""
    return max(1, row.mds_dim // 2) if regularized else row.mds_dim


@dataclass(frozen=True)
class ViewSpec:
    """A named (domain, dissimilarity-kind) pair, e.g. GE = graph/english."""

    tag: str
    domain: str
    kind: str


def _parse_combination(text):
    parts = text.split("->")
    if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
        raise ConfigError(f"combination {text!r} must look like 'TRAIN->TEST'")
    return parts[0].strip(), parts[1].strip()


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
    prescale_reference: str | None = None
    bootstrap_samples: int = 1000

    def __post_init__(self):
        object.__setattr__(self, "views", tuple(self.views))
        object.__setattr__(self, "combinations", tuple(self.combinations))
        object.__setattr__(
            self, "averaged_views",
            {str(k): (str(a), str(b)) for k, (a, b) in dict(self.averaged_views).items()},
        )
        if self.method not in ("cca", "gcca"):
            raise ConfigError(f"method must be 'cca' or 'gcca', got {self.method!r}")
        if not self.views:
            raise ConfigError("no views configured")
        tags = [v.tag for v in self.views]
        if len(set(tags)) != len(tags):
            raise ConfigError(f"duplicate view tags in {tags}")
        base = set(tags)
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
        if not self.combinations:
            raise ConfigError("no train->test combinations configured")
        train_ok = base | set(self.averaged_views)
        for combo in self.combinations:
            train, test = _parse_combination(combo)
            if train not in train_ok:
                raise ConfigError(f"combination {combo!r}: unknown training view {train!r}")
            if test not in base:
                raise ConfigError(f"combination {combo!r}: unknown testing view {test!r}")
        if not set(self.relation_classes).isdisjoint(self.classifier_classes):
            raise ConfigError("relation and classifier classes overlap")
        if not self.relation_classes or not self.classifier_classes:
            raise ConfigError("both class lists must be non-empty")
        if self.shared_dim < 1:
            raise ConfigError(f"shared_dim must be positive, got {self.shared_dim}")
        if self.kappa < 1:
            raise ConfigError(f"kappa must be positive, got {self.kappa}")
        if self.replicates < 1:
            raise ConfigError(f"replicates must be positive, got {self.replicates}")
        if self.bootstrap_samples < 1:
            raise ConfigError("bootstrap_samples must be positive")
        if self.ridge is not None and not (np.isfinite(self.ridge) and self.ridge >= 0):
            raise ConfigError(f"ridge must be finite and nonnegative, got {self.ridge}")
        if self.prescale_reference is not None and self.prescale_reference not in base:
            raise ConfigError(
                f"prescale_reference {self.prescale_reference!r} is not a configured view"
            )

    def resolved_schedule(self, n_relation) -> DimensionSchedule:
        """Bind fractions to the corpus: n' = round(S * n)."""
        if self.schedule is None:
            return DimensionSchedule.default_for(n_relation)
        rows = []
        for fraction, dim in self.schedule:
            n_prime = int(fraction * n_relation + 0.5)
            if dim >= n_prime:
                raise ConfigError(
                    f"schedule row S={fraction:g}: mds_dim={dim} >= n'={n_prime} "
                    "is unsatisfiable"
                )
            rows.append(ScheduleRow(n_prime, fraction, dim))
        return DimensionSchedule(tuple(rows))

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from None
        return ExperimentConfig.from_dict(raw, source=str(path))

    @staticmethod
    def from_dict(raw, source="config") -> "ExperimentConfig":
        known = {
            "corpus", "relation_classes", "classifier_classes", "views",
            "combinations", "averaged_views", "method", "regularized",
            "shared_dim", "kappa", "replicates", "seed", "schedule",
            "feature", "ridge", "cap", "max_hops", "prescale_reference",
            "bootstrap_samples",
        }
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"{source}: unknown fields {sorted(unknown)}")
        try:
            views = tuple(
                ViewSpec(str(v["tag"]), str(v["domain"]), str(v["kind"]))
                for v in raw["views"]
            )
            combinations = tuple(str(c) for c in raw["combinations"])
            relation = tuple(int(c) for c in raw["relation_classes"])
            classifier = tuple(int(c) for c in raw["classifier_classes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{source}: missing or malformed field: {exc}") from None
        averaged = {
            str(tag): (str(pair[0]), str(pair[1]))
            for tag, pair in (raw.get("averaged_views") or {}).items()
        }
        schedule = raw.get("schedule")
        if schedule is not None:
            try:
                schedule = tuple(
                    (float(r["fraction"]), int(r["mds_dim"])) for r in schedule
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"{source}: malformed schedule row: {exc}") from None
        ridge = raw.get("ridge")
        return ExperimentConfig(
            views=views,
            combinations=combinations,
            relation_classes=relation,
            classifier_classes=classifier,
            corpus_path=raw.get("corpus"),
            averaged_views=averaged,
            method=str(raw.get("method", "gcca")),
            regularized=bool(raw.get("regularized", False)),
            shared_dim=int(raw.get("shared_dim", 15)),
            kappa=int(raw.get("kappa", 5)),
            replicates=int(raw.get("replicates", 200)),
            seed=int(raw.get("seed", 0)),
            schedule=schedule,
            feature=str(raw.get("feature", "default")),
            ridge=None if ridge is None else float(ridge),
            cap=int(raw.get("cap", 6)),
            max_hops=int(raw.get("max_hops", 4)),
            prescale_reference=raw.get("prescale_reference"),
            bootstrap_samples=int(raw.get("bootstrap_samples", 1000)),
        )


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass
class _PreparedRun:
    config: ExperimentConfig
    schedule: DimensionSchedule
    views: tuple[ViewSpec, ...]
    full: dict[str, np.ndarray]
    rel_idx: np.ndarray
    clf_idx: np.ndarray
    labels_clf: np.ndarray
    ref_tag: str | None


def _build_full_matrix(corpus, view, config):
    domain = corpus.domain(view.domain)
    if view.kind in domain.dissimilarities:
        return domain.dissimilarities[view.kind].values
    if view.kind == "graph":
        if domain.edges is None:
            raise ConfigError(
                f"view {view.tag!r}: domain {view.domain!r} has no edges or "
                "precomputed graph dissimilarity"
            )
        dm = graph_geodesic(
            domain.edges,
            corpus.n_total,
            cap=config.cap,
            max_hops=config.max_hops,
            domain_name=view.domain,
        )
        return dm.values
    if view.kind == "text":
        if domain.features is None:
            raise ConfigError(
                f"view {view.tag!r}: domain {view.domain!r} has no features or "
                "precomputed text dissimilarity"
            )
        return cosine_dissimilarity(domain.features, domain_name=view.domain).values
    raise ConfigError(f"view {view.tag!r}: unknown dissimilarity kind {view.kind!r}")


def _prepare(config, corpus) -> _PreparedRun:
    if corpus is None:
        if config.corpus_path is None:
            raise ConfigError("config has no corpus path and no corpus was supplied")
        corpus = load_corpus(config.corpus_path)
    # Reuse the split validation; roles in the corpus are superseded here.
    ClassSplitSpec(frozenset(config.relation_classes), frozenset(config.classifier_classes))
    present = set(int(v) for v in np.unique(corpus.labels))
    missing = sorted(
        (set(config.relation_classes) | set(config.classifier_classes)) - present
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

    schedule = config.resolved_schedule(int(rel_idx.size))
    for row in schedule.rows:
        available = mds_dim_for(row, config.regularized)
        if config.shared_dim > available:
            raise ConfigError(
                f"schedule row S={row.fraction:g}: shared_dim={config.shared_dim} exceeds "
                f"the {'regularized ' if config.regularized else ''}MDS dimension {available}"
            )

    full = {v.tag: _build_full_matrix(corpus, v, config) for v in config.views}

    ref_tag = config.prescale_reference
    if ref_tag is None:
        for v in config.views:
            if v.kind == "graph":
                ref_tag = v.tag
                break

    return _PreparedRun(
        config=config,
        schedule=schedule,
        views=config.views,
        full=full,
        rel_idx=rel_idx,
        clf_idx=clf_idx,
        labels_clf=corpus.labels[clf_idx],
        ref_tag=ref_tag,
    )


def replicate_seed_for(seed, row_index, replicate_index) -> int:
    """Stable per-replicate seed derived from the experiment seed."""
    ss = np.random.SeedSequence(seed, spawn_key=(row_index, replicate_index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def draw_training_sample(replicate_seed, relation_indices, n_prime) -> np.ndarray:
    """Sample n' distinct relation-learning indices, sorted for stable slicing."""
    rng = np.random.default_rng(replicate_seed)
    return np.sort(rng.choice(relation_indices, size=n_prime, replace=False))


def _run_single(prepared, row, replicate_seed):
    config = prepared.config
    sample = draw_training_sample(replicate_seed, prepared.rel_idx, row.n_prime)
    d_mds = mds_dim_for(row, config.regularized)
    warnings = []

    ref_train = None
    if prepared.ref_tag is not None:
        ref_train = prepared.full[prepared.ref_tag][np.ix_(sample, sample)]

    train_emb = {}
    clf_emb = {}
    min_effective = None
    for view in prepared.views:
        matrix = prepared.full[view.tag]
        train = matrix[np.ix_(sample, sample)]
        oos = matrix[np.ix_(prepared.clf_idx, sample)]
        if (
            view.kind == "text"
            and prepared.ref_tag is not None
            and view.tag != prepared.ref_tag
        ):
            # Frobenius prescale onto the reference view's training block;
            # the classifier rows share the training block's factor.
            t_norm = np.linalg.norm(train)
            if t_norm == 0.0:
                raise ValidationError("cannot prescale a matrix with zero Frobenius norm")
            factor = float(np.linalg.norm(ref_train) / t_norm)
            train = train * factor
            oos = oos * factor
        model = mds_fit(train, d_mds)
        if min_effective is None or model.effective_dim < min_effective:
            min_effective = model.effective_dim
        if model.effective_dim < config.shared_dim:
            warnings.append(
                f"S={row.fraction:g}: view {view.tag} effective MDS dimension "
                f"{model.effective_dim} is below shared_dim {config.shared_dim}"
            )
        train_emb[view.tag] = model.embedding
        clf_emb[view.tag] = mds_out_of_sample(model, oos)

    d_shared = min(config.shared_dim, min_effective)
    labels = prepared.labels_clf

    embeddings = {}
    if config.method == "gcca":
        maps = gcca_fit(
            [train_emb[v.tag] for v in prepared.views], d_shared, ridge=config.ridge
        )
        for k, v in enumerate(prepared.views):
            embeddings[v.tag] = LabeledEmbedding(
                project(maps, k, clf_emb[v.tag]), labels, v.tag
            )
        for avg_tag, (a, b) in config.averaged_views.items():
            embeddings[avg_tag] = average_views(
                embeddings[a], embeddings[b], view_tag=avg_tag
            )
        accuracies = {}
        for combo in config.combinations:
            train_tag, test_tag = _parse_combination(combo)
            accuracies[combo] = loo_cross_view_accuracy(
                embeddings[train_tag], embeddings[test_tag], config.kappa
            )
    else:
        accuracies = {}
        for combo in config.combinations:
            train_tag, test_tag = _parse_combination(combo)
            maps = cca_fit(
                train_emb[test_tag], train_emb[train_tag], d_shared, ridge=config.ridge
            )
            test_view = LabeledEmbedding(
                project(maps, 0, clf_emb[test_tag]), labels, test_tag
            )
            train_view = LabeledEmbedding(
                project(maps, 1, clf_emb[train_tag]), labels, train_tag
            )
            accuracies[combo] = loo_cross_view_accuracy(
                train_view, test_view, config.kappa
            )
    return accuracies, warnings


def run_replicate(config, row, replicate_seed, corpus=None):
    """One Monte Carlo replicate at one schedule row.

    Returns a dict mapping each configured combination to its accuracy.
    Deterministic in (config, row, replicate_seed).
    """
    prepared = _prepare(config, corpus)
    accuracies, _ = _run_single(prepared, row, replicate_seed)
    return accuracies


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

    @property
    def n_replicates(self) -> int:
        return len(self.accuracies)


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


def _aggregate(records, fractions, combinations, method, feature,
               m_classifier, seed, bootstrap_samples, replicates, warnings):
    cells = {}
    cell_index = 0
    for fraction in fractions:
        for combo in combinations:
            acc = [r[5] for r in records if r[1] == combo and r[3] == fraction]
            acc_arr = np.asarray(acc, dtype=float)
            if acc_arr.size == 0:
                raise ValidationError(
                    f"no replicate records for combination {combo!r} at S={fraction:g}"
                )
            rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(1000003, cell_index))
            )
            se, item_se = _bootstrap_stats(acc_arr, m_classifier, rng, bootstrap_samples)
            cells[(combo, fraction)] = CellStats(
                tuple(float(a) for a in acc), float(acc_arr.mean()), se, item_se
            )
            cell_index += 1
    return AccuracyReport(
        method=method,
        feature=feature,
        fractions=tuple(fractions),
        combinations=tuple(combinations),
        cells=cells,
        warnings=list(warnings),
        m_classifier=m_classifier,
        seed=seed,
        bootstrap_samples=bootstrap_samples,
        replicates=replicates,
    )


def run_experiment(config, corpus=None, on_row=None) -> AccuracyReport:
    """Run the full schedule x replicates grid and aggregate.

    ``on_row`` (optional) is called after each schedule row completes with
    ``(row, row_records)`` so callers can flush partial results; records are
    ``(method, combination, feature, fraction, replicate, accuracy)`` tuples.
    Deterministic in (config, corpus): replicate seeds derive from
    ``config.seed`` and the (row, replicate) position only.
    """
    prepared = _prepare(config, corpus)
    records = []
    warnings = []
    for row_index, row in enumerate(prepared.schedule.rows):
        row_records = []
        for rep in range(config.replicates):
            seed_r = replicate_seed_for(config.seed, row_index, rep)
            accuracies, warns = _run_single(prepared, row, seed_r)
            for w in warns:
                warnings.append(f"replicate {rep}: {w}")
            for combo in config.combinations:
                row_records.append(
                    (
                        config.method,
                        combo,
                        config.feature,
                        row.fraction,
                        rep,
                        accuracies[combo],
                    )
                )
        records.extend(row_records)
        if on_row is not None:
            on_row(row, row_records)
    fractions = [row.fraction for row in prepared.schedule.rows]
    return _aggregate(
        records,
        fractions,
        config.combinations,
        config.method,
        config.feature,
        int(prepared.clf_idx.size),
        config.seed,
        config.bootstrap_samples,
        config.replicates,
        warnings,
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

    curves_path = out / f"curves_{report.method}_{report.feature}.csv"
    with open(curves_path, "w", encoding="utf-8") as fh:
        fh.write("fraction,combination,mean_accuracy,std_error,item_std_error\n")
        for fraction in report.fractions:
            for combo in report.combinations:
                stats = report.cells[(combo, fraction)]
                fh.write(
                    f"{_fmt(fraction)},{combo},{_fmt(stats.mean)},"
                    f"{_fmt(stats.std_error)},{_fmt(stats.item_std_error)}\n"
                )

    with open(out / "table.csv", "w", encoding="utf-8") as fh:
        heads = ",".join(f"S={fraction * 100:g}%" for fraction in report.fractions)
        fh.write(f"method,combination,feature,{heads}\n")
        for combo in report.combinations:
            values = ",".join(
                f"{report.cells[(combo, fraction)].mean:.4f}"
                f"±{report.cells[(combo, fraction)].std_error:.4f}"
                for fraction in report.fractions
            )
            fh.write(f"{report.method},{combo},{report.feature},{values}\n")

    with open(out / "replicates.log", "w", encoding="utf-8") as fh:
        fh.write("method\tcombination\tfeature\tfraction\treplicate\taccuracy\n")
        for fraction in report.fractions:
            for combo in report.combinations:
                stats = report.cells[(combo, fraction)]
                for rep, acc in enumerate(stats.accuracies):
                    fh.write(
                        f"{report.method}\t{combo}\t{report.feature}\t"
                        f"{_fmt(fraction)}\t{rep}\t{_fmt(acc)}\n"
                    )

    with open(out / "warnings.log", "w", encoding="utf-8") as fh:
        for line in report.warnings:
            fh.write(line)
            fh.write("\n")

    meta = {
        "method": report.method,
        "feature": report.feature,
        "fractions": [float(f) for f in report.fractions],
        "combinations": list(report.combinations),
        "m_classifier": report.m_classifier,
        "seed": report.seed,
        "bootstrap_samples": report.bootstrap_samples,
        "replicates": report.replicates,
    }
    write_json(meta, out / "meta.json")


def reconstruct_report(out_dir) -> AccuracyReport:
    """Rebuild a report from meta.json plus replicates.log (for audits)."""
    out = Path(out_dir)
    with open(out / "meta.json", "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    records = []
    with open(out / "replicates.log", "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("method\t"):
            raise ValidationError(f"{out / 'replicates.log'}: unexpected header")
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            method, combo, feature, fraction, rep, acc = line.split("\t")
            records.append(
                (method, combo, feature, float(fraction), int(rep), float(acc))
            )
    warnings_path = out / "warnings.log"
    warnings = []
    if warnings_path.is_file():
        with open(warnings_path, "r", encoding="utf-8") as fh:
            warnings = [line.rstrip("\n") for line in fh if line.strip()]
    return _aggregate(
        records,
        [float(f) for f in meta["fractions"]],
        tuple(meta["combinations"]),
        str(meta["method"]),
        str(meta["feature"]),
        int(meta["m_classifier"]),
        int(meta["seed"]),
        int(meta["bootstrap_samples"]),
        int(meta["replicates"]),
        warnings,
    )
