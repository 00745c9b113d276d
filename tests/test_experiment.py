import numpy as np
import pytest

from manifold_match.corpus import (
    ROLE_RELATION,
    DomainData,
    LabeledCorpus,
    synthesize_corpus,
)
from manifold_match.errors import ConfigError, ValidationError
from manifold_match.experiment import (
    CANONICAL_SCHEDULE,
    DimensionSchedule,
    ExperimentConfig,
    ScheduleRow,
    ViewSpec,
    draw_training_sample,
    emit_curves,
    mds_dim_for,
    reconstruct_report,
    replicate_seed_for,
    run_experiment,
    run_replicate,
)

THREE_VIEWS = (
    ViewSpec("GE", "domain0", "graph"),
    ViewSpec("GF", "domain1", "graph"),
    ViewSpec("TF", "domain1", "text"),
)


def make_config(**overrides):
    base = dict(
        views=THREE_VIEWS,
        combinations=("GF->GE", "TF->GE", "GTF->GE"),
        relation_classes=(0, 2, 4),
        classifier_classes=(1, 3),
        averaged_views={"GTF": ("GF", "TF")},
        method="gcca",
        shared_dim=2,
        kappa=5,
        replicates=2,
        seed=17,
        schedule=((0.5, 8), (1.0, 8)),
        cap=32,
        max_hops=30,
        feature="synthetic",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSchedule:
    def test_default_for_reference_n(self):
        schedule = DimensionSchedule.default_for(819)
        n_primes = [row.n_prime for row in schedule.rows]
        assert n_primes == [82, 164, 246, 328, 410, 491, 573, 655, 737, 819]
        assert [row.mds_dim for row in schedule.rows] == [
            dim for _, dim in CANONICAL_SCHEDULE
        ]

    def test_default_clamps_dims_for_small_n(self):
        schedule = DimensionSchedule.default_for(50)
        for row in schedule.rows:
            assert row.mds_dim < row.n_prime

    def test_fractions_must_increase(self):
        with pytest.raises(ValidationError, match="increasing"):
            DimensionSchedule(
                (ScheduleRow(10, 0.5, 4), ScheduleRow(12, 0.5, 4))
            )

    def test_dim_must_be_below_n_prime(self):
        with pytest.raises(ValidationError, match="mds_dim"):
            DimensionSchedule((ScheduleRow(5, 0.5, 5),))

    def test_regularized_dim_is_floor_half(self):
        row = ScheduleRow(100, 1.0, 41)
        assert mds_dim_for(row, regularized=False) == 41
        assert mds_dim_for(row, regularized=True) == 20
        assert mds_dim_for(ScheduleRow(10, 1.0, 1), regularized=True) == 1

    def test_resolved_schedule_rounds_n_prime(self):
        config = make_config(schedule=((0.1, 4), (0.5, 8), (1.0, 8)))
        schedule = config.resolved_schedule(819)
        assert [row.n_prime for row in schedule.rows] == [82, 410, 819]

    def test_unsatisfiable_row_rejected(self):
        config = make_config(schedule=((0.1, 50),))
        with pytest.raises(ConfigError, match="S=0.1"):
            config.resolved_schedule(100)


class TestConfigValidation:
    def test_averaged_view_requires_gcca(self):
        with pytest.raises(ConfigError, match="gcca"):
            make_config(method="cca")

    def test_unknown_training_view(self):
        with pytest.raises(ConfigError, match="XX"):
            make_config(combinations=("XX->GE",), averaged_views={})

    def test_unknown_testing_view(self):
        with pytest.raises(ConfigError, match="YY"):
            make_config(combinations=("GF->YY",), averaged_views={})

    def test_overlapping_classes(self):
        with pytest.raises(ConfigError, match="overlap"):
            make_config(relation_classes=(0, 1), classifier_classes=(1, 3))

    def test_duplicate_view_tags(self):
        views = (ViewSpec("GE", "domain0", "graph"), ViewSpec("GE", "domain1", "graph"))
        with pytest.raises(ConfigError, match="duplicate"):
            make_config(views=views, combinations=("GE->GE",), averaged_views={})

    def test_bad_combination_syntax(self):
        with pytest.raises(ConfigError, match="TRAIN->TEST"):
            make_config(combinations=("GFGE",), averaged_views={})

    def test_unknown_method(self):
        with pytest.raises(ConfigError, match="method"):
            make_config(method="pls")

    @pytest.mark.parametrize("ridge", [-1.0, float("nan"), float("inf")])
    def test_negative_or_non_finite_ridge(self, ridge):
        with pytest.raises(ConfigError, match="ridge"):
            make_config(ridge=ridge)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="bogus"):
            ExperimentConfig.from_dict({"bogus": 1}, source="inline")

    def test_from_dict_missing_fields(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"views": []}, source="inline")

    def test_shared_dim_above_schedule_dim_cites_row(self):
        corpus = synthesize_corpus(11, 120, 2, 5, 0.0)
        config = make_config(shared_dim=6, schedule=((0.5, 8), (1.0, 10)), regularized=True)
        # regularized dims are 4 and 5, both below shared_dim=6
        with pytest.raises(ConfigError, match="S=0.5"):
            run_experiment(config, corpus=corpus)

    def test_missing_class_in_corpus(self):
        corpus = synthesize_corpus(11, 60, 2, 3, 0.0)  # classes 0..2 only
        config = make_config()
        with pytest.raises(ConfigError, match="absent"):
            run_experiment(config, corpus=corpus)

    def test_view_kind_unavailable(self):
        corpus = synthesize_corpus(11, 60, 2, 5, 0.0)
        bad = LabeledCorpus(
            corpus.object_ids,
            corpus.labels,
            corpus.roles,
            (
                DomainData("domain0", features=None, edges=corpus.domains[0].edges),
                corpus.domains[1],
            ),
        )
        config = make_config(
            views=(ViewSpec("TE", "domain0", "text"), ViewSpec("TF", "domain1", "text")),
            combinations=("TF->TE",),
            averaged_views={},
        )
        with pytest.raises(ConfigError, match="domain0"):
            run_experiment(config, corpus=bad)


class TestSampling:
    def test_sample_is_sorted_distinct_subset(self):
        rel = np.arange(40, 100)
        sample = draw_training_sample(123, rel, 25)
        assert sample.size == 25
        assert np.unique(sample).size == 25
        assert np.all(np.isin(sample, rel))
        assert np.all(np.diff(sample) > 0)

    def test_seed_derivation_stable(self):
        assert replicate_seed_for(17, 0, 0) == replicate_seed_for(17, 0, 0)
        assert replicate_seed_for(17, 0, 0) != replicate_seed_for(17, 0, 1)
        assert replicate_seed_for(17, 1, 0) != replicate_seed_for(17, 0, 0)


class TestRunReplicate:
    def test_deterministic_in_replicate_seed(self):
        corpus = synthesize_corpus(11, 140, 2, 5, 0.6)
        config = make_config()
        row = config.resolved_schedule(84).rows[0]
        a = run_replicate(config, row, 5551, corpus=corpus)
        b = run_replicate(config, row, 5551, corpus=corpus)
        assert a == b

    def test_zero_noise_gcca_graph_transfer_is_perfect(self):
        corpus = synthesize_corpus(11, 200, 2, 5, 0.0)
        config = make_config(shared_dim=3, schedule=((1.0, 8),))
        row = config.resolved_schedule(120).rows[0]
        accs = run_replicate(config, row, replicate_seed_for(0, 0, 0), corpus=corpus)
        assert accs["GF->GE"] == 1.0

    def test_prescaling_neutralizes_text_scale(self):
        # two corpora identical except the text dissimilarity scale
        corpus = synthesize_corpus(13, 120, 2, 5, 0.4)
        from manifold_match.dissimilarity import DissimilarityMatrix, cosine_dissimilarity

        base_dm = cosine_dissimilarity(corpus.domains[1].features)
        scaled_dm = DissimilarityMatrix(base_dm.values * 50.0, "text")

        def with_text(dm):
            d1 = corpus.domains[1]
            return LabeledCorpus(
                corpus.object_ids,
                corpus.labels,
                corpus.roles,
                (
                    corpus.domains[0],
                    DomainData(d1.name, d1.features, d1.edges, {"text": dm}),
                ),
            )

        config = make_config(replicates=1)
        row = config.resolved_schedule(72).rows[0]
        acc_base = run_replicate(config, row, 999, corpus=with_text(base_dm))
        acc_scaled = run_replicate(config, row, 999, corpus=with_text(scaled_dm))
        assert acc_base == acc_scaled


class TestRunExperiment:
    def test_report_shapes_and_invariants(self):
        corpus = synthesize_corpus(11, 140, 2, 5, 0.8)
        config = make_config(replicates=3)
        report = run_experiment(config, corpus=corpus)
        assert report.fractions == (0.5, 1.0)
        assert report.combinations == ("GF->GE", "TF->GE", "GTF->GE")
        assert len(report.cells) == 6
        for stats in report.cells.values():
            assert stats.n_replicates == 3
            assert 0.0 <= stats.mean <= 1.0
            assert min(stats.accuracies) <= stats.mean <= max(stats.accuracies)
            assert stats.std_error >= 0.0
            assert stats.item_std_error >= 0.0
        # S=1.0 uses the full pool every replicate: no sampling variance
        for combo in report.combinations:
            full = report.cells[(combo, 1.0)]
            assert len(set(full.accuracies)) == 1
            assert full.std_error == 0.0
            assert full.item_std_error > 0.0

    def test_deterministic_end_to_end(self):
        corpus = synthesize_corpus(12, 120, 2, 5, 0.5)
        config = make_config(replicates=2)
        r1 = run_experiment(config, corpus=corpus)
        r2 = run_experiment(config, corpus=corpus)
        assert r1.cells.keys() == r2.cells.keys()
        for key in r1.cells:
            assert r1.cells[key].accuracies == r2.cells[key].accuracies
            assert r1.cells[key].std_error == r2.cells[key].std_error
            assert r1.cells[key].item_std_error == r2.cells[key].item_std_error

    def test_single_replicate_single_row(self):
        corpus = synthesize_corpus(13, 100, 2, 5, 0.3)
        config = make_config(replicates=1, schedule=((1.0, 8),))
        report = run_experiment(config, corpus=corpus)
        assert len(report.cells) == 3
        for stats in report.cells.values():
            assert stats.n_replicates == 1

    def test_degraded_dimension_warns_and_proceeds(self):
        # features constant per class: the text dissimilarity over the two
        # relation classes has one informative dimension, below shared_dim
        rng = np.random.default_rng(200)
        n, classes = 24, 4
        labels = np.arange(n) % classes
        prototypes = rng.normal(size=(classes, 5))
        features = prototypes[labels]
        domains = (
            DomainData("domain0", features=features),
            DomainData("domain1", features=features @ rng.normal(size=(5, 5))),
        )
        corpus = LabeledCorpus(
            tuple(f"o{i}" for i in range(n)),
            labels,
            np.full(n, ROLE_RELATION),
            domains,
        )
        config = make_config(
            views=(ViewSpec("TE", "domain0", "text"), ViewSpec("TF", "domain1", "text")),
            combinations=("TF->TE",),
            averaged_views={},
            relation_classes=(0, 2),
            classifier_classes=(1, 3),
            shared_dim=3,
            schedule=((1.0, 5),),
            replicates=1,
            kappa=3,
        )
        report = run_experiment(config, corpus=corpus)
        assert report.warnings
        assert any("effective MDS dimension" in w for w in report.warnings)
        assert all(0.0 <= stats.mean <= 1.0 for stats in report.cells.values())

    def test_gcca_no_worse_than_cca_on_grid(self):
        # fused three-view training tends to beat the pairwise fit
        ok = 0
        cells = 0
        for noise in (1.0, 1.8):
            corpus = synthesize_corpus(7, 200, 2, 5, noise)
            shared = dict(
                schedule=((0.4, 8), (0.7, 8)),
                replicates=10,
                combinations=("GF->GE",),
                averaged_views={},
            )
            g_report = run_experiment(make_config(method="gcca", **shared), corpus=corpus)
            c_report = run_experiment(make_config(method="cca", **shared), corpus=corpus)
            for fraction in g_report.fractions:
                g = g_report.cells[("GF->GE", fraction)]
                c = c_report.cells[("GF->GE", fraction)]
                ok += g.mean >= c.mean - 2.0 * c.std_error
                cells += 1
        assert ok / cells >= 0.8


class TestEmission:
    def test_emit_and_reconstruct_roundtrip(self, tmp_path):
        corpus = synthesize_corpus(14, 120, 2, 5, 0.7)
        config = make_config(replicates=2)
        report = run_experiment(config, corpus=corpus)

        out1 = tmp_path / "run1"
        emit_curves(report, out1)
        curves_name = "curves_gcca_synthetic.csv"
        for name in (curves_name, "table.csv", "replicates.log", "warnings.log", "meta.json"):
            assert (out1 / name).is_file()

        with open(out1 / curves_name) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "fraction,combination,mean_accuracy,std_error,item_std_error"
        assert len(lines) == 1 + len(report.fractions) * len(report.combinations)

        rebuilt = reconstruct_report(out1)
        out2 = tmp_path / "run2"
        emit_curves(rebuilt, out2)
        for name in (curves_name, "table.csv", "replicates.log", "meta.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_on_row_callback_sees_all_records(self):
        corpus = synthesize_corpus(15, 100, 2, 5, 0.4)
        config = make_config(replicates=2)
        seen = []
        run_experiment(config, corpus=corpus, on_row=lambda row, recs: seen.append((row, len(recs))))
        assert len(seen) == 2
        assert all(count == 2 * 3 for _, count in seen)
