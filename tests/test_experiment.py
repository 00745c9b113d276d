import dataclasses
import json
import re
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from manifold_match import align as align_module
from manifold_match import corpus as corpus_module
from manifold_match import experiment
from manifold_match import mds as mds_module
from manifold_match.align import cca_fit, gcca_fit, project
from manifold_match.classify import LabeledEmbedding, average_views, loo_cross_view_accuracy
from manifold_match.corpus import (
    DomainData,
    LabeledCorpus,
    load_corpus,
    save_corpus,
    synthesize_corpus,
)
from manifold_match.dissimilarity import (
    cosine_dissimilarity,
    frobenius_prescale,
    graph_geodesic,
)
from manifold_match.errors import ConfigError, FormatError
from manifold_match.experiment import (
    CANONICAL_SCHEDULE,
    ExperimentConfig,
    ViewSpec,
    _schedule,
    draw_training_sample,
    emit_curves,
    reconstruct_report,
    replicate_seed_for,
    run_experiment,
)
from manifold_match.mds import mds_fit, mds_out_of_sample

THREE_VIEWS = (
    ViewSpec("GE", "domain0", "graph"),
    ViewSpec("GF", "domain1", "graph"),
    ViewSpec("TF", "domain1", "text"),
)

# The files emit_curves writes for a make_config() run.
EMITTED = ("curves_gcca_synthetic.csv", "table.csv", "replicates.log", "warnings.log", "meta.json")


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


def raw_config(**overrides):
    raw = {
        "relation_classes": [0, 2, 4],
        "classifier_classes": [1, 3],
        "views": [{"tag": v.tag, "domain": v.domain, "kind": v.kind} for v in THREE_VIEWS],
        "combinations": ["GF->GE", "TF->GE"],
    }
    raw.update(overrides)
    return raw


class TestSchedule:
    def test_default_for_reference_n(self):
        rows = _schedule(make_config(schedule=None), 819)
        n_primes = [row.n_prime for row in rows]
        assert n_primes == [82, 164, 246, 328, 410, 491, 573, 655, 737, 819]
        assert [row.mds_dim for row in rows] == [dim for _, dim in CANONICAL_SCHEDULE]

    def test_default_clamps_dims_for_small_n(self):
        rows = _schedule(make_config(schedule=None), 50)
        assert [row.n_prime for row in rows] == [5, 10, 15, 20, 25, 30, 35, 40, 45, 50]
        assert [row.mds_dim for row in rows] == [row.n_prime - 1 for row in rows]
        # rows with n' < 2 are dropped
        small = make_config(schedule=None, shared_dim=1)
        assert _schedule(small, 10)[0] == experiment.ScheduleRow(2, 0.2, 1)
        assert _schedule(small, 2) == tuple(
            experiment.ScheduleRow(2, fraction, 1) for fraction in (0.8, 0.9, 1.0)
        )

    def test_fractions_must_increase(self):
        for rows in [((0.5, 4), (0.5, 4)), ((1.0, 8), (0.5, 8))]:
            with pytest.raises(ConfigError, match="strictly increasing"):
                make_config(schedule=rows)

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5, float("nan")])
    def test_fraction_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(ConfigError, match=r"\(0, 1\]"):
            make_config(schedule=((fraction, 8),))

    def test_empty_schedule_rejected(self):
        with pytest.raises(ConfigError, match="malformed field 'schedule': the list is empty$"):
            make_config(schedule=())
        with pytest.raises(ConfigError, match="field 'schedule': the list is empty$"):
            ExperimentConfig.from_dict(raw_config(schedule=[]), source="inline")

    def test_non_positive_mds_dim_rejected(self):
        with pytest.raises(ConfigError, match="malformed field 'schedule': 0 is less than 1$"):
            make_config(schedule=((0.5, 0),), shared_dim=1, regularized=True)

    def test_dim_must_be_below_n_prime(self):
        with pytest.raises(ConfigError, match="mds_dim=5 >= n'=5"):
            _schedule(make_config(schedule=((0.5, 5),)), 10)

    def test_regularized_dim_is_floor_half(self):
        def fit_dims(dim, regularized):
            config = make_config(schedule=((1.0, dim),), shared_dim=1, regularized=regularized)
            return [row.mds_dim for row in _schedule(config, 100)]

        assert fit_dims(41, regularized=False) == [41]
        assert fit_dims(41, regularized=True) == [20]
        assert fit_dims(1, regularized=True) == [1]

    def test_resolved_schedule_rounds_n_prime(self):
        config = make_config(schedule=((0.1, 4), (0.5, 8), (1.0, 8)))
        assert [row.n_prime for row in _schedule(config, 819)] == [82, 410, 819]

    def test_unsatisfiable_row_rejected(self):
        config = make_config(schedule=((0.1, 50),))
        with pytest.raises(ConfigError, match="S=0.1"):
            _schedule(config, 100)


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

    def test_averaged_view_tag_that_is_a_base_view_rejected(self):
        with pytest.raises(ConfigError, match="^averaged view tag 'GE' collides with a base view$"):
            make_config(averaged_views={"GE": ("GF", "TF")}, combinations=("GF->GE",))

    def test_duplicate_view_tags(self):
        views = (ViewSpec("GE", "domain0", "graph"), ViewSpec("GE", "domain1", "graph"))
        with pytest.raises(ConfigError, match="malformed field 'views': 'GE' repeats$"):
            make_config(views=views, combinations=("GE->GE",), averaged_views={})

    @pytest.mark.parametrize("tag", ["G,E", "G\tE", "G E", "G\nE", "..", ""])
    def test_from_dict_unsafe_view_tag(self, tag):
        # A tag is written as a CSV and TSV field, so it may not split one.
        views = raw_config()["views"]
        views[0]["tag"] = tag
        with pytest.raises(ConfigError, match="field 'views': name .* is not a safe file-name"):
            ExperimentConfig.from_dict(raw_config(views=views), source="inline")

    @pytest.mark.parametrize("field", ["domain", "kind"])
    @pytest.mark.parametrize("name", ["", "a\tb", "a/b"], ids=["empty", "tab", "slash"])
    def test_view_domain_and_kind_are_names(self, field, name):
        # They name a corpus's directory and matrix file, dissim_<kind>.tsv.
        views = raw_config()["views"]
        views[0][field] = name
        with pytest.raises(ConfigError, match=rf"^inline: malformed field 'views': name "
                           rf"{re.escape(repr(name))} is not a safe file-name"):
            ExperimentConfig.from_dict(raw_config(views=views), source="inline")

    @pytest.mark.parametrize("tag", ["G,TF", "G\tTF"])
    def test_from_dict_unsafe_averaged_view_tag(self, tag):
        raw = raw_config(averaged_views={tag: ["GF", "TF"]}, combinations=[f"{tag}->GE"])
        with pytest.raises(ConfigError,
                           match="field 'averaged_views': name .* is not a safe file-name"):
            ExperimentConfig.from_dict(raw, source="inline")

    @pytest.mark.parametrize(
        "averaged, named",
        [
            ({5: ("GF", "TF")}, "'averaged_views': name 5 is not a safe file-name"),
            ({"GTF": ("GF",)}, "averaged view 'GTF' must name two views"),
            ({"GTF": ("GF", "TF", "GE")}, "averaged view 'GTF' must name two views"),
            ({"GTF": "GF"}, "averaged view 'GTF' must name two views, got 'GF'"),
        ],
        ids=["int-tag", "one-view", "three-views", "string"],
    )
    def test_malformed_averaged_view_is_named(self, averaged, named):
        # Built in Python, not read from JSON: nothing is coerced or split.
        with pytest.raises(ConfigError, match=named):
            make_config(averaged_views=averaged)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("combinations", (5,)),
            ("shared_dim", "3"),
            ("relation_classes", ("0",)),
            ("shared_dim", True),
            ("kappa", np.int64(5)),
            ("classifier_classes", (1, 3.0)),
            ("schedule", ((0.5, "8"), (1.0, 8))),
            ("views", ("GE", "GF", "TF")),
            ("ridge", "abc"),
        ],
        ids=["combinations-int", "shared_dim-string", "relation_classes-string",
             "shared_dim-bool", "kappa-numpy-int", "classifier_classes-float",
             "schedule-string", "views-strings", "ridge-string"],
    )
    def test_python_built_field_of_another_type_is_named(self, name, value):
        # The exact types of a JSON config's fields; a tuple stands for a list.
        with pytest.raises(ConfigError, match=f"malformed field '{name}'"):
            make_config(**{name: value})

    @pytest.mark.parametrize(
        "name, value",
        [("averaged_views", ["GTF"]), ("averaged_views", 5), ("corpus_path", 5)],
        ids=["averaged_views-list", "averaged_views-int", "corpus_path-int"],
    )
    def test_python_built_field_outside_the_json_types_is_named(self, name, value):
        with pytest.raises(ConfigError, match=f"malformed field '{name}'"):
            make_config(**{name: value})

    def test_python_built_averaged_views_none_means_none(self):
        config = make_config(averaged_views=None, combinations=("GF->GE",))
        assert config.averaged_views == {}

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="malformed field 'seed': -1 is less than 0$"):
            make_config(seed=-1)
        with pytest.raises(ConfigError, match="inline: malformed field 'seed': -1 is less than 0$"):
            ExperimentConfig.from_dict(raw_config(seed=-1), source="inline")

    @pytest.mark.parametrize(
        "name, value",
        [
            ("views", [{"tag": "GE", "domain": "domain0", "kind": "graph", "oops": 1}]),
            ("views", [{"tag": "GE", "domain": "domain0"}]),
            ("schedule", [{"fraction": 1.0, "mds_dim": 8, "typo": 9}]),
            ("schedule", [{"fraction": 1.0}]),
        ],
        ids=["view-extra-key", "view-missing-key", "row-extra-key", "row-missing-key"],
    )
    def test_from_dict_object_takes_exactly_its_keys(self, name, value):
        with pytest.raises(ConfigError, match=f"inline: malformed field '{name}'"):
            ExperimentConfig.from_dict(raw_config(**{name: value}), source="inline")

    def test_from_dict_of_the_json_of_a_config_gives_the_config(self):
        config = make_config()
        raw = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
        raw["corpus"] = raw.pop("corpus_path")
        raw["views"] = [dataclasses.asdict(view) for view in config.views]
        raw["schedule"] = [{"fraction": f, "mds_dim": d} for f, d in config.schedule]
        assert ExperimentConfig.from_dict(json.loads(json.dumps(raw))) == config

    def test_python_built_lists_pass_as_tuples_do(self):
        config = make_config(relation_classes=[0, 2, 4], combinations=["GF->GE"])
        assert config.combinations == ("GF->GE",)

    def test_repeated_combination_is_named(self):
        # Listed twice, a cell was scored twice and its SE taken over copies.
        with pytest.raises(ConfigError,
                           match=r"inline: malformed field 'combinations': 'GF->GE' repeats$"):
            ExperimentConfig.from_dict(
                raw_config(combinations=["GF->GE", "TF->GE", "GF->GE"]), source="inline"
            )

    @pytest.mark.parametrize("cap, max_hops", [(3, 4), (4, 4), (6, 0), (2**53 + 1, 4)],
                             ids=["cap-below", "cap-equal", "zero-max_hops", "cap-above-2**53"])
    def test_geodesic_settings_checked_at_construction(self, cap, max_hops):
        # By graph_geodesic's rule, when the config is made, not once a corpus loads.
        raw = raw_config(cap=cap, max_hops=max_hops)
        message = (r"inline: (cap must be an integer in \[2, 9007199254740992\]"
                   r"|max_hops must be an integer of at least 1|need cap > max_hops)")
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict(raw, source="inline")

    def test_bad_combination_syntax(self):
        with pytest.raises(ConfigError, match="TRAIN->TEST"):
            make_config(combinations=("GFGE",), averaged_views={})

    @pytest.mark.parametrize("combo", ["GF\t->GE", "GF->\nGE", "GF ->GE", "GF-> GE", "GF->GE "])
    def test_from_dict_combination_is_exactly_two_known_tags(self, combo):
        with pytest.raises(ConfigError, match="combination"):
            ExperimentConfig.from_dict(raw_config(combinations=[combo]), source="inline")

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
        # a removed field is an unknown one
        with pytest.raises(ConfigError, match=r"unknown fields \['prescale_reference'\]"):
            ExperimentConfig.from_dict(raw_config(prescale_reference="GE"), source="inline")

    @pytest.mark.parametrize("raw", [5, None, [], "x"], ids=["5", "null", "list", "string"])
    def test_from_dict_non_object(self, raw):
        with pytest.raises(ConfigError, match="must be a JSON object"):
            ExperimentConfig.from_dict(raw, source="inline")

    def test_from_dict_missing_fields(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"views": []}, source="inline")

    @pytest.mark.parametrize(
        "name, value",
        [
            ("shared_dim", "x"),
            ("ridge", "abc"),
            ("kappa", None),
            ("replicates", [2]),
            ("seed", float("inf")),
            ("cap", "six"),
            ("max_hops", {}),
            ("bootstrap_samples", float("nan")),
            # JSON types are strict: nothing is truncated or stringified.
            ("kappa", 2.7),
            ("shared_dim", 1.9),
            pytest.param("replicates", True, id="replicates-true"),
            pytest.param("seed", False, id="seed-false"),
            pytest.param("ridge", True, id="ridge-true"),
            pytest.param("relation_classes", [0.5, 2], id="relation_classes-0.5"),
            pytest.param("classifier_classes", [1, True], id="classifier_classes-true"),
            pytest.param("schedule", [{"fraction": 1.0, "mds_dim": 7.9}], id="mds_dim-7.9"),
            pytest.param("schedule", [{"fraction": True, "mds_dim": 7}], id="fraction-true"),
            pytest.param("feature", ["a b"], id="feature-list"),
            ("feature", "a b"),
            ("feature", "../x"),
            pytest.param("combinations", ["GF->GE", 3], id="combinations-int"),
            pytest.param("averaged_views", {"GTF": ["GF", 1]}, id="averaged_views-int"),
        ],
    )
    def test_from_dict_malformed_scalar(self, name, value):
        with pytest.raises(ConfigError, match=name):
            ExperimentConfig.from_dict(raw_config(**{name: value}), source="inline")

    @pytest.mark.parametrize("name, value", [
        ("views", ""),
        ("combinations", "GF->GE"),
        ("relation_classes", ""),
        ("classifier_classes", ""),
        ("schedule", ""),
        ("averaged_views", {"GTF": "GF"}),
    ])
    def test_from_dict_string_for_a_list_names_the_field(self, name, value):
        # A JSON string is not read character by character as a list.
        with pytest.raises(ConfigError, match=f"malformed field '{name}'"):
            ExperimentConfig.from_dict(raw_config(**{name: value}), source="inline")

    def test_from_dict_malformed_averaged_views(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw_config(averaged_views=["GTF"]), source="inline")

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_from_dict_regularized_must_be_boolean(self, value):
        with pytest.raises(ConfigError, match="regularized"):
            ExperimentConfig.from_dict(raw_config(regularized=value), source="inline")

    @pytest.mark.parametrize("value", [False, True])
    def test_from_dict_regularized_boolean(self, value):
        config = ExperimentConfig.from_dict(raw_config(regularized=value), source="inline")
        assert config.regularized is value

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

    @pytest.mark.parametrize("counts, overrides, message", [
        ({0: 1, 1: 30, 3: 29}, {"relation_classes": (0,)}, "only 1 relation-learning objects"),
        ({0: 30, 1: 1, 2: 29}, {"relation_classes": (0, 2), "classifier_classes": (1,)},
         "only 1 classifier objects"),
        ({0: 36, 1: 12, 3: 12}, {"relation_classes": (0,), "kappa": 24},
         "kappa=24 exceeds the leave-one-out training size 23"),
    ], ids=["relation", "classifier", "kappa"])
    def test_too_few_objects_for_a_role(self, counts, overrides, message):
        # counts: class -> objects, over the 60 objects of one corpus.
        corpus = synthesize_corpus(11, 60, 2, 5, 0.0)
        labels = np.repeat(list(counts), list(counts.values()))
        corpus = LabeledCorpus(corpus.object_ids, labels, corpus.domains)
        config = make_config(averaged_views={}, combinations=("GF->GE",), **overrides)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            run_experiment(config, corpus=corpus)

    def test_view_kind_unavailable(self):
        corpus = synthesize_corpus(11, 60, 2, 5, 0.0)
        bad = LabeledCorpus(
            corpus.object_ids,
            corpus.labels,
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


def one_replicate(config, corpus):
    """Accuracy per combination of the first replicate of the first row."""
    report = run_experiment(config, corpus=corpus)
    fraction = report.fractions[0]
    return {
        combo: report.cells[(combo, fraction)].accuracies[0] for combo in report.combinations
    }


class TestRunReplicate:
    def test_deterministic_in_replicate_seed(self):
        corpus = synthesize_corpus(11, 140, 2, 5, 0.6)
        config = make_config(replicates=1, schedule=((0.5, 8),), seed=5551)
        a = one_replicate(config, corpus)
        b = one_replicate(config, corpus)
        assert a == b
        other = make_config(replicates=1, schedule=((0.5, 8),), seed=5552)
        assert one_replicate(other, corpus) != a

    def test_zero_noise_gcca_graph_transfer_is_perfect(self):
        corpus = synthesize_corpus(11, 200, 2, 5, 0.0)
        config = make_config(shared_dim=3, schedule=((1.0, 8),), replicates=1, seed=0)
        accs = one_replicate(config, corpus)
        assert accs["GF->GE"] == 1.0

    def test_accuracies_invariant_to_text_view_scale(self):
        # Two corpora identical except the text dissimilarity scale. This
        # passes with or without the prescale, because GCCA and CCA are
        # invariant to one scale per view;
        # test_text_view_takes_the_reference_norm pins the prescale itself.
        corpus = synthesize_corpus(13, 120, 2, 5, 0.4)
        base_dm = cosine_dissimilarity(corpus.domains[1].features)
        scaled_dm = base_dm * 50.0

        def with_text(dm):
            d1 = corpus.domains[1]
            return LabeledCorpus(
                corpus.object_ids,
                corpus.labels,
                (
                    corpus.domains[0],
                    DomainData(d1.name, d1.features, d1.edges, {"text": dm}),
                ),
            )

        config = make_config(replicates=1, schedule=((0.5, 8),), seed=999)
        acc_base = one_replicate(config, with_text(base_dm))
        acc_scaled = one_replicate(config, with_text(scaled_dm))
        assert acc_base == acc_scaled

    def test_text_view_takes_the_reference_norm(self, monkeypatch):
        # The text view's training block and classifier rows are scaled by
        # one factor onto the norm of the first graph view's training block.
        fits, rows = [], []

        def spy_fit(delta, p, **kwargs):
            fits.append(delta.copy())  # the fit overwrites its own block
            return experiment_mds_fit(delta, p, **kwargs)

        def spy_oos(model, delta_new):
            rows.append(delta_new)
            return experiment_oos(model, delta_new)

        experiment_mds_fit, experiment_oos = experiment.mds_fit, experiment.mds_out_of_sample
        monkeypatch.setattr(experiment, "mds_fit", spy_fit)
        monkeypatch.setattr(experiment, "mds_out_of_sample", spy_oos)
        corpus = golden_corpus()
        run_experiment(make_config(schedule=((1.0, 8),), replicates=1), corpus=corpus)
        rel = np.flatnonzero(np.isin(corpus.labels, [0, 2, 4]))
        clf = np.flatnonzero(np.isin(corpus.labels, [1, 3]))
        ge = graph_geodesic(corpus.domains[0].edges, corpus.n_total, cap=32, max_hops=30)
        tf = cosine_dissimilarity(corpus.domains[1].features)
        factor = np.linalg.norm(ge[np.ix_(rel, rel)]) / np.linalg.norm(tf[np.ix_(rel, rel)])
        assert factor != 1.0
        assert np.array_equal(fits[0], ge[np.ix_(rel, rel)])
        assert np.array_equal(fits[2], tf[np.ix_(rel, rel)] * factor)
        assert np.array_equal(rows[2], tf[np.ix_(clf, rel)] * factor)

    def test_cca_on_one_tag_projects_test_by_map_0_and_train_by_map_1(self, monkeypatch):
        # Both maps of a view aligned with itself agree to rounding, so the
        # map each side went through is read from spies, not from accuracy.
        made, scored = {}, []

        def spy_project(maps, k, points):
            out = project(maps, k, points)
            made[id(out)] = k
            return out

        def spy_loo(train_view, test_view, kappa):
            scored.append((made[id(train_view.points)], made[id(test_view.points)]))
            return loo_cross_view_accuracy(train_view, test_view, kappa)

        monkeypatch.setattr(experiment, "project", spy_project)
        monkeypatch.setattr(experiment, "loo_cross_view_accuracy", spy_loo)
        corpus = golden_corpus()
        config = make_config(
            method="cca", combinations=("GE->GE",), averaged_views={},
            schedule=((1.0, 8),), replicates=1,
        )
        rel = np.flatnonzero(np.isin(corpus.labels, [0, 2, 4]))
        clf = np.flatnonzero(np.isin(corpus.labels, [1, 3]))
        ge = graph_geodesic(corpus.domains[0].edges, corpus.n_total, cap=32, max_hops=30)
        model = experiment.mds_fit(ge[np.ix_(rel, rel)], 8)
        points = experiment.mds_out_of_sample(model, ge[np.ix_(clf, rel)])
        maps = cca_fit(model.embedding, model.embedding, 2)
        test, train = (
            LabeledEmbedding(project(maps, k, points), corpus.labels[clf], "GE") for k in (0, 1)
        )
        expected = loo_cross_view_accuracy(train, test, 5)
        assert one_replicate(config, corpus) == {"GE->GE": expected}
        assert scored == [(1, 0)]

    @pytest.mark.parametrize("method, combinations, averaged, projected", [
        ("cca", ("GF->GE",), {}, ["GE", "GF"]),
        ("cca", ("TF->TF",), {}, ["TF"]),
        ("gcca", ("GF->GE",), {}, ["GE", "GF"]),
        ("gcca", ("GF->GE",), {"GTF": ("GF", "TF")}, ["GE", "GF", "TF"]),
        ("gcca", ("GTF->GE",), {"GTF": ("GF", "TF")}, ["GE", "GF", "TF"]),
    ], ids=["cca-text-unread", "cca-text-only", "gcca-text-unread", "gcca-text-averaged",
            "gcca-averaged-scored"])
    def test_projects_only_the_views_something_reads(
        self, monkeypatch, method, combinations, averaged, projected
    ):
        # Every view is still fitted: its fit sets the shared dimension.
        fitted, models = [], {}

        def spy_fit(delta, p, **kwargs):
            model = experiment_mds_fit(delta, p, **kwargs)
            models[id(model)] = THREE_VIEWS[len(fitted)].tag
            fitted.append(model)
            return model

        def spy_oos(model, delta_new):
            calls.append(models[id(model)])
            return experiment_oos(model, delta_new)

        calls = []
        experiment_mds_fit, experiment_oos = experiment.mds_fit, experiment.mds_out_of_sample
        monkeypatch.setattr(experiment, "mds_fit", spy_fit)
        monkeypatch.setattr(experiment, "mds_out_of_sample", spy_oos)
        config = make_config(
            method=method, combinations=combinations, averaged_views=averaged,
            schedule=((1.0, 8),), replicates=1,
        )
        report = run_experiment(config, corpus=golden_corpus())
        assert len(fitted) == 3
        assert calls == projected
        assert report.combinations == combinations


class TestFitView:
    def test_text_view_is_factored_in_its_own_training_block(self, monkeypatch):
        # The float training block a text view gathers becomes its fit's Gram
        # matrix: the fit holds no second n' x n' float array, only LAPACK's
        # workspace of about 2n'^2 floats beside it (3.03n'^2 traced; a
        # separate Gram matrix and eigh's vectors traced 3.25n'^2).
        corpus = synthesize_corpus(5, 700, 2, 5, 0.8)
        prepared = experiment._prepare(make_config(), corpus)
        sample = prepared.rel_idx
        n = sample.size
        blocks, factored = [], []

        def spy_block(matrix, rows, cols):
            blocks.append(block(matrix, rows, cols))
            return blocks[-1]

        def spy_eig_sym(a, count=None):
            factored.append(a)
            return eig_sym(a, count)

        block, eig_sym = experiment._block, mds_module.eig_sym
        monkeypatch.setattr(experiment, "_block", spy_block)
        monkeypatch.setattr(mds_module, "eig_sym", spy_eig_sym)
        model, factor = experiment._fit_view(prepared, THREE_VIEWS[2], sample, 100)
        assert blocks[0].dtype == np.float64 and factor is not None
        assert len(factored) == 1 and factored[0] is blocks[0]
        monkeypatch.undo()
        blocks.clear()
        peak, (again, _) = traced_peak(
            lambda: experiment._fit_view(prepared, THREE_VIEWS[2], sample, 100)
        )
        assert again.embedding.tobytes() == model.embedding.tobytes()
        assert peak < 3.1 * n * n * 8


class TestRunExperiment:
    def test_report_shapes_and_invariants(self):
        corpus = synthesize_corpus(11, 140, 2, 5, 0.8)
        config = make_config(replicates=3)
        report = run_experiment(config, corpus=corpus)
        assert report.fractions == (0.5, 1.0)
        assert report.combinations == ("GF->GE", "TF->GE", "GTF->GE")
        assert len(report.cells) == 6
        for stats in report.cells.values():
            assert len(stats.accuracies) == 3
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
            assert len(stats.accuracies) == 1

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

    @pytest.fixture
    def emitted(self, tmp_path):
        report = run_experiment(
            make_config(replicates=1, schedule=((1.0, 8),)), corpus=golden_corpus()
        )
        emit_curves(report, tmp_path)
        return tmp_path

    @pytest.mark.parametrize(
        "line",
        [
            "gcca\tGF->GE\tsynthetic\t1.0\t0",
            "gcca\tGF->GE\tsynthetic\t1.0\t0\t0.5\textra",
            "gcca\tGF->GE\tsynthetic\t1.0\tzero\t0.5",
            "gcca\tGF->GE\tsynthetic\t1.0\t0\thigh",
        ],
        ids=["short", "long", "replicate", "accuracy"],
    )
    def test_malformed_log_line_names_file_and_line(self, emitted, line):
        log = emitted / "replicates.log"
        lines = log.read_text().splitlines()
        lines[2] = line
        log.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="replicates.log:3"):
            reconstruct_report(emitted)

    def test_log_with_another_header_names_file_and_line(self, emitted):
        log = emitted / "replicates.log"
        header, records = log.read_text().split("\n", 1)
        assert header.startswith("method\t")
        log.write_text(header.replace("method", "approach", 1) + "\n" + records)
        with pytest.raises(FormatError, match=r"replicates\.log:1: unexpected header$"):
            reconstruct_report(emitted)

    @pytest.fixture
    def emitted_three(self, tmp_path):
        report = run_experiment(
            make_config(replicates=3, schedule=((1.0, 8),)), corpus=golden_corpus()
        )
        emit_curves(report, tmp_path)
        return tmp_path

    @pytest.mark.parametrize(
        "edit",
        [
            lambda records: records[:1],
            lambda records: records + records[:1],
            lambda records: [r for r in records if "\t1\t" not in r],
            lambda records: [r.replace("\t2\t", "\t3\t") for r in records],
            lambda records: [],
            lambda records: records + [records[0].replace("\t1.0\t", "\t0.5\t")],
        ],
        ids=["truncated", "duplicated", "missing", "out_of_range", "empty", "extra_cell"],
    )
    def test_log_must_hold_each_replicate_once(self, emitted_three, edit):
        # A cell's indices must be exactly 0..R-1 with R from meta.json.
        log = emitted_three / "replicates.log"
        header, *records = log.read_text().splitlines()
        assert len(records) == 3 * 3  # three combinations, three replicates
        log.write_text("\n".join([header, *edit(records)]) + "\n")
        with pytest.raises(FormatError, match="replicates.log"):
            reconstruct_report(emitted_three)

    def test_reconstruct_is_independent_of_log_line_order(self, tmp_path):
        # The bootstrap resamples a cell's accuracies by position, so they
        # must come back in replicate order whatever the log's line order.
        report = run_experiment(
            make_config(replicates=8, schedule=((0.5, 8),)), corpus=golden_corpus()
        )
        emit_curves(report, tmp_path)
        log = tmp_path / "replicates.log"
        header, *records = log.read_text().splitlines()
        cell = [r for r in records if r.startswith("gcca\tGF->GE\t")]
        assert len(set(r.split("\t")[5] for r in cell)) > 1
        others = [r for r in records if r not in cell]
        log.write_text("\n".join([header, *cell[::-1], *others]) + "\n")
        rebuilt = reconstruct_report(tmp_path)
        assert rebuilt.cells == report.cells
        again = tmp_path / "again"
        emit_curves(rebuilt, again)
        for name in ("curves_gcca_synthetic.csv", "table.csv", "meta.json"):
            assert (again / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_meta_replicates_must_be_positive(self, emitted):
        meta = json.loads((emitted / "meta.json").read_text())
        (emitted / "meta.json").write_text(json.dumps({**meta, "replicates": 0}))
        log = emitted / "replicates.log"
        log.write_text(log.read_text().splitlines()[0] + "\n")
        with pytest.raises(FormatError, match="meta.json: missing or malformed field 'replicates'"):
            reconstruct_report(emitted)

    @pytest.mark.parametrize(
        "meta", ['{"method": "gcca"', '{"method": "gcca"}', '[]', '{"fractions": "x"}'],
        ids=["truncated", "incomplete", "list", "malformed"],
    )
    def test_malformed_meta_names_file(self, emitted, meta):
        (emitted / "meta.json").write_text(meta)
        with pytest.raises(FormatError, match="meta.json"):
            reconstruct_report(emitted)

    @pytest.mark.parametrize("field, value", [
        ("replicates", 3.7),
        ("replicates", "3"),
        ("replicates", True),
        ("replicates", "x"),
        ("seed", 1.9),
        ("bootstrap_samples", 50.5),
        ("m_classifier", "60"),
        ("method", 5),
        ("fractions", "0.5"),
    ], ids=["replicates-float", "replicates-numeric-string", "replicates-bool",
            "replicates-string", "seed-float", "bootstrap_samples-float",
            "m_classifier-string", "method-int", "fractions-string"])
    def test_meta_field_of_another_type_names_file_and_field(self, emitted_three, field, value):
        # Nothing is coerced: 3.7 is not read as 3 replicates, nor true as 1.
        path = emitted_three / "meta.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), field: value}))
        with pytest.raises(FormatError, match=f"meta.json: missing or malformed field '{field}'"):
            reconstruct_report(emitted_three)

    @pytest.mark.parametrize("field, value", [
        ("m_classifier", 0), ("m_classifier", -1), ("bootstrap_samples", 0), ("replicates", -1),
        ("seed", -1), ("method", "x"), ("feature", ""), ("feature", "a/b"),
        ("fractions", [1.0, 0.5]),
    ])
    def test_meta_field_outside_the_config_rule_names_file_and_field(
        self, emitted, field, value
    ):
        # Read back, a count below 1 or a negative seed ended in numpy's
        # ValueError or a warning of a division by 0, and the rest in a report
        # that no config could have made.
        path = emitted / "meta.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), field: value}))
        with pytest.raises(FormatError, match=f"meta.json: missing or malformed field '{field}'"):
            reconstruct_report(emitted)

    def test_meta_fields_a_config_holds_keep_the_config_converter(self):
        # One rule per field: meta.json and an alignment's meta.json read
        # these back through the very converters a config is built with.
        for name in ("method", "feature", "combinations", "seed", "bootstrap_samples",
                     "replicates"):
            assert experiment._META[name] is experiment._FIELDS[name], name
        assert align_module._ALIGNMENT_META["method"] is experiment._FIELDS["method"]

    @pytest.mark.parametrize("field, value", [
        ("fractions", [0.5, 1.0, 0.5]),
        ("combinations", ["GF->GE", "TF->GE", "GF->GE"]),
    ])
    def test_meta_list_that_repeats_an_item_names_file_and_field(self, emitted, field, value):
        # A repeated cell would take the log's records of the one cell twice.
        path = emitted / "meta.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), field: value}))
        with pytest.raises(FormatError, match=f"meta.json: missing or malformed field '{field}'"):
            reconstruct_report(emitted)

    @pytest.mark.parametrize("name", ["replicates.log", "warnings.log"])
    def test_log_that_is_not_utf8_names_file(self, emitted, name):
        with open(emitted / name, "ab") as fh:
            fh.write(b"\xff")
        with pytest.raises(FormatError, match=name):
            reconstruct_report(emitted)

    @pytest.mark.parametrize("name", EMITTED)
    def test_failed_rewrite_leaves_each_file_whole(self, tmp_path, fail_writing, name):
        # Re-emitting over a run whose write of ``name`` fails part-way: that
        # file keeps its previous bytes, and every other is old or new whole.
        corpus = golden_corpus()
        old = run_experiment(make_config(replicates=1, schedule=((1.0, 8),)), corpus=corpus)
        new = dataclasses.replace(
            run_experiment(make_config(replicates=2, schedule=((0.5, 8),)), corpus=corpus),
            warnings=["replicate 0: one", "replicate 1: two"],
        )
        out = tmp_path / "out"
        for report, where in ((new, tmp_path / "new"), (old, out)):
            emit_curves(report, where)
        old_bytes, new_bytes = ({n: (where / n).read_bytes() for n in EMITTED}
                                for where in (out, tmp_path / "new"))
        assert all(old_bytes[n] != new_bytes[n] for n in EMITTED)

        fail_writing(name, writes=1)
        with pytest.raises(OSError, match="disk full"):
            emit_curves(new, out)
        assert (out / name).read_bytes() == old_bytes[name]
        assert all((out / n).read_bytes() in (old_bytes[n], new_bytes[n]) for n in EMITTED)
        assert sorted(p.name for p in out.iterdir()) == sorted(EMITTED)

    def test_on_row_callback_sees_all_records(self):
        corpus = synthesize_corpus(15, 100, 2, 5, 0.4)
        config = make_config(replicates=2)
        seen = []
        run_experiment(config, corpus=corpus, on_row=lambda row, recs: seen.append((row, recs)))
        assert len(seen) == 2
        assert all(len(recs) == 2 * 3 for _, recs in seen)
        # (method, combination, feature, fraction, replicate, accuracy): the
        # benchmark counts replicates from field 4.
        for row, recs in seen:
            assert [r[:5] for r in recs] == [
                ("gcca", combo, "synthetic", row.fraction, rep)
                for rep in range(2)
                for combo in config.combinations
            ]
            assert all(isinstance(r[5], float) and 0.0 <= r[5] <= 1.0 for r in recs)


def golden_corpus():
    # criterion 10's corpus, as in tests/test_golden.py
    return synthesize_corpus(31, 120, 2, 5, 0.8)


@pytest.fixture
def cores(monkeypatch):
    """Sets the core count the run sees."""
    def use(count):
        monkeypatch.setattr(experiment, "_usable_cores", lambda: count)
    return use


@pytest.fixture
def calls(monkeypatch):
    """How often the run fits an MDS and builds a geodesic view."""
    counts = {"mds_fit": 0, "graph_geodesic": 0}
    lock = threading.Lock()  # replicates run on several threads

    def counting(name, module):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            with lock:
                counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name, module in (("mds_fit", experiment), ("graph_geodesic", corpus_module)):
        monkeypatch.setattr(module, name, counting(name, module))
    return counts


class TestFitEachSampleOnce:
    def test_replicates_of_an_already_fit_sample_are_replayed(self, calls):
        # S=0.5 draws 3 distinct samples; S=1 draws the whole pool 3 times.
        config = make_config(replicates=3)
        records = []
        report = run_experiment(
            config, corpus=golden_corpus(), on_row=lambda row, recs: records.extend(recs)
        )
        assert calls["mds_fit"] == 3 * 3 + 3
        assert [r[3:5] for r in records] == [
            (fraction, rep)
            for fraction in (0.5, 1.0)
            for rep in range(3)
            for _ in config.combinations
        ]
        for combo in config.combinations:
            assert len(set(report.cells[(combo, 1.0)].accuracies)) == 1

    def test_replayed_replicates_repeat_their_warnings_in_order(self):
        report = run_experiment(make_config(replicates=3, shared_dim=7), corpus=golden_corpus())
        assert report.warnings == REPLAYED_WARNINGS


REPLAYED_WARNINGS = [
    f"replicate {rep}: S={fraction:g}: view TF effective MDS dimension 6 is below shared_dim 7"
    for fraction in (0.5, 1.0)
    for rep in range(3)
]


class TestViewsKeptOnCorpus:
    def test_gcca_then_cca_builds_each_graph_once(self, calls):
        corpus = golden_corpus()
        run_experiment(make_config(replicates=1), corpus=corpus)
        run_experiment(
            make_config(replicates=1, method="cca", combinations=("GF->GE",), averaged_views={}),
            corpus=corpus,
        )
        assert calls["graph_geodesic"] == 2

    def test_new_max_hops_builds_again(self, calls):
        corpus = golden_corpus()
        run_experiment(make_config(replicates=1), corpus=corpus)
        run_experiment(make_config(replicates=1, max_hops=20), corpus=corpus)
        assert calls["graph_geodesic"] == 4

    def test_loaded_corpora_do_not_share_views(self, calls, tmp_path):
        save_corpus(golden_corpus(), tmp_path)
        config = make_config(replicates=1)
        run_experiment(config, corpus=load_corpus(tmp_path))
        run_experiment(config, corpus=load_corpus(tmp_path))
        assert calls["graph_geodesic"] == 4

    def test_kept_views_give_the_fresh_report(self):
        config = make_config(replicates=3)
        corpus = golden_corpus()
        cca = make_config(
            replicates=1, method="cca", combinations=("TF->GE",), averaged_views={}
        )
        run_experiment(cca, corpus=corpus)
        assert corpus._views
        assert run_experiment(config, corpus=corpus) == run_experiment(
            config, corpus=golden_corpus()
        )

    @pytest.mark.parametrize("cap", [32], ids=["narrow"])
    @pytest.mark.parametrize("method", ["gcca", "cca"])
    def test_built_views_give_the_report_of_float_matrices(self, cap, method, tmp_path):
        # The corpus builds a geodesic view as hop counts in the narrowest
        # unsigned type that holds cap; the report (cells and warnings) is
        # that of the same counts given in memory as float64, and of them
        # registered as float64 with no cap recorded.
        overrides = {"combinations": ("GF->GE", "TF->GE"), "averaged_views": {}}
        config = make_config(
            cap=cap, shared_dim=7, method=method, **(overrides if method == "cca" else {})
        )
        built = golden_corpus()
        save_corpus(built, tmp_path)
        graphs = {
            d.name: graph_geodesic(d.edges, built.n_total, cap=cap, max_hops=30).astype(float)
            for d in built.domains
        }
        domains = tuple(
            DomainData(d.name, d.features, d.edges, {"graph": graphs[d.name]})
            for d in built.domains
        )
        given = LabeledCorpus(built.object_ids, built.labels, domains)
        for name, graph in graphs.items():
            corpus_module.register_dissimilarity(tmp_path, name, "graph", graph)
        read = load_corpus(tmp_path)
        report = run_experiment(config, corpus=built)
        assert report.warnings
        assert report == run_experiment(config, corpus=given) == run_experiment(config, corpus=read)
        assert built.view("domain0", "graph", cap, 30).dtype == np.uint8
        assert given.view("domain0", "graph", cap, 30).dtype == np.float64
        assert read.view("domain0", "graph", cap, 30).dtype == np.float64

    @pytest.mark.parametrize("method", ["gcca", "cca"])
    def test_unsigned_text_matrix_gives_the_report_of_its_floats(self, method, tmp_path):
        # A text matrix of unsigned integers is held as given, and registered
        # it reads back from its twin in its type; prescaled onto the graph
        # view, its blocks become new float arrays, and the report is that of
        # the same values given as float64.
        overrides = {"combinations": ("GF->GE", "TF->GE"), "averaged_views": {}}
        config = make_config(method=method, **(overrides if method == "cca" else {}))
        built = golden_corpus()
        save_corpus(built, tmp_path)
        texts = {
            d.name: np.rint(built.view(d.name, "text", config.cap, config.max_hops) * 100)
            for d in built.domains
        }

        def given(dtype):
            domains = tuple(
                DomainData(d.name, d.features, d.edges, {"text": texts[d.name].astype(dtype)})
                for d in built.domains
            )
            return LabeledCorpus(built.object_ids, built.labels, domains)

        for name, text in texts.items():
            corpus_module.register_dissimilarity(tmp_path, name, "text", text.astype(np.uint8))
        narrow, read = given(np.uint8), load_corpus(tmp_path)
        report = run_experiment(config, corpus=given(np.float64))
        assert report == run_experiment(config, corpus=narrow) == run_experiment(config, corpus=read)
        assert narrow.view("domain0", "text", config.cap, config.max_hops).dtype == np.uint8
        assert read.view("domain0", "text", config.cap, config.max_hops).dtype == np.uint8


class TestWholePoolFitsKeptOnCorpus:
    WHOLE_POOL = dict(replicates=1, schedule=((1.0, 8),))

    def test_cca_after_gcca_fits_only_below_the_whole_pool(self, calls, tmp_path):
        gcca = make_config()
        cca = make_config(method="cca", combinations=("GF->GE", "TF->GE"), averaged_views={})
        corpus = golden_corpus()
        first = run_experiment(gcca, corpus=corpus)
        start, fits_by_row_end = calls["mds_fit"], []
        second = run_experiment(
            cca, corpus=corpus,
            on_row=lambda row, recs: fits_by_row_end.append(calls["mds_fit"] - start),
        )
        # S=0.5 fits its 2 drawn samples in 3 views; S=1 takes the 3 kept fits.
        assert fits_by_row_end == [2 * 3, 2 * 3]
        for config, report in ((gcca, first), (cca, second)):
            fresh = run_experiment(config, corpus=golden_corpus())
            assert report == fresh
            emit_curves(report, tmp_path / "kept" / config.method)
            emit_curves(fresh, tmp_path / "fresh" / config.method)
            for path in (tmp_path / "fresh" / config.method).iterdir():
                kept = tmp_path / "kept" / config.method / path.name
                assert kept.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "overrides, refits",
        [
            ({}, 0),
            ({"schedule": ((1.0, 7),)}, 3),
            ({"regularized": True}, 3),
            ({"relation_classes": (0, 2)}, 3),
            # TF is prescaled onto GE, so a new geodesic refits it too.
            ({"cap": 40}, 3),
            ({"max_hops": 20}, 3),
            # GF becomes TF's prescale reference; GE and GF are unchanged.
            ({"views": (THREE_VIEWS[1], THREE_VIEWS[0], THREE_VIEWS[2])}, 1),
        ],
        ids=["same", "mds_dim", "regularized", "relation_classes", "cap", "max_hops", "reference"],
    )
    def test_each_part_of_the_key_misses(self, calls, overrides, refits):
        corpus = golden_corpus()
        run_experiment(make_config(**self.WHOLE_POOL), corpus=corpus)
        assert calls["mds_fit"] == 3
        config = make_config(**{**self.WHOLE_POOL, **overrides})
        report = run_experiment(config, corpus=corpus)
        assert calls["mds_fit"] == 3 + refits
        assert report == run_experiment(config, corpus=golden_corpus())

    def test_one_fit_per_view_after_the_default_ladder(self):
        corpus = golden_corpus()
        config = make_config(replicates=1, schedule=None)
        run_experiment(config, corpus=corpus)
        assert len(corpus._fits) == len(config.views)

    def test_kept_arrays_are_read_only(self):
        corpus = golden_corpus()
        run_experiment(make_config(**self.WHOLE_POOL), corpus=corpus)
        assert corpus._fits
        # Each view is kept as (model, prescale factor); TF alone is prescaled.
        factors = {}
        for (key, _), (model, factor) in corpus._fits.items():
            factors[key[0][1]] = factor
            for array in (model.embedding, model.eigenvalues, model.row_means):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0.0
        assert factors["graph"] is None
        assert isinstance(factors["text"], float)

    def test_a_kept_fit_gathers_no_training_block(self, calls, monkeypatch):
        # 540 relation objects and 60 classifier objects. A CCA call on the
        # pool a GCCA call fit takes each view's fit and prescale factor as
        # kept: it gathers only the classifier rows of each view, far less
        # than one n' x n' float block, and prescales nothing.
        corpus = synthesize_corpus(43, 600, 2, 20, 0.8)
        pool = dict(
            relation_classes=tuple(range(18)), classifier_classes=(18, 19),
            schedule=((1.0, 8),), replicates=1,
        )
        gcca = make_config(**pool)
        cca = make_config(method="cca", combinations=("GF->GE", "TF->GE"), averaged_views={}, **pool)
        run_experiment(gcca, corpus=corpus)
        n = int(np.isin(corpus.labels, pool["relation_classes"]).sum())
        assert n == 540
        prescaled = []
        prescale = experiment.frobenius_prescale
        monkeypatch.setattr(experiment, "frobenius_prescale",
                            lambda *args: prescaled.append(args) or prescale(*args))
        peak, report = traced_peak(lambda: run_experiment(cca, corpus=corpus))
        assert calls["mds_fit"] == 3
        assert prescaled == []
        assert peak < n * n * 8
        assert report == run_experiment(cca, corpus=synthesize_corpus(43, 600, 2, 20, 0.8))

    # Six rows round to the whole 10-object pool; at shared_dim 8 the text
    # view (rank at most its 6 feature columns) falls short at every MDS
    # dimension.
    SIX_WHOLE_POOL_ROWS = (0.95, 0.96, 0.97, 0.98, 0.99, 1.0)

    def whole_pool_rows(self, dims):
        return make_config(
            relation_classes=(0,),
            replicates=2,
            shared_dim=8,
            schedule=tuple(zip(self.SIX_WHOLE_POOL_ROWS, dims)),
        )

    def spied_run(self, config, corpus, monkeypatch):
        """The report, and the MDS dimension of each ``_run_single`` call."""
        run_single = experiment._run_single
        tasks = []

        def spy(prepared, sample, mds_dim):
            tasks.append(mds_dim)
            return run_single(prepared, sample, mds_dim)

        with monkeypatch.context() as patch:
            patch.setattr(experiment, "_run_single", spy)
            report = run_experiment(config, corpus=corpus)
        return report, tasks

    def assert_warnings_name_their_rows(self, report):
        # Each replicate repeats the first one's shortfalls under its own S.
        first = "replicate 0: S=0.95: "
        tails = [w[len(first):] for w in report.warnings if w.startswith(first)]
        assert any(tail.startswith("view TF ") for tail in tails)
        assert report.warnings == [
            f"replicate {rep}: S={fraction:g}: {tail}"
            for fraction in self.SIX_WHOLE_POOL_ROWS
            for rep in range(2)
            for tail in tails
        ]

    def test_rows_running_the_whole_pool_at_once_fit_each_view_once(
        self, calls, cores, monkeypatch
    ):
        # Every row draws the same sample at the same dimension, so one task
        # serves all twelve replicates.
        corpus = synthesize_corpus(41, 50, 2, 5, 0.8)
        config = self.whole_pool_rows([9] * 6)
        assert {row.n_prime for row in _schedule(config, 10)} == {10}
        cores(8)
        report, tasks = self.spied_run(config, corpus, monkeypatch)
        assert tasks == [9]
        assert calls["mds_fit"] == 3
        assert len(corpus._fits) == 3
        self.assert_warnings_name_their_rows(report)
        cores(1)
        assert report == run_experiment(config, corpus=synthesize_corpus(41, 50, 2, 5, 0.8))

    def test_whole_pool_rows_at_two_dimensions_run_two_tasks(self, calls, cores, monkeypatch):
        corpus = synthesize_corpus(41, 50, 2, 5, 0.8)
        config = self.whole_pool_rows([9, 9, 9, 8, 8, 8])
        cores(8)
        report, tasks = self.spied_run(config, corpus, monkeypatch)
        assert sorted(tasks) == [8, 9]
        assert calls["mds_fit"] == 6
        assert len(corpus._fits) == 6
        assert {w.split(": ")[1] for w in report.warnings} == {
            f"S={fraction:g}" for fraction in self.SIX_WHOLE_POOL_ROWS
        }
        cores(1)
        assert report == run_experiment(config, corpus=synthesize_corpus(41, 50, 2, 5, 0.8))

    def test_a_kept_fit_repeats_its_warnings(self, calls):
        corpus = golden_corpus()
        config = make_config(replicates=3, shared_dim=7)
        run_experiment(config, corpus=corpus)
        start = calls["mds_fit"]
        report = run_experiment(config, corpus=corpus)
        assert calls["mds_fit"] - start == 3 * 3  # the S=0.5 samples only
        assert report.warnings == REPLAYED_WARNINGS


class FakeBlas:
    """Stands in for OpenBLAS's thread setter: one process-wide count, as in
    numpy's pthreads build, with each call's thread and value recorded."""

    def __init__(self, count):
        self.count = count
        self.calls = []
        self._lock = threading.Lock()

    def __call__(self, count):
        with self._lock:
            previous, self.count = self.count, count
            self.calls.append((threading.current_thread(), count))
            return previous


class TestPool:
    """A run's distinct samples are scored on every usable core and merged
    back in (row, replicate) order."""

    @pytest.mark.parametrize("count", [2, 4])
    def test_report_and_files_do_not_depend_on_the_core_count(self, cores, count, tmp_path):
        # Ten distinct samples over four rows, with shortfall warnings.
        config = make_config(
            replicates=3, shared_dim=7, schedule=((0.3, 20), (0.5, 20), (0.7, 20), (1.0, 20))
        )
        outputs = {}
        for k in (1, count):
            cores(k)
            report = run_experiment(config, corpus=golden_corpus())
            emit_curves(report, tmp_path / str(k))
            outputs[k] = report, {n: (tmp_path / str(k) / n).read_bytes() for n in EMITTED}
        assert outputs[1][0].warnings
        assert outputs[count] == outputs[1]

    def test_on_row_fires_once_per_row_in_row_order(self, cores):
        config = make_config(replicates=3, schedule=None)
        seen = {}
        for k in (1, 2):
            cores(k)
            seen[k] = []
            run_experiment(
                config, corpus=golden_corpus(),
                on_row=lambda row, recs, k=k: seen[k].append((row, recs)),
            )
        assert seen[2] == seen[1]
        assert [row for row, _ in seen[2]] == list(_schedule(config, 72))
        for row, recs in seen[2]:
            assert [r[:5] for r in recs] == [
                ("gcca", combo, "synthetic", row.fraction, rep)
                for rep in range(3)
                for combo in config.combinations
            ]

    def test_helpers_share_the_work_and_stop(self, cores, monkeypatch):
        blas = FakeBlas(3)
        monkeypatch.setattr(experiment, "_blas_threads_setter", lambda: blas)
        run_single = experiment._run_single
        threads = []
        helper_ran = threading.Event()

        def spy(prepared, sample, mds_dim):
            threads.append(threading.current_thread())
            if threading.current_thread() is threading.main_thread():
                helper_ran.wait(timeout=30)
            else:
                helper_ran.set()
            return run_single(prepared, sample, mds_dim)

        monkeypatch.setattr(experiment, "_run_single", spy)
        before = set(threading.enumerate())
        cores(2)
        run_experiment(make_config(replicates=3, schedule=None), corpus=golden_corpus())
        assert set(threading.enumerate()) == before
        assert helper_ran.is_set()
        main = threading.main_thread()
        assert {t is main for t in threads} == {True, False}
        # Every pool thread ran BLAS on one thread; the caller restored 3.
        assert {count for _, count in blas.calls[:-1]} == {1}
        assert blas.calls[-1] == (main, 3) and blas.count == 3

    def test_one_task_leaves_blas_threads_alone(self, cores, monkeypatch):
        # S = 100 % alone draws one distinct sample: it runs on the caller at
        # BLAS's own thread count; forcing one thread on two cores cost
        # paper-scale about a quarter of its replicate rate (25.3 -> 19.1/s).
        blas = FakeBlas(3)
        monkeypatch.setattr(experiment, "_blas_threads_setter", lambda: blas)
        threads = []
        run_single = experiment._run_single

        def spy(prepared, sample, mds_dim):
            threads.append(threading.current_thread())
            return run_single(prepared, sample, mds_dim)

        monkeypatch.setattr(experiment, "_run_single", spy)
        cores(2)
        run_experiment(make_config(replicates=3, schedule=((1.0, 8),)), corpus=golden_corpus())
        assert threads == [threading.main_thread()]
        assert blas.calls == [] and blas.count == 3

    def test_helper_error_is_the_one_serial_order_raises_first(self, cores, monkeypatch):
        # Tasks in serial order: S=0.5 replicates 0, 1 and 2, then S=1. The
        # caller takes S=1 and fails first; a helper, held in replicate 0
        # until then, fails on replicate 1 afterwards, while the caller waits
        # in replicate 2. Serial order reaches replicate 1 first.
        config = make_config(replicates=3)
        corpus = golden_corpus()
        rel_idx = np.flatnonzero(np.isin(corpus.labels, (0, 2, 4)))
        draws = [draw_training_sample(replicate_seed_for(17, 0, rep), rel_idx, 36)
                 for rep in range(3)]
        blas = FakeBlas(3)
        monkeypatch.setattr(experiment, "_blas_threads_setter", lambda: blas)
        run_single = experiment._run_single
        caller_failed, helper_failed = threading.Event(), threading.Event()

        def failing(prepared, sample, mds_dim):
            in_helper = threading.current_thread() is not threading.main_thread()
            if sample.size == rel_idx.size:
                caller_failed.set()
                raise ValueError("the whole pool")
            if np.array_equal(sample, draws[1]):
                if in_helper:
                    helper_failed.set()
                raise ValueError("S=0.5 replicate 1")
            (caller_failed if in_helper else helper_failed).wait(timeout=30)
            return run_single(prepared, sample, mds_dim)

        monkeypatch.setattr(experiment, "_run_single", failing)
        rows = []
        for k in (2, 1):  # serially, the events are already set
            cores(k)
            before = set(threading.enumerate())
            with pytest.raises(ValueError, match="S=0.5 replicate 1"):
                run_experiment(config, corpus=corpus, on_row=lambda row, recs: rows.append(row))
            assert set(threading.enumerate()) == before
            assert helper_failed.is_set()
        assert rows == []
        assert blas.calls[-1] == (threading.main_thread(), 3) and blas.count == 3

    def test_no_task_after_a_failure_starts(self, cores, monkeypatch):
        # A helper fails on the first task while the caller holds the last;
        # the two in between come after the failure and never start.
        monkeypatch.setattr(experiment, "_blas_threads_setter", lambda: FakeBlas(3))
        run_single = experiment._run_single
        started, caller_started, helper_failed = [], threading.Event(), threading.Event()

        def failing(prepared, sample, mds_dim):
            started.append(sample.size)
            if threading.current_thread() is threading.main_thread():
                caller_started.set()
                helper_failed.wait(timeout=30)
                return run_single(prepared, sample, mds_dim)
            caller_started.wait(timeout=30)
            helper_failed.set()
            raise ValueError("first task")

        monkeypatch.setattr(experiment, "_run_single", failing)
        cores(2)
        with pytest.raises(ValueError, match="first task"):
            run_experiment(make_config(replicates=3), corpus=golden_corpus())
        assert sorted(started) == [36, 72]  # S=0.5 and S=1 of the 72-object pool

    @pytest.mark.skipif(
        experiment._blas_threads_setter() is None, reason="numpy's OpenBLAS setter is absent"
    )
    def test_the_callers_blas_thread_count_comes_back(self, cores):
        setter = experiment._blas_threads_setter()
        count = setter(1)
        setter(count)
        cores(2)
        run_experiment(make_config(replicates=2), corpus=golden_corpus())
        assert setter(count) == count


def naive_report(config, corpus):
    """The run stated plainly, as the oracle for ``run_experiment``: every
    replicate builds each view afresh as float64, then fits, projects,
    aligns and scores it. No replay, nothing kept between replicates or
    calls, no pool."""
    def fresh(view):
        domain = corpus.domain(view.domain)
        if view.kind == "text":
            return cosine_dissimilarity(domain.features)
        return graph_geodesic(domain.edges, corpus.n_total, config.cap, config.max_hops).astype(float)

    rel = np.flatnonzero(np.isin(corpus.labels, sorted(config.relation_classes)))
    clf = np.flatnonzero(np.isin(corpus.labels, sorted(config.classifier_classes)))
    labels = corpus.labels[clf]
    ref = next((v for v in config.views if v.kind == "graph"), None)
    schedule = _schedule(config, rel.size)
    accuracies, warnings = {}, []
    for row_index, row in enumerate(schedule):
        for rep in range(config.replicates):
            seed = replicate_seed_for(config.seed, row_index, rep)
            sample = draw_training_sample(seed, rel, row.n_prime)
            models, points = {}, {}
            for view in config.views:
                full = fresh(view)
                train, rows = full[np.ix_(sample, sample)], full[np.ix_(clf, sample)]
                if view.kind == "text" and ref is not None:
                    factor = frobenius_prescale(train, fresh(ref)[np.ix_(sample, sample)])
                    train, rows = train * factor, rows * factor
                models[view.tag] = model = mds_fit(train, row.mds_dim)
                points[view.tag] = mds_out_of_sample(model, rows)
                if model.effective_dim < config.shared_dim:
                    warnings.append(
                        f"replicate {rep}: S={row.fraction:g}: view {view.tag} effective MDS "
                        f"dimension {model.effective_dim} is below shared_dim {config.shared_dim}"
                    )
            d = min(config.shared_dim, *(model.effective_dim for model in models.values()))

            def aligned(maps, tags):
                return [LabeledEmbedding(project(maps, k, points[tag]), labels, tag)
                        for k, tag in enumerate(tags)]

            if config.method == "gcca":
                tags = [v.tag for v in config.views]
                maps = gcca_fit([models[tag] for tag in tags], d, ridge=config.ridge)
                shared = dict(zip(tags, aligned(maps, tags)))
                for tag, (a, b) in config.averaged_views.items():
                    shared[tag] = average_views(shared[a], shared[b], view_tag=tag)
            for combo in config.combinations:
                train_tag, test_tag = combo.split("->")
                if config.method == "gcca":
                    train_view, test_view = shared[train_tag], shared[test_tag]
                else:
                    maps = cca_fit(models[test_tag], models[train_tag], d, ridge=config.ridge)
                    test_view, train_view = aligned(maps, (test_tag, train_tag))
                accuracies.setdefault((combo, row.fraction), []).append(
                    loo_cross_view_accuracy(train_view, test_view, config.kappa)
                )
    return experiment._aggregate(
        accuracies, warnings, method=config.method, feature=config.feature,
        fractions=tuple(row.fraction for row in schedule), combinations=config.combinations,
        m_classifier=int(clf.size), seed=config.seed,
        bootstrap_samples=config.bootstrap_samples, replicates=config.replicates,
    )


@st.composite
def oracle_runs(draw):
    """A small corpus, its geodesic settings, the core count, and two configs
    run one after the other on that corpus object. Schedules end at S = 100 %
    and may hold rows that round to the same n' (the whole pool, or one
    object short of it, where draws repeat); a shared_dim of 7 exceeds the
    text view's effective dimension, so d_shared shrinks."""
    n = draw(st.sampled_from([20, 30, 40]))
    corpus = synthesize_corpus(draw(st.integers(0, 9)), n, 2, 5, 0.8)
    pool = int(np.isin(corpus.labels, (0, 2, 4)).sum())
    cap, max_hops = draw(st.sampled_from([(6, 4), (32, 30), (300, 280)]))

    def config():
        fractions = sorted(draw(st.sets(st.sampled_from([0.3, 0.6, 0.9, 0.96, 0.98]),
                                        max_size=2)) | {1.0})
        n_primes = [int(f * pool + 0.5) for f in fractions]
        shared_dim = draw(st.sampled_from([s for s in (1, 2, 7) if s < min(n_primes)]))
        schedule = tuple(
            (f, draw(st.integers(shared_dim, min(9, n_prime - 1))))
            for f, n_prime in zip(fractions, n_primes)
        )
        views = THREE_VIEWS if draw(st.booleans()) else THREE_VIEWS[:2]
        tags = [v.tag for v in views]
        method = draw(st.sampled_from(["gcca", "cca"]))
        averaged = {"GTF": ("GF", "TF")} if method == "gcca" and "TF" in tags else {}
        combos = [f"{a}->{b}" for a in [*tags, *averaged] for b in tags]
        return make_config(
            views=views, method=method, averaged_views=averaged, shared_dim=shared_dim,
            schedule=schedule, cap=cap, max_hops=max_hops,
            combinations=tuple(draw(st.lists(st.sampled_from(combos), min_size=1,
                                             max_size=3, unique=True))),
            kappa=draw(st.integers(1, 5)), replicates=draw(st.integers(1, 4)),
            seed=draw(st.integers(0, 2**16)),
        )

    return corpus, draw(st.sampled_from([1, 2])), [config(), config()]


class TestNaiveOracle:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(oracle_runs())
    def test_run_gives_the_naive_report(self, one_blas_thread, run):
        corpus, cores, configs = run
        with mock.patch.object(experiment, "_usable_cores", lambda: cores):
            for config in configs:
                report = run_experiment(config, corpus=corpus)
                naive = naive_report(config, corpus)
                assert report.cells == naive.cells
                assert report.warnings == naive.warnings
                assert report == naive
