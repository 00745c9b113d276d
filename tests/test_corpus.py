import json

import numpy as np
import pytest

from manifold_match.align import gcca_fit
from manifold_match.corpus import (
    ROLE_CLASSIFIER,
    ROLE_RELATION,
    ClassSplitSpec,
    DomainData,
    LabeledCorpus,
    apply_class_split,
    load_corpus,
    save_corpus,
    synthesize_corpus,
)
from manifold_match.dissimilarity import cosine_dissimilarity, graph_geodesic
from manifold_match.errors import FormatError, IntegrityError, ValidationError
from manifold_match.mds import mds_fit

# class sizes of the five-class reference corpus used in the protocol
REFERENCE_CLASS_SIZES = {0: 119, 1: 372, 2: 270, 3: 191, 4: 430}


def reference_sized_corpus():
    labels = np.concatenate(
        [np.full(count, label) for label, count in sorted(REFERENCE_CLASS_SIZES.items())]
    )
    rng = np.random.default_rng(0)
    labels = labels[rng.permutation(labels.size)]
    n = labels.size
    features = rng.normal(size=(n, 3))
    ids = tuple(f"doc{i}" for i in range(n))
    domains = (
        DomainData("english", features=features),
        DomainData("french", features=features + 1.0),
    )
    return LabeledCorpus(ids, labels, np.full(n, ROLE_RELATION), domains)


def small_corpus():
    ids = ("a", "b", "c")
    labels = np.array([0, 1, 0])
    roles = np.array([ROLE_RELATION, ROLE_CLASSIFIER, ROLE_RELATION])
    features = np.array([[1.0, 0.0, 0.5, 2.0], [0.0, 1.0, 1.5, -1.0], [2.0, 2.0, 0.0, 0.25]])
    edges = np.array([[0, 1], [1, 2]])
    domains = (
        DomainData("d0", features=features, edges=edges),
        DomainData("d1", features=features * 2.0),
    )
    return LabeledCorpus(ids, labels, roles, domains)


class TestLabeledCorpus:
    def test_small_fixture_field_by_field(self):
        corpus = small_corpus()
        assert corpus.n_total == 3
        assert corpus.n_relation == 2
        assert corpus.n_classifier == 1
        assert corpus.object_ids == ("a", "b", "c")
        assert np.array_equal(corpus.relation_indices(), [0, 2])
        assert np.array_equal(corpus.classifier_indices(), [1])
        assert corpus.domain("d0").supported_kinds() == {"graph", "text"}
        assert corpus.domain("d1").supported_kinds() == {"text"}
        assert corpus.class_sizes() == {0: 2, 1: 1}

    def test_zero_objects_rejected(self):
        with pytest.raises(IntegrityError, match="zero objects"):
            LabeledCorpus((), np.array([], dtype=int), np.array([]), (DomainData("d"),))

    def test_feature_row_count_mismatch(self):
        with pytest.raises(IntegrityError, match="feature rows"):
            LabeledCorpus(
                ("a", "b"),
                np.array([0, 1]),
                np.array([ROLE_RELATION, ROLE_RELATION]),
                (DomainData("d", features=np.zeros((3, 2))),),
            )

    def test_edge_endpoint_out_of_range(self):
        with pytest.raises(IntegrityError, match="endpoints"):
            LabeledCorpus(
                ("a", "b"),
                np.array([0, 1]),
                np.array([ROLE_RELATION, ROLE_RELATION]),
                (DomainData("d", edges=np.array([[0, 2]])),),
            )

    def test_duplicate_ids_rejected(self):
        with pytest.raises(IntegrityError, match="unique"):
            LabeledCorpus(
                ("a", "a"),
                np.array([0, 1]),
                np.array([ROLE_RELATION, ROLE_RELATION]),
                (DomainData("d"),),
            )


class TestRoundTrip:
    def test_save_load_identical(self, tmp_path):
        corpus = synthesize_corpus(3, 30, 2, 3, 0.2)
        # attach a precomputed dissimilarity so that path round-trips too
        d0 = corpus.domains[0]
        dm = graph_geodesic(
            d0.edges, corpus.n_total, cap=6, domain_name=d0.name,
            object_index=corpus.object_ids,
        )
        corpus = LabeledCorpus(
            corpus.object_ids,
            corpus.labels,
            corpus.roles,
            (
                DomainData(d0.name, d0.features, d0.edges, {"graph": dm}),
                corpus.domains[1],
            ),
        )
        save_corpus(corpus, tmp_path / "corpus")
        back = load_corpus(tmp_path / "corpus")

        assert back.object_ids == corpus.object_ids
        assert np.array_equal(back.labels, corpus.labels)
        assert np.array_equal(back.roles, corpus.roles)
        assert len(back.domains) == len(corpus.domains)
        for da, db in zip(back.domains, corpus.domains):
            assert da.name == db.name
            assert np.array_equal(da.features, db.features)
            assert np.array_equal(da.edges, db.edges)
            assert set(da.dissimilarities) == set(db.dissimilarities)
            for kind in da.dissimilarities:
                assert np.array_equal(
                    da.dissimilarities[kind].values, db.dissimilarities[kind].values
                )
                assert da.dissimilarities[kind].cap == db.dissimilarities[kind].cap

    def test_double_roundtrip_stable(self, tmp_path):
        corpus = synthesize_corpus(4, 20, 2, 2, 0.0)
        save_corpus(corpus, tmp_path / "c1")
        save_corpus(load_corpus(tmp_path / "c1"), tmp_path / "c2")
        m1 = (tmp_path / "c1" / "manifest.json").read_bytes()
        m2 = (tmp_path / "c2" / "manifest.json").read_bytes()
        assert m1 == m2


class TestLoaderErrors:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FormatError, match="manifest"):
            load_corpus(tmp_path)

    def test_malformed_manifest_json(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(FormatError):
            load_corpus(tmp_path)

    def test_zero_objects(self, tmp_path):
        manifest = {"objects": {"ids": [], "labels": [], "roles": []}, "domains": []}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(IntegrityError, match="zero objects"):
            load_corpus(tmp_path)

    def test_label_count_mismatch(self, tmp_path):
        manifest = {"objects": {"ids": ["a", "b"], "labels": [0]}, "domains": []}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(IntegrityError, match="labels"):
            load_corpus(tmp_path)

    def test_feature_parse_error_names_line(self, tmp_path):
        corpus = small_corpus()
        save_corpus(corpus, tmp_path)
        bad = tmp_path / "d0" / "features.tsv"
        lines = bad.read_text().splitlines()
        lines[1] = lines[1] + "\tbogus"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="features.tsv:2"):
            load_corpus(tmp_path)

    def test_unknown_edge_id(self, tmp_path):
        corpus = small_corpus()
        save_corpus(corpus, tmp_path)
        edges = tmp_path / "d0" / "edges.tsv"
        edges.write_text(edges.read_text() + "a\tzz\n")
        with pytest.raises(IntegrityError, match="zz"):
            load_corpus(tmp_path)

    def test_feature_row_count_checked(self, tmp_path):
        corpus = small_corpus()
        save_corpus(corpus, tmp_path)
        features = tmp_path / "d0" / "features.tsv"
        lines = features.read_text().splitlines()
        features.write_text("\n".join(lines[:2]) + "\n")
        with pytest.raises(IntegrityError, match="feature rows"):
            load_corpus(tmp_path)


class TestClassSplit:
    def test_reference_split_counts(self):
        corpus = reference_sized_corpus()
        split = ClassSplitSpec(frozenset({0, 2, 4}), frozenset({1, 3}))
        out = apply_class_split(corpus, split)
        assert out.n_relation == 819
        assert out.n_classifier == 563
        assert out.n_total == 1382

    def test_recounted_split_with_drop(self):
        # {0,1} vs {2,3}: class 4's objects are dropped
        corpus = reference_sized_corpus()
        split = ClassSplitSpec(frozenset({0, 1}), frozenset({2, 3}))
        out = apply_class_split(corpus, split)
        assert out.n_relation == 119 + 372
        assert out.n_classifier == 270 + 191
        assert out.n_total == 1382 - 430
        assert 4 not in out.class_sizes()

    def test_two_class_toy_roles_equal_labels(self):
        corpus = synthesize_corpus(5, 20, 2, 2, 0.0)
        out = apply_class_split(corpus, ClassSplitSpec(frozenset({0}), frozenset({1})))
        expected = np.where(out.labels == 0, ROLE_RELATION, ROLE_CLASSIFIER)
        assert np.array_equal(out.roles, expected)

    def test_order_preserved_within_roles(self):
        corpus = reference_sized_corpus()
        split = ClassSplitSpec(frozenset({0, 1}), frozenset({2, 3}))
        out = apply_class_split(corpus, split)
        kept = [i for i in corpus.object_ids if i in set(out.object_ids)]
        assert list(out.object_ids) == kept

    def test_overlapping_sets_rejected(self):
        with pytest.raises(ValidationError, match="overlap"):
            ClassSplitSpec(frozenset({0, 1}), frozenset({1, 2}))

    def test_unknown_class_rejected(self):
        corpus = small_corpus()
        with pytest.raises(ValidationError, match="absent"):
            apply_class_split(corpus, ClassSplitSpec(frozenset({0}), frozenset({9})))

    def test_edges_reindexed(self):
        corpus = synthesize_corpus(8, 40, 2, 4, 0.1)
        out = apply_class_split(corpus, ClassSplitSpec(frozenset({0}), frozenset({1})))
        for domain in out.domains:
            if domain.edges is not None and domain.edges.size:
                assert domain.edges.max() < out.n_total

    def test_precomputed_dissimilarities_sliced(self):
        corpus = small_corpus()
        dm = cosine_dissimilarity(
            corpus.domains[0].features, object_index=corpus.object_ids
        )
        domains = (
            DomainData("d0", corpus.domains[0].features, corpus.domains[0].edges,
                       {"text": dm}),
            corpus.domains[1],
        )
        corpus = LabeledCorpus(corpus.object_ids, corpus.labels, corpus.roles, domains)
        out = apply_class_split(corpus, ClassSplitSpec(frozenset({0}), frozenset({1})))
        sliced = out.domains[0].dissimilarities["text"]
        assert sliced.n == out.n_total
        keep = [0, 1, 2]  # nothing dropped here, all classes covered
        assert np.allclose(sliced.values, dm.values[np.ix_(keep, keep)])


class TestSynthesize:
    def test_deterministic(self):
        a = synthesize_corpus(7, 30, 2, 3, 0.4)
        b = synthesize_corpus(7, 30, 2, 3, 0.4)
        assert a.object_ids == b.object_ids
        assert np.array_equal(a.labels, b.labels)
        for da, db in zip(a.domains, b.domains):
            assert np.array_equal(da.features, db.features)
            assert np.array_equal(da.edges, db.edges)

    def test_zero_noise_equal_rank(self):
        corpus = synthesize_corpus(9, 40, 3, 4, 0.0)
        ranks = {np.linalg.matrix_rank(d.features) for d in corpus.domains}
        assert len(ranks) == 1

    def test_zero_noise_identical_geometry_up_to_scale(self):
        corpus = synthesize_corpus(10, 25, 2, 3, 0.0)

        def distances(f):
            diff = f[:, None, :] - f[None, :, :]
            return np.sqrt((diff * diff).sum(axis=-1))

        d0 = distances(corpus.domains[0].features)
        d1 = distances(corpus.domains[1].features)
        ratio = np.linalg.norm(d1) / np.linalg.norm(d0)
        assert np.allclose(d1, ratio * d0, atol=1e-8)

    def test_all_roles_relation_learning(self):
        corpus = synthesize_corpus(11, 15, 2, 3, 0.5)
        assert np.all(corpus.roles == ROLE_RELATION)

    def test_graphs_connected(self):
        corpus = synthesize_corpus(12, 50, 2, 5, 1.0)
        for domain in corpus.domains:
            dm = graph_geodesic(domain.edges, corpus.n_total, cap=99, max_hops=98)
            assert dm.values.max() < 99

    def test_validation(self):
        with pytest.raises(ValidationError):
            synthesize_corpus(0, 3, 2, 4, 0.0)  # fewer objects than classes
        with pytest.raises(ValidationError):
            synthesize_corpus(0, 10, 1, 2, 0.0)
        with pytest.raises(ValidationError):
            synthesize_corpus(0, 10, 2, 1, 0.0)
        with pytest.raises(ValidationError):
            synthesize_corpus(0, 10, 2, 2, -0.1)

    def test_three_domain_gcca_top_correlation(self):
        # shared latent structure forces a high leading correlation
        corpus = synthesize_corpus(7, 60, 3, 3, 0.1)
        embeddings = [
            mds_fit(cosine_dissimilarity(domain.features), 4).embedding
            for domain in corpus.domains
        ]
        d = min(e.shape[1] for e in embeddings)
        maps = gcca_fit(embeddings, min(d, 3))
        assert maps.correlations[0] > 0.9
