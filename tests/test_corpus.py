import json
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import traced_peak
from manifold_match import corpus as corpus_module
from manifold_match import formats
from manifold_match.align import gcca_fit
from manifold_match.cli import main
from manifold_match.corpus import (
    DomainData,
    LabeledCorpus,
    load_corpus,
    register_dissimilarity,
    save_corpus,
    synthesize_corpus,
)
from manifold_match.dissimilarity import cosine_dissimilarity, graph_geodesic
from manifold_match.errors import ConfigError, FormatError, IntegrityError, ValidationError
from manifold_match.experiment import (
    ExperimentConfig, ViewSpec, _prepare, emit_curves, run_experiment,
)
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
    return LabeledCorpus(ids, labels, domains)


def small_corpus():
    ids = ("a", "b", "c")
    labels = np.array([0, 1, 0])
    features = np.array([[1.0, 0.0, 0.5, 2.0], [0.0, 1.0, 1.5, -1.0], [2.0, 2.0, 0.0, 0.25]])
    edges = np.array([[0, 1], [1, 2]])
    domains = (
        DomainData("d0", features=features, edges=edges),
        DomainData("d1", features=features * 2.0),
    )
    return LabeledCorpus(ids, labels, domains)


class TestLabeledCorpus:
    def test_small_fixture_field_by_field(self):
        corpus = small_corpus()
        assert corpus.n_total == 3
        assert corpus.object_ids == ("a", "b", "c")
        assert np.array_equal(corpus.labels, [0, 1, 0])
        assert corpus.domain("d0").edges is not None
        assert corpus.domain("d1").edges is None
        assert corpus.class_sizes() == {0: 2, 1: 1}

    def test_zero_objects_rejected(self):
        with pytest.raises(IntegrityError, match="zero objects"):
            LabeledCorpus((), np.array([], dtype=int), (DomainData("d"),))

    def test_feature_row_count_mismatch(self):
        with pytest.raises(IntegrityError, match="features have shape"):
            LabeledCorpus(
                ("a", "b"),
                np.array([0, 1]),
                (DomainData("d", features=np.zeros((3, 2))),),
            )

    def test_edge_endpoint_out_of_range(self):
        with pytest.raises(IntegrityError, match="endpoints"):
            LabeledCorpus(
                ("a", "b"),
                np.array([0, 1]),
                (DomainData("d", edges=np.array([[0, 2]])),),
            )

    @pytest.mark.parametrize(
        "edges",
        [[[0, 1.5], [1, 2]], [[0, 1, 2]], [0, 1], [[True, False]]],
        ids=["float-pair", "three-columns", "flat", "bool"],
    )
    def test_edges_must_be_pairs_of_integers(self, edges):
        # A float endpoint is not truncated to the edge it rounds down to.
        with pytest.raises(ValidationError, match="domain 'd' edges .* not an \\(E, 2\\) array"):
            LabeledCorpus(("a", "b", "c"), np.array([0, 1, 0]), (DomainData("d", edges=edges),))

    @pytest.mark.parametrize(
        "features", [[[1.0, "a"], [2.0, 3.0]], [[1 + 1j, 0.0], [0.0, 1.0]]], ids=["str", "complex"]
    )
    def test_features_must_be_real_numbers(self, features):
        with pytest.raises(ValidationError, match="domain 'd' features are not real numbers"):
            LabeledCorpus(("a", "b"), np.array([0, 1]), (DomainData("d", features=features),))

    def test_integer_edges_and_features_pass(self):
        domain = DomainData("d", features=[[1, 0], [0, 1]], edges=np.array([[0, 1]], np.uint8))
        LabeledCorpus(("a", "b"), np.array([0, 1]), (domain,))

    def test_registered_matrix_size_mismatch_names_the_file(self, tmp_path):
        save_corpus(small_corpus(), tmp_path)
        register_dissimilarity(tmp_path, "d0", "text", np.ones((2, 2)) - np.eye(2))
        corpus = load_corpus(tmp_path)
        with pytest.raises(IntegrityError,
                           match=r"d0/dissim_text\.tsv: dissimilarities have shape \(2, 2\), "
                                 r"expected \(3, 3\)$"):
            corpus.view("d0", "text", 6, 4)

    def test_dissimilarity_size_mismatch(self):
        message = r"'d' graph dissimilarities have shape \(2, 2\), expected \(3, 3\)$"
        with pytest.raises(IntegrityError, match=message):
            LabeledCorpus(
                ("a", "b", "c"),
                np.array([0, 1, 0]),
                (DomainData("d", dissimilarities={"graph": np.ones((2, 2)) - np.eye(2)}),),
            )

    def test_in_memory_dissimilarity_checked_once(self):
        raw = np.array([[0.0, 1.0], [1.0 + 1e-13, 0.0]])
        kept = DomainData("d", dissimilarities={"text": raw}).dissimilarities["text"]
        assert np.array_equal(kept, kept.T) and not kept.flags.writeable
        assert raw.flags.writeable
        with pytest.raises(ValidationError, match="domain 'd' text dissimilarity .*negative"):
            DomainData("d", dissimilarities={"text": -raw})

    def test_duplicate_domain_name_rejected(self):
        with pytest.raises(IntegrityError, match="^duplicate domain name 'd'$"):
            LabeledCorpus(("a", "b"), np.array([0, 1]), (DomainData("d"), DomainData("d")))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(IntegrityError, match="unique"):
            LabeledCorpus(
                ("a", "a"),
                np.array([0, 1]),
                (DomainData("d"),),
            )

    @pytest.mark.parametrize("ids, shown", [
        ((1, None, 2.5), "1"), (("a", None, "c"), "None"), (["a", "b", b"c"], "b'c'"),
    ], ids=["numbers", "none", "bytes"])
    def test_non_string_object_id_rejected(self, ids, shown):
        # The manifest's rule: an id is a string, kept as given, not str() of a value.
        with pytest.raises(ValidationError, match=f"object id {re.escape(shown)} is not a string"):
            LabeledCorpus(ids, np.array([0, 1, 0]), (DomainData("d"),))

    @pytest.mark.parametrize("labels, shown", [
        ([0, True, 1], "True"), ((0, 1, False), "False"), ([0, 1.0, 1], "1.0"),
        ([0, "1", 1], "'1'"), ([0, -1, 1], "-1"), ([0, 2**63, 1], str(2**63)),
        (np.array([0, -1, 0]), "-1"), (np.array([0, 2**63, 1], dtype=np.uint64), str(2**63)),
    ], ids=["list-bool", "tuple-bool", "float", "string", "negative", "too-large",
            "array-negative", "array-too-large"])
    def test_label_outside_the_manifest_rule_rejected(self, labels, shown):
        # The manifest's rule: an int64 that is not negative and not a bool.
        with pytest.raises(ValidationError,
                           match=rf"label {re.escape(shown)} is not a nonnegative integer"):
            LabeledCorpus(("a", "b", "c"), labels, (DomainData("d"),))

    @pytest.mark.parametrize("labels, dtype", [
        (np.array([0.0, 1.0, 0.0]), "float64"), (np.array([True, False, True]), "bool"),
    ], ids=["float", "bool"])
    def test_label_array_of_another_type_rejected(self, labels, dtype):
        with pytest.raises(ValidationError, match=f"labels of type {dtype} are not integer"):
            LabeledCorpus(("a", "b", "c"), labels, (DomainData("d"),))

    @pytest.mark.parametrize("ids, labels", [
        ("abc", [0, 1, 0]), (("a", "b", "c"), "010"), (("a", "b", "c"), {0: 0, 1: 1, 2: 0}),
    ], ids=["ids-string", "labels-string", "labels-dict"])
    def test_ids_or_labels_that_are_not_a_list_or_tuple_rejected(self, ids, labels):
        # A string or dict would otherwise be read as its characters or keys.
        with pytest.raises(TypeError):
            LabeledCorpus(ids, labels, (DomainData("d"),))

    def test_lists_of_ids_and_labels_are_kept_as_a_tuple_and_int64(self):
        corpus = LabeledCorpus(["a", "b", "c"], [0, 2, 0], (DomainData("d"),))
        assert corpus.object_ids == ("a", "b", "c")
        assert corpus.labels.dtype == np.int64 and corpus.labels.tolist() == [0, 2, 0]
        unsigned = LabeledCorpus(("a", "b", "c"), np.array([0, 2, 0], np.uint8), (DomainData("d"),))
        assert unsigned.labels.dtype == np.int64 and unsigned.labels.tolist() == [0, 2, 0]


class TestImmutable:
    def test_features_edges_and_labels_are_read_only_copies(self):
        features = np.eye(3)
        edges = np.array([[0, 1], [1, 2]])
        domain = DomainData("d0", features=features, edges=edges)
        corpus = LabeledCorpus(("a", "b", "c"), np.array([0, 1, 0]), (domain,))
        features[0, 0] = 5.0
        edges[0, 0] = 2
        assert corpus.domains[0].features[0, 0] == 1.0
        assert corpus.domains[0].edges[0, 0] == 0
        for array in (corpus.domains[0].features, corpus.domains[0].edges, corpus.labels):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_loaded_arrays_are_read_only(self, tmp_path):
        save_corpus(small_corpus(), tmp_path)
        domain = load_corpus(tmp_path).domain("d0")
        with pytest.raises(ValueError, match="read-only"):
            domain.features[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            domain.edges[0, 0] = 2


class TestDomainNames:
    @pytest.mark.parametrize("name", ["..", ".", "a/b", "x\n"])
    def test_a_name_that_is_not_one_path_component_is_refused(self, tmp_path, name):
        # By the constructor, so no corpus holding it can be saved.
        with pytest.raises(ValidationError,
                           match=f"^name {re.escape(repr(name))} is not a safe file-name"):
            DomainData(name)
        assert list(tmp_path.rglob("*")) == []
        # And by load_corpus, in a manifest written by hand.
        root = tmp_path / "corpus"
        save_corpus(small_corpus(), root)
        path = root / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["domains"][0]["name"] = name
        path.write_text(json.dumps(manifest))
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        with pytest.raises(FormatError, match=r"manifest\.json: missing or malformed field "
                           rf"'domains\[0\]\.name': name {re.escape(repr(name))} is not a safe"):
            load_corpus(root)
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    def test_manifest_name_cannot_send_writes_outside_the_corpus(self, tmp_path, capsys):
        root = tmp_path / "outer" / "inner" / "corpus"
        save_corpus(small_corpus(), root)
        path = root / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["domains"][0]["name"] = "../../escaped"
        path.write_text(json.dumps(manifest))
        (tmp_path / "outer" / "escaped").mkdir()  # where the write would land
        before = sorted(tmp_path.rglob("*"))
        argv = ["dissim", str(root), "--domain", "../../escaped", "--kind", "text"]
        assert main(argv) == 2
        assert ("missing or malformed field 'domains[0].name': name '../../escaped' is not "
                "a safe file-name component") in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before
        assert json.loads(path.read_text()) == manifest
        with pytest.raises(FormatError, match=r"'domains\[0\]\.name': name '\.\./\.\./escaped'"):
            register_dissimilarity(root, "../../escaped", "text", np.zeros((3, 3)))
        assert sorted(tmp_path.rglob("*")) == before

    def test_register_rejects_a_domain_the_manifest_lacks(self, tmp_path):
        root = tmp_path / "corpus"
        save_corpus(small_corpus(), root)
        (root / "ghost").mkdir()
        before = sorted(tmp_path.rglob("*"))
        with pytest.raises(ValidationError, match="no domain named 'ghost'"):
            register_dissimilarity(root, "ghost", "text", np.zeros((3, 3)))
        assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("kind", ["", "a\tb", "a/b"], ids=["empty", "tab", "slash"])
class TestDissimilarityKinds:
    # A kind names a matrix file, dissim_<kind>.tsv, so it keeps the name rule.
    def test_register_refuses_a_kind_that_is_not_a_name(self, tmp_path, kind):
        root = tmp_path / "corpus"
        save_corpus(small_corpus(), root)
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        with pytest.raises(ValidationError,
                           match=f"^name {re.escape(repr(kind))} is not a safe file-name"):
            register_dissimilarity(root, "d0", kind, np.zeros((3, 3)))
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    def test_manifest_kind_is_a_format_error_naming_the_field(self, tmp_path, kind):
        root = tmp_path / "corpus"
        save_corpus(small_corpus(), root)
        assert register_dissimilarity(root, "d0", "text", np.zeros((3, 3))).is_file()
        path = root / "manifest.json"
        manifest = json.loads(path.read_text())
        entries = manifest["domains"][0]["dissimilarities"]
        entries[kind] = entries.pop("text")
        path.write_text(json.dumps(manifest))
        field = re.escape(repr(f"domains[0].dissimilarities.{kind}"))
        with pytest.raises(FormatError, match=rf"manifest\.json: missing or malformed field "
                           rf"{field}: name {re.escape(repr(kind))} is not a safe"):
            load_corpus(root)

    def test_in_memory_kind_is_refused(self, kind):
        with pytest.raises(ValidationError,
                           match=f"^name {re.escape(repr(kind))} is not a safe file-name"):
            DomainData("d", dissimilarities={kind: np.zeros((3, 3))})


class TestObjectIds:
    @pytest.mark.parametrize("oid", [" a", "a ", "a\tb", "a\nb", "a\rb", "", "\ud800"])
    def test_an_id_that_is_not_one_field_is_refused(self, tmp_path, oid):
        # By the constructor, so no corpus holding it can be saved.
        edges = np.array([[0, 1], [1, 0]])
        rule = f"object id {re.escape(repr(oid))} is not one tab-separated field$"
        with pytest.raises(ValidationError, match=f"^{rule}"):
            LabeledCorpus((oid, "z"), np.array([0, 1]), (DomainData("d", edges=edges),))
        assert list(tmp_path.iterdir()) == []
        # And by load_corpus, in a manifest written by hand.
        root = tmp_path / "corpus"
        save_corpus(small_corpus(), root)
        path = root / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["objects"]["ids"][1] = oid
        path.write_text(json.dumps(manifest))
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        where = r"manifest\.json: missing or malformed field 'objects\.ids': "
        with pytest.raises(FormatError, match=where + rule):
            load_corpus(root)
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


class TestRoundTrip:
    def test_save_load_identical(self, tmp_path):
        corpus = synthesize_corpus(3, 30, 2, 3, 0.2)
        # attach a precomputed dissimilarity so that path round-trips too
        d0 = corpus.domains[0]
        dm = graph_geodesic(d0.edges, corpus.n_total, cap=6)
        corpus = LabeledCorpus(
            corpus.object_ids,
            corpus.labels,
            (
                DomainData(d0.name, d0.features, d0.edges, {"graph": dm}),
                corpus.domains[1],
            ),
        )
        save_corpus(corpus, tmp_path / "corpus")
        back = load_corpus(tmp_path / "corpus")

        assert back.object_ids == corpus.object_ids
        assert np.array_equal(back.labels, corpus.labels)
        assert len(back.domains) == len(corpus.domains)
        for da, db in zip(back.domains, corpus.domains):
            assert da.name == db.name
            assert np.array_equal(da.features, db.features)
            assert np.array_equal(da.edges, db.edges)
            assert set(da.dissimilarities) == set(db.dissimilarities)
            for kind in da.dissimilarities:
                assert np.array_equal(da.dissimilarities[kind], db.dissimilarities[kind])

    def test_double_roundtrip_stable(self, tmp_path):
        corpus = synthesize_corpus(4, 20, 2, 2, 0.0)
        save_corpus(corpus, tmp_path / "c1")
        save_corpus(load_corpus(tmp_path / "c1"), tmp_path / "c2")
        m1 = (tmp_path / "c1" / "manifest.json").read_bytes()
        m2 = (tmp_path / "c2" / "manifest.json").read_bytes()
        assert m1 == m2


@pytest.fixture
def registered(tmp_path):
    """A saved corpus with domain0's graph and domain1's text matrices registered."""
    root = tmp_path / "corpus"
    corpus = synthesize_corpus(21, 60, 2, 5, 0.3)
    save_corpus(corpus, root)
    d0, d1 = corpus.domains
    geodesic = graph_geodesic(d0.edges, corpus.n_total, 32, 30)
    register_dissimilarity(root, d0.name, "graph", geodesic, cap=32, max_hops=30)
    register_dissimilarity(root, d1.name, "text", cosine_dissimilarity(d1.features))
    return root


@pytest.fixture
def reads(monkeypatch):
    """The registered matrix files read while the test runs, in order."""
    paths = []
    original = corpus_module.load_dissimilarity_tsv

    def counting(path, *args, **kwargs):
        paths.append(f"{Path(path).parent.name}/{Path(path).name}")
        return original(path, *args, **kwargs)

    monkeypatch.setattr(corpus_module, "load_dissimilarity_tsv", counting)
    return paths


class TestReadOnFirstUse:
    def test_load_reads_no_matrix(self, registered, reads):
        corpus = load_corpus(registered)
        assert "graph" in corpus.domain("domain0").dissimilarities
        assert list(corpus.domain("domain1").dissimilarities) == ["text"]
        assert reads == []

    def test_dissim_reads_none(self, registered, reads, tmp_path):
        assert main(["dissim", str(registered), "--domain", "domain1", "--kind", "graph"]) == 0
        out = tmp_path / "text.tsv"
        argv = ["dissim", str(registered), "--domain", "domain0", "--kind", "text"]
        assert main(argv + ["--out", str(out)]) == 0
        assert reads == []

    def test_experiment_reads_the_matrix_its_views_use_once(self, registered, reads):
        config = ExperimentConfig(
            views=(ViewSpec("GE", "domain0", "graph"), ViewSpec("GF", "domain1", "graph")),
            combinations=("GF->GE",),
            relation_classes=(0, 2, 4),
            classifier_classes=(1, 3),
            shared_dim=2,
            replicates=1,
            schedule=((1.0, 8),),
            cap=32,
            max_hops=30,
        )
        corpus = load_corpus(registered)
        run_experiment(config, corpus=corpus)
        assert reads == ["domain0/dissim_graph.tsv"]
        run_experiment(config, corpus=corpus)
        assert reads == ["domain0/dissim_graph.tsv"]

    def test_save_keeps_recorded_settings(self, registered, tmp_path):
        save_corpus(load_corpus(registered), tmp_path / "copy")
        manifest = json.loads((tmp_path / "copy" / "manifest.json").read_text())
        entries = [domain["dissimilarities"] for domain in manifest["domains"]]
        assert entries == [
            {"graph": {"file": "domain0/dissim_graph.tsv", "cap": 32, "max_hops": 30}},
            {"text": {"file": "domain1/dissim_text.tsv", "cap": None, "max_hops": None}},
        ]

    def test_manifest_roles_key_ignored(self, tmp_path):
        # Older manifests carry a per-object "roles" list.
        save_corpus(small_corpus(), tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        assert "roles" not in manifest["objects"]
        manifest["objects"]["roles"] = ["relation_learning"] * 3
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        corpus = load_corpus(tmp_path)
        assert corpus.object_ids == ("a", "b", "c")
        assert np.array_equal(corpus.labels, [0, 1, 0])


class TestView:
    def test_registered_matrix_checked_against_recorded_settings(self, registered):
        corpus = load_corpus(registered)
        d0 = corpus.domain("domain0")
        assert corpus.view("domain0", "graph", 32, 30) is d0.dissimilarities["graph"]
        with pytest.raises(ConfigError, match="was built with cap=32, max_hops=30, but "
                           "the config asks for cap=6, max_hops=4"):
            corpus.view("domain0", "graph", 6, 4)
        # only graph matrices record settings
        text = corpus.view("domain1", "text", 6, 4)
        assert text is corpus.domain("domain1").dissimilarities["text"]
        assert corpus._views == {}

    def test_build_makes_a_new_view_whatever_is_registered(self, registered):
        corpus = load_corpus(registered)
        d0, d1 = corpus.domains
        # domain0's graph is registered at 32/30, which view holds to.
        graph = corpus.build("domain0", "graph", 6, 4)
        assert np.array_equal(graph, graph_geodesic(d0.edges, corpus.n_total, 6, 4))
        assert corpus.build("domain0", "graph", 6, 4) is not graph
        text = corpus.build("domain1", "text", 6, 4)
        assert np.array_equal(text, cosine_dissimilarity(d1.features))
        assert corpus.build("domain1", "text", 6, 4) is not text
        assert text is not d1.dissimilarities["text"]
        assert corpus._views == {}
        # view returns a registered matrix, and keeps what build returns.
        assert corpus.view("domain1", "text", 6, 4) is d1.dissimilarities["text"]
        built = corpus.view("domain0", "text", 6, 4)
        assert corpus.view("domain0", "text", 6, 4) is built
        assert np.array_equal(built, corpus.build("domain0", "text", 6, 4))

    def test_in_memory_matrix_is_not_compared(self):
        corpus = small_corpus()
        d0 = corpus.domains[0]
        dm = graph_geodesic(d0.edges, corpus.n_total, cap=6)
        domain = DomainData(d0.name, d0.features, d0.edges, {"graph": dm})
        corpus = LabeledCorpus(corpus.object_ids, corpus.labels, (domain,))
        assert np.array_equal(corpus.view(d0.name, "graph", 32, 30), dm)

    def test_built_views_are_kept_per_setting(self):
        corpus = synthesize_corpus(5, 40, 2, 3, 0.2)
        graph = corpus.view("domain0", "graph", 6, 4)
        assert corpus.view("domain0", "graph", 6, 4) is graph
        assert np.array_equal(graph, graph_geodesic(corpus.domains[0].edges, 40, 6, 4))
        assert corpus.view("domain0", "graph", 6, 3) is not graph
        text = corpus.view("domain1", "text", 6, 4)
        assert corpus.view("domain1", "text", 32, 30) is text
        assert np.array_equal(text, cosine_dissimilarity(corpus.domains[1].features))

    def test_built_geodesic_view_is_narrow(self):
        # A kept geodesic view holds one byte per entry at cap <= 255, and its
        # build never holds the n x n float64 array a float result would be.
        corpus = synthesize_corpus(31, 1382, 2, 5, 0.8)
        n = corpus.n_total
        peak, graph = traced_peak(lambda: corpus.view("domain0", "graph", 32, 30))
        assert peak < 6 * n * n
        assert graph.nbytes < 2 * n * n
        assert graph.dtype == np.uint8

    def test_unknown_kind_or_missing_source_is_config_error(self):
        corpus = synthesize_corpus(5, 40, 2, 3, 0.2)
        with pytest.raises(ConfigError, match="unknown dissimilarity kind 'audio'"):
            corpus.view("domain0", "audio", 6, 4)
        bare = LabeledCorpus(corpus.object_ids, corpus.labels, (DomainData("d"),))
        with pytest.raises(ConfigError, match="domain 'd' has no features"):
            bare.view("d", "text", 6, 4)
        with pytest.raises(ConfigError, match="domain 'd' has no edges"):
            bare.view("d", "graph", 6, 4)


class TestHopCounts:
    """A graph matrix of exact hop counts is held as a built geodesic view is."""

    def test_registered_graph_matrix_reads_back_as_hop_counts(self, registered):
        corpus = load_corpus(registered)
        n = corpus.n_total
        graph = corpus.domain("domain0").dissimilarities["graph"]
        built = graph_geodesic(corpus.domains[0].edges, n, 32, 30)
        assert graph.dtype == built.dtype == np.uint8
        assert np.array_equal(graph, built)
        assert graph.nbytes < 2 * n * n
        assert not graph.flags.writeable
        assert corpus.view("domain0", "graph", 32, 30) is graph

    @pytest.mark.parametrize("case", ["fraction", "above-cap", "no-cap"])
    def test_registered_graph_matrix_of_other_values_stays_float(self, tmp_path, case):
        corpus = synthesize_corpus(21, 60, 2, 5, 0.3)
        values = graph_geodesic(corpus.domains[0].edges, 60, 32, 30).astype(float)
        settings = {"cap": 32, "max_hops": 30}
        if case == "fraction":
            values[0, 1] = values[1, 0] = 2.5
        elif case == "above-cap":
            values[0, 1] = values[1, 0] = 33.0
        else:
            settings = {}
        save_corpus(corpus, tmp_path)
        register_dissimilarity(tmp_path, "domain0", "graph", values, **settings)
        graph = load_corpus(tmp_path).domain("domain0").dissimilarities["graph"]
        assert graph.dtype == np.float64
        assert np.array_equal(graph, values)

    @pytest.mark.parametrize("recorded", [True, False], ids=["cap-recorded", "none-recorded"])
    def test_geodesic_registered_by_dissim_reads_back_as_bytes(self, tmp_path, recorded):
        # Its twin holds the counts as bytes, so they read back as built
        # whether or not the manifest records the settings.
        corpus = synthesize_corpus(21, 60, 2, 5, 0.3)
        n = corpus.n_total
        save_corpus(corpus, tmp_path)
        assert main(["dissim", str(tmp_path), "--domain", "domain0", "--kind", "graph"]) == 0
        twin = tmp_path / "domain0" / ".dissim_graph.tsv.twin"
        assert twin.stat().st_size == formats._TWIN_HEAD.size + n * n
        if not recorded:
            _edit_manifest(tmp_path, lambda m: m["domains"][0]["dissimilarities"].update(
                graph={"file": "domain0/dissim_graph.tsv"}))
        graph = load_corpus(tmp_path).domain("domain0").dissimilarities["graph"]
        assert graph.dtype == np.uint8 and not graph.flags.writeable
        assert np.array_equal(graph, graph_geodesic(corpus.domains[0].edges, n, 6, 4))

    def test_experiment_over_registered_geodesics_writes_the_bytes_of_built_ones(
        self, tmp_path
    ):
        corpus = synthesize_corpus(21, 90, 2, 5, 0.3)
        for name in ("plain", "registered"):
            save_corpus(corpus, tmp_path / name)
        for domain in ("domain0", "domain1"):
            argv = ["dissim", str(tmp_path / "registered"), "--domain", domain, "--kind", "graph"]
            assert main(argv + ["--cap", "32", "--max-hops", "30"]) == 0
        config = ExperimentConfig(
            views=(ViewSpec("GE", "domain0", "graph"), ViewSpec("GF", "domain1", "graph"),
                   ViewSpec("TF", "domain1", "text")),
            combinations=("GF->GE", "TF->GE", "GTF->GE"),
            averaged_views={"GTF": ("GF", "TF")},
            relation_classes=(0, 2, 4),
            classifier_classes=(1, 3),
            shared_dim=2,
            replicates=2,
            schedule=((0.5, 8), (1.0, 8)),
            cap=32,
            max_hops=30,
        )
        outputs = {}
        for name in ("plain", "registered"):
            loaded = load_corpus(tmp_path / name)
            emit_curves(run_experiment(config, corpus=loaded), tmp_path / f"out_{name}")
            outputs[name] = {
                path.name: path.read_bytes() for path in (tmp_path / f"out_{name}").iterdir()
            }
        assert len(outputs["plain"]) == 5
        assert outputs["registered"] == outputs["plain"]

    def test_saving_held_hop_counts_writes_the_same_bytes(self, registered, tmp_path):
        # Held as hop counts (test_registered_graph_matrix_reads_back_as_hop_counts).
        save_corpus(load_corpus(registered), tmp_path / "copy")
        for name in ("dissim_graph.tsv", ".dissim_graph.tsv.twin"):
            written = (tmp_path / "copy" / "domain0" / name).read_bytes()
            assert written == (registered / "domain0" / name).read_bytes()

    @pytest.mark.parametrize("cap, dtype", [(6, np.uint8), (300, np.uint16)])
    def test_in_memory_graph_matrix_kept_in_the_narrowest_type(self, cap, dtype):
        corpus = synthesize_corpus(21, 60, 2, 5, 0.3)
        counts = graph_geodesic(corpus.domains[0].edges, 60, cap, 4)
        assert counts.max() == cap and counts.dtype == dtype
        # Given counts keep their type, as a copy of their own.
        kept = DomainData("d", dissimilarities={"graph": counts}).dissimilarities["graph"]
        assert kept.dtype == dtype and not kept.flags.writeable
        assert np.array_equal(kept, counts) and not np.shares_memory(kept, counts)
        # Given as floats, the same counts stay float64, whatever the kind.
        values = counts.astype(float)
        for kind in ("graph", "text"):
            kept = DomainData("d", dissimilarities={kind: values}).dissimilarities[kind]
            assert kept.dtype == np.float64 and np.array_equal(kept, values)


def _edit_manifest(root, edit):
    path = root / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


class TestLoaderErrors:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FormatError, match="manifest"):
            load_corpus(tmp_path)

    def test_malformed_manifest_json(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(FormatError):
            load_corpus(tmp_path)

    def test_zero_objects(self, tmp_path):
        manifest = {"objects": {"ids": [], "labels": []}, "domains": []}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(IntegrityError, match="zero objects"):
            load_corpus(tmp_path)

    def test_label_count_mismatch(self, tmp_path):
        manifest = {"objects": {"ids": ["a", "b"], "labels": [0]}, "domains": []}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(IntegrityError, match="labels"):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("damage, message", [
        (lambda root: _edit_manifest(
            root, lambda m: m["objects"].update(ids=["a", "b", "c", "a"], labels=[0, 1, 0, 0])),
         "object ids are not unique"),
        (lambda root: (root / "d1" / "features.tsv").write_text("1.0\t2.0\n"),
         r"domain 'd1' features have shape \(1, 2\), expected \(3, \*\)"),
    ], ids=["duplicate_ids", "feature_rows"])
    def test_count_error_names_the_manifest(self, tmp_path, damage, message):
        # The counts are checked once, by LabeledCorpus; a load names the file.
        save_corpus(small_corpus(), tmp_path)
        damage(tmp_path)
        with pytest.raises(IntegrityError, match=rf"manifest\.json: {message}"):
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

    @pytest.mark.parametrize("line, fields", [("a", 1), ("a\tb\tc", 3)], ids=["one", "three"])
    def test_edge_line_without_two_fields_names_file_and_line(self, tmp_path, line, fields):
        save_corpus(small_corpus(), tmp_path)
        edges = tmp_path / "d0" / "edges.tsv"
        edges.write_text(edges.read_text() + line + "\n")
        message = f"^{re.escape(str(edges))}:3: expected two object-id columns, got {fields}$"
        with pytest.raises(FormatError, match=message):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("ref", [
        {"cap": 6}, 7, {"file": "d0/g.tsv", "cap": "six"}, {"file": "d0/g.tsv", "max_hops": 2.5},
    ])
    def test_malformed_dissimilarity_entry_is_a_format_error(self, tmp_path, capsys, ref):
        save_corpus(small_corpus(), tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["domains"][0]["dissimilarities"] = {"graph": ref}
        path.write_text(json.dumps(manifest))
        assert main(["dissim", str(tmp_path), "--domain", "d0", "--kind", "graph"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert "missing or malformed field 'domains[0].dissimilarities.graph" in err

    @pytest.mark.parametrize("ref, message", [
        ({"file": "d0/g.tsv", "cap": -1},
         r"cap must be an integer in \[2, 9007199254740992\], got -1"),
        ({"file": "d0/g.tsv", "cap": 4, "max_hops": 4}, "need cap > max_hops >= 1"),
        ({"file": "d0/g.tsv", "max_hops": 0}, "max_hops must be an integer of at least 1, got 0"),
        ({"file": "d0/g.tsv", "cap": 2**53 + 1},
         r"cap must be an integer in \[2, 9007199254740992\], got 9007199254740993"),
        ({"file": "d0/g.tsv", "cap": True}, "cap must be an integer"),
    ], ids=["negative-cap", "cap-not-above-max_hops", "zero-max_hops", "cap-above-2**53",
            "bool-cap"])
    def test_recorded_geodesic_settings_are_checked_at_load(self, tmp_path, ref, message):
        save_corpus(small_corpus(), tmp_path)
        _edit_manifest(tmp_path, lambda m: m["domains"][0].update(dissimilarities={"graph": ref}))
        with pytest.raises(FormatError, match=message) as info:
            load_corpus(tmp_path)
        assert (f"{tmp_path / 'manifest.json'}: missing or malformed field "
                "'domains[0].dissimilarities.graph': ") in str(info.value)

    def test_register_refuses_settings_the_loader_rejects(self, tmp_path):
        save_corpus(small_corpus(), tmp_path)
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        message = r"cap must be an integer in \[2, 9007199254740992\], got -1"
        with pytest.raises(ValidationError, match=message):
            register_dissimilarity(tmp_path, "d0", "graph", np.zeros((3, 3)), cap=-1)
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
        load_corpus(tmp_path)

    @pytest.mark.parametrize("key, value", [
        ("features", 5), ("features", ["d0/features.tsv"]), ("features", {"f": 1}), ("edges", 7),
    ])
    def test_non_string_file_entry_is_a_format_error(self, tmp_path, capsys, key, value):
        save_corpus(small_corpus(), tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["domains"][0][key] = value
        path.write_text(json.dumps(manifest))
        assert main(["dissim", str(tmp_path), "--domain", "d0", "--kind", "graph"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert f"missing or malformed field 'domains[0].{key}'" in err

    @pytest.mark.parametrize("key, value", [
        ("ids", "abc"), ("ids", {"a": 0, "b": 1, "c": 2}), ("labels", "010"), ("labels", {"a": 0}),
    ], ids=["ids_string", "ids_object", "labels_string", "labels_object"])
    def test_object_ids_and_labels_must_be_lists(self, tmp_path, key, value):
        # A string or an object would otherwise iterate as its characters or keys.
        save_corpus(small_corpus(), tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["objects"][key] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match=rf"malformed field 'objects\.{key}'$") as info:
            load_corpus(tmp_path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("labels", [
        [0.0, 1.0, 0.0], [True, False, True], [0, "1", 0], [0, -1, 0], [0, None, 1], [0, 2**63, 1],
    ], ids=["floats", "booleans", "string", "negative", "null", "too_large"])
    def test_bad_labels_name_the_manifest_field(self, tmp_path, labels):
        save_corpus(small_corpus(), tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["objects"]["labels"] = labels
        path.write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match=r"field 'objects\.labels': label .* is not a "
                           "nonnegative integer") as info:
            load_corpus(tmp_path)
        assert str(path) in str(info.value)

    # A manifest field of the wrong type, what load_corpus and
    # register_dissimilarity both say of it, and whether load_corpus reads it.
    MALFORMED = [
        (lambda m: m.pop("domains"), r"missing or malformed field 'domains'$"),
        (lambda m: m.update(domains=7), r"missing or malformed field 'domains'$"),
        (lambda m: m["domains"].insert(0, "d0"), r"missing or malformed field 'domains\[0\]'$"),
        (lambda m: m["domains"][0].pop("name"),
         r"missing or malformed field 'domains\[0\]\.name': name None is not a safe "
         "file-name component$"),
        (lambda m: m["domains"][0].update(name=5),
         r"missing or malformed field 'domains\[0\]\.name': name 5 is not a safe "
         "file-name component$"),
        (lambda m: m["domains"][0].update(dissimilarities=["graph"]),
         r"missing or malformed field 'domains\[0\]\.dissimilarities'$"),
        (lambda m: m["domains"][0].update(dissimilarities="graph"),
         r"missing or malformed field 'domains\[0\]\.dissimilarities'$"),
    ]
    MALFORMED_IDS = ["no_domains", "domains_not_a_list", "string_domain", "nameless_domain",
                     "number_name", "dissimilarities_list", "dissimilarities_string"]

    @pytest.mark.parametrize("edit, message", MALFORMED, ids=MALFORMED_IDS)
    def test_register_reports_a_malformed_manifest(self, tmp_path, edit, message):
        save_corpus(small_corpus(), tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        with pytest.raises(FormatError, match=message) as info:
            register_dissimilarity(tmp_path, "d0", "text", np.zeros((3, 3)))
        assert str(path) in str(info.value)
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("edit, message", MALFORMED + [
        (lambda m: m.pop("objects"), r"missing or malformed field 'objects'$"),
        (lambda m: m.update(objects=["a", "b", "c"]), r"missing or malformed field 'objects'$"),
        (lambda m: m["objects"].pop("labels"),
         r"missing or malformed field 'objects\.labels'$"),
        *[(lambda m, bad=bad: m["objects"]["ids"].__setitem__(1, bad),
           rf"missing or malformed field 'objects\.ids': object id {shown} is not a string$")
          for bad, shown in [(None, "None"), (1, "1"), (2.5, "2.5"), ([3], r"\[3\]"),
                             ({"a": 1}, r"\{'a': 1\}"), (True, "True")]],
    ], ids=MALFORMED_IDS + ["no_objects", "objects_list", "no_labels", "id_null", "id_int",
                            "id_float", "id_list", "id_object", "id_bool"])
    def test_load_names_a_malformed_field(self, tmp_path, edit, message):
        save_corpus(small_corpus(), tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match=message) as info:
            load_corpus(tmp_path)
        assert str(path) in str(info.value)

    def test_manifest_that_is_not_an_object(self, tmp_path):
        (tmp_path / "manifest.json").write_text("[1, 2]")
        with pytest.raises(FormatError, match=r"manifest\.json: not a JSON object$"):
            load_corpus(tmp_path)
        with pytest.raises(FormatError, match=r"manifest\.json: not a JSON object$"):
            register_dissimilarity(tmp_path, "d0", "text", np.zeros((3, 3)))

    def test_register_into_null_dissimilarities(self, tmp_path):
        # load_corpus reads a null entry as no matrices; registration does too.
        save_corpus(small_corpus(), tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["domains"][0]["dissimilarities"] = None
        path.write_text(json.dumps(manifest))
        register_dissimilarity(tmp_path, "d0", "text", np.ones((3, 3)) - np.eye(3))
        assert "text" in load_corpus(tmp_path).domain("d0").dissimilarities

    def test_feature_row_count_checked(self, tmp_path):
        corpus = small_corpus()
        save_corpus(corpus, tmp_path)
        features = tmp_path / "d0" / "features.tsv"
        lines = features.read_text().splitlines()
        features.write_text("\n".join(lines[:2]) + "\n")
        with pytest.raises(IntegrityError, match="features have shape"):
            load_corpus(tmp_path)


def split(corpus, relation, classifier):
    """The experiment's (relation-learning, classifier) object indices."""
    config = ExperimentConfig(
        views=(ViewSpec("TE", "english", "text"), ViewSpec("TF", "french", "text")),
        combinations=("TF->TE",),
        relation_classes=relation,
        classifier_classes=classifier,
        shared_dim=1,
        schedule=((1.0, 2),),
    )
    prepared = _prepare(config, corpus)
    return prepared.rel_idx, prepared.clf_idx


class TestClassSplit:
    # The split into relation-learning and classifier classes is an
    # experiment setting; these check it on the reference class sizes.
    def test_reference_split_counts(self):
        corpus = reference_sized_corpus()
        rel, clf = split(corpus, (0, 2, 4), (1, 3))
        assert rel.size == 819
        assert clf.size == 563
        assert corpus.n_total == 1382

    def test_recounted_split_with_drop(self):
        # {0,1} vs {2,3}: class 4's objects are in neither pool
        corpus = reference_sized_corpus()
        rel, clf = split(corpus, (0, 1), (2, 3))
        assert rel.size == 119 + 372
        assert clf.size == 270 + 191
        assert not np.any(corpus.labels[np.concatenate([rel, clf])] == 4)

    def test_order_preserved_within_roles(self):
        corpus = reference_sized_corpus()
        rel, clf = split(corpus, (0, 1), (2, 3))
        assert np.all(np.diff(rel) > 0)
        assert np.all(np.diff(clf) > 0)

    def test_overlapping_sets_rejected(self):
        with pytest.raises(ConfigError, match="overlap"):
            split(reference_sized_corpus(), (0, 1), (1, 2))

    def test_unknown_class_rejected(self):
        corpus = reference_sized_corpus()
        with pytest.raises(ConfigError, match="absent"):
            split(corpus, (0,), (9,))


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

    def test_graphs_connected(self):
        corpus = synthesize_corpus(12, 50, 2, 5, 1.0)
        for domain in corpus.domains:
            dm = graph_geodesic(domain.edges, corpus.n_total, cap=99, max_hops=98)
            assert dm.max() < 99

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
