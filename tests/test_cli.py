import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import manifold_match
from conftest import traced_peak
from manifold_match import formats
from manifold_match.cli import main
from manifold_match.corpus import (
    DomainData,
    LabeledCorpus,
    load_corpus,
    register_dissimilarity,
    save_corpus,
    synthesize_corpus,
)
from manifold_match.dissimilarity import (
    cosine_dissimilarity,
    graph_geodesic,
    load_dissimilarity_tsv,
    save_dissimilarity_tsv,
)
from manifold_match.errors import ConfigError
from manifold_match.experiment import ExperimentConfig, run_experiment
from manifold_match.mds import mds_fit


def path_graph_corpus(tmp_path):
    ids = ("a", "b", "c")
    corpus = LabeledCorpus(
        ids,
        np.array([0, 1, 0]),
        (
            DomainData(
                "eng",
                features=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                edges=np.array([[0, 1], [1, 2]]),
            ),
        ),
    )
    out = tmp_path / "corpus"
    save_corpus(corpus, out)
    return out


def read_matrix(path):
    return np.asarray(
        [[float(t) for t in line.split("\t")] for line in Path(path).read_text().splitlines()]
    )


class TestUsage:
    @pytest.mark.parametrize(
        "sub", ["dissim", "mds", "align", "classify", "experiment", "synth"]
    )
    def test_help_exits_zero_and_documents_flags(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--" in out and "usage" in out.lower()

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(tmp_path / "c"), "--frobnicate"])
        assert exc.value.code == 1

    def test_unknown_kind_names_flag(self, tmp_path, capsys):
        corpus_dir = path_graph_corpus(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["dissim", str(corpus_dir), "--domain", "eng", "--kind", "jaccard"])
        assert exc.value.code == 1
        assert "--kind" in capsys.readouterr().err


class TestDissim:
    def test_graph_path_fixture(self, tmp_path, capsys):
        corpus_dir = path_graph_corpus(tmp_path)
        out = tmp_path / "geo.tsv"
        code = main([
            "dissim", str(corpus_dir), "--domain", "eng", "--kind", "graph",
            "--cap", "6", "--out", str(out),
        ])
        assert code == 0
        assert np.array_equal(read_matrix(out), [[0, 1, 2], [1, 0, 1], [2, 1, 0]])

    def test_text_orthogonal_rows(self, tmp_path):
        corpus_dir = path_graph_corpus(tmp_path)
        out = tmp_path / "cos.tsv"
        code = main([
            "dissim", str(corpus_dir), "--domain", "eng", "--kind", "text",
            "--out", str(out),
        ])
        assert code == 0
        values = read_matrix(out)
        assert values[0, 1] == pytest.approx(1.0)

    def test_register_updates_manifest(self, tmp_path):
        corpus_dir = path_graph_corpus(tmp_path)
        code = main(["dissim", str(corpus_dir), "--domain", "eng", "--kind", "graph"])
        assert code == 0
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        entry = manifest["domains"][0]["dissimilarities"]["graph"]
        assert (entry["cap"], entry["max_hops"]) == (6, 4)
        corpus = load_corpus(corpus_dir)
        dm = corpus.domains[0].dissimilarities["graph"]
        assert np.array_equal(dm, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])

    def test_unknown_domain_is_data_error(self, tmp_path, capsys):
        corpus_dir = path_graph_corpus(tmp_path)
        code = main(["dissim", str(corpus_dir), "--domain", "nope", "--kind", "graph"])
        assert code == 2

    def test_failed_manifest_rewrite_keeps_previous_manifest(
        self, tmp_path, monkeypatch, capsys, fail_writing
    ):
        corpus_dir = path_graph_corpus(tmp_path)
        before = (corpus_dir / "manifest.json").read_bytes()

        fail_writing("manifest.json", writes=1)
        code = main(["dissim", str(corpus_dir), "--domain", "eng", "--kind", "graph"])
        monkeypatch.undo()
        assert code == 2
        assert "error: disk full" in capsys.readouterr().err
        assert (corpus_dir / "manifest.json").read_bytes() == before
        assert load_corpus(corpus_dir).domains[0].dissimilarities == {}
        assert not any(p.name.endswith(".tmp") for p in corpus_dir.iterdir())

    def test_failed_matrix_rewrite_keeps_previous_matrix(
        self, tmp_path, monkeypatch, capsys, fail_writing
    ):
        corpus_dir = path_graph_corpus(tmp_path)
        assert main(["dissim", str(corpus_dir), "--domain", "eng", "--kind", "graph"]) == 0
        matrix = corpus_dir / "eng" / "dissim_graph.tsv"
        before = {p: p.read_bytes() for p in (matrix, corpus_dir / "manifest.json")}

        fail_writing("dissim_graph.tsv", writes=3)
        code = main([
            "dissim", str(corpus_dir), "--domain", "eng", "--kind", "graph",
            "--cap", "3", "--max-hops", "1",
        ])
        monkeypatch.undo()
        assert code == 2
        assert "error: disk full" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in before} == before
        view = load_corpus(corpus_dir).view("eng", "graph", 6, 4)
        assert np.array_equal(view, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        assert not any(p.name.endswith(".tmp") for p in corpus_dir.rglob("*"))

    @pytest.mark.parametrize("skip", [0, 1], ids=["dropping_old_entry", "recording_new_entry"])
    def test_failed_reregistration_never_records_new_matrix_under_old_settings(
        self, tmp_path, monkeypatch, capsys, fail_writing, skip
    ):
        # A re-registration at 3/1 writes the manifest twice: without the old
        # 6/4 entry, then with the new one. Whichever write fails, a 6/4 view
        # must not read the 3/1 matrix.
        corpus_dir = path_graph_corpus(tmp_path)
        assert main(["dissim", str(corpus_dir), "--domain", "eng", "--kind", "graph"]) == 0
        matrix = corpus_dir / "eng" / "dissim_graph.tsv"

        fail_writing("manifest.json", writes=1, skip=skip)
        code = main([
            "dissim", str(corpus_dir), "--domain", "eng", "--kind", "graph",
            "--cap", "3", "--max-hops", "1",
        ])
        monkeypatch.undo()
        assert code == 2
        assert "error: disk full" in capsys.readouterr().err
        assert read_matrix(matrix)[0, 2] == (2, 3)[skip]
        corpus = load_corpus(corpus_dir)
        assert ("graph" in corpus.domains[0].dissimilarities) == (skip == 0)
        view = corpus.view("eng", "graph", 6, 4)
        assert np.array_equal(view, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])

    @pytest.mark.parametrize("skip", [0, 1], ids=["dropping_old_entry", "recording_new_entry"])
    def test_failed_reregistration_keeps_each_twin_with_its_matrix(
        self, tmp_path, monkeypatch, capsys, fail_writing, skip
    ):
        # As above: the matrix left in place has its own twin beside it, is
        # read back from that twin, and no staged file is left.
        corpus_dir = path_graph_corpus(tmp_path)
        assert main(["dissim", str(corpus_dir), "--domain", "eng", "--kind", "graph"]) == 0
        matrix = corpus_dir / "eng" / "dissim_graph.tsv"

        fail_writing("manifest.json", writes=1, skip=skip)
        code = main([
            "dissim", str(corpus_dir), "--domain", "eng", "--kind", "graph",
            "--cap", "3", "--max-hops", "1",
        ])
        monkeypatch.undo()
        assert code == 2
        assert "error: disk full" in capsys.readouterr().err
        assert sorted(p.name for p in (corpus_dir / "eng").iterdir()) == [
            ".dissim_graph.tsv.twin", ".features.tsv.twin",
            "dissim_graph.tsv", "edges.tsv", "features.tsv",
        ]
        from_twin = formats._read_twin(matrix)
        assert from_twin is not None and from_twin[0, 2] == (2, 3)[skip]
        parsed = []
        by_line = formats._read_matrix_by_line
        monkeypatch.setattr(formats, "_read_matrix_by_line",
                            lambda path: parsed.append(path) or by_line(path))
        assert formats.read_matrix(matrix)[0, 2] == (2, 3)[skip]
        assert parsed == []

    def test_reregistration_replaces_matrix_and_settings(self, tmp_path):
        corpus_dir = path_graph_corpus(tmp_path)
        for cap, hops in ((6, 4), (3, 1)):
            argv = ["dissim", str(corpus_dir), "--domain", "eng", "--kind", "graph",
                    "--cap", str(cap), "--max-hops", str(hops)]
            assert main(argv) == 0
        entry = json.loads((corpus_dir / "manifest.json").read_text())["domains"][0]
        assert entry["dissimilarities"]["graph"] == {
            "file": "eng/dissim_graph.tsv", "cap": 3, "max_hops": 1,
        }
        view = load_corpus(corpus_dir).view("eng", "graph", 3, 1)
        assert np.array_equal(view, [[0, 1, 3], [1, 0, 1], [3, 1, 0]])

    @pytest.mark.parametrize(
        "kind, lacks", [("graph", "edges"), ("text", "features")]
    )
    def test_domain_without_source_is_data_error(self, tmp_path, capsys, kind, lacks):
        corpus_dir = tmp_path / "corpus"
        save_corpus(LabeledCorpus(("a", "b"), np.array([0, 1]), (DomainData("bare"),)), corpus_dir)
        before = (corpus_dir / "manifest.json").read_bytes()
        code = main(["dissim", str(corpus_dir), "--domain", "bare", "--kind", kind])
        assert code == 2
        assert capsys.readouterr().err == f"error: domain 'bare' has no {lacks}\n"
        assert (corpus_dir / "manifest.json").read_bytes() == before


class TestSynth:
    def test_writes_loadable_corpus(self, tmp_path):
        out = tmp_path / "corpus"
        code = main([
            "synth", "--seed", "5", "--objects", "40", "--domains", "2",
            "--classes", "4", "--noise", "0.2", "--out", str(out),
        ])
        assert code == 0
        corpus = load_corpus(out)
        assert corpus.n_total == 40

    def test_same_seed_identical_directories(self, tmp_path):
        for name in ("c1", "c2"):
            main([
                "synth", "--seed", "9", "--objects", "30", "--domains", "2",
                "--classes", "3", "--noise", "0.1", "--out", str(tmp_path / name),
            ])
        files1 = sorted(p.relative_to(tmp_path / "c1") for p in (tmp_path / "c1").rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(tmp_path / "c2") for p in (tmp_path / "c2").rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (tmp_path / "c1" / rel).read_bytes() == (tmp_path / "c2" / rel).read_bytes()

    def test_more_classes_than_objects_fails(self, tmp_path, capsys):
        code = main([
            "synth", "--objects", "3", "--classes", "5", "--out", str(tmp_path / "c"),
        ])
        assert code == 2
        assert not (tmp_path / "c").exists()


class TestPipelineFlow:
    def test_mds_align_classify(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        main([
            "synth", "--seed", "3", "--objects", "50", "--domains", "2",
            "--classes", "3", "--noise", "0.1", "--out", str(corpus_dir),
        ])
        d0 = tmp_path / "d0.tsv"
        d1 = tmp_path / "d1.tsv"
        main(["dissim", str(corpus_dir), "--domain", "domain0", "--kind", "text", "--out", str(d0)])
        main(["dissim", str(corpus_dir), "--domain", "domain1", "--kind", "text", "--out", str(d1)])

        e0 = tmp_path / "e0.tsv"
        e1 = tmp_path / "e1.tsv"
        scree = tmp_path / "scree.csv"
        assert main(["mds", str(d0), "--dim", "4", "--out", str(e0), "--scree", str(scree)]) == 0
        assert main(["mds", str(d1), "--dim", "4", "--out", str(e1)]) == 0
        assert scree.read_text().startswith("index,sqrt_eigenvalue")

        maps_dir = tmp_path / "maps"
        assert main([
            "align", str(e0), str(e1), "--method", "cca", "--dim", "2",
            "--out", str(maps_dir),
        ]) == 0
        assert (maps_dir / "U_1.tsv").is_file()
        assert (maps_dir / "meta.json").is_file()

        labels_file = tmp_path / "labels.txt"
        corpus = load_corpus(corpus_dir)
        labels_file.write_text("\n".join(str(int(l)) for l in corpus.labels) + "\n")
        code = main([
            "classify", "--train", str(e1), "--test", str(e0),
            "--labels", str(labels_file), "--kappa", "5",
            "--maps", str(maps_dir), "--train-view", "2", "--test-view", "1",
        ])
        assert code == 0

    def test_classify_without_maps_needs_matching_widths(self, tmp_path, capsys):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        a.write_text("\n".join("0.0\t1.0" for _ in range(6)) + "\n")
        b.write_text("\n".join("0.0\t1.0\t2.0" for _ in range(6)) + "\n")
        labels = tmp_path / "l.txt"
        labels.write_text("\n".join("0" for _ in range(6)) + "\n")
        code = main(["classify", "--train", str(a), "--test", str(b), "--labels", str(labels)])
        assert code == 2

    def test_ragged_embedding_is_data_error(self, tmp_path, capsys):
        good = tmp_path / "good.tsv"
        good.write_text("\n".join("0.0\t1.0" for _ in range(6)) + "\n")
        ragged = tmp_path / "ragged.tsv"
        ragged.write_text("0.0\t1.0\n1.0\t0.0\n2.0\n")
        code = main([
            "align", str(good), str(ragged), "--dim", "1", "--out", str(tmp_path / "maps"),
        ])
        assert code == 2
        assert "ragged.tsv:3" in capsys.readouterr().err

    def test_malformed_map_file_is_data_error(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        e0, e1 = tmp_path / "e0.tsv", tmp_path / "e1.tsv"
        formats.write_matrix(rng.normal(size=(8, 2)), e0)
        formats.write_matrix(rng.normal(size=(8, 2)), e1)
        maps_dir = tmp_path / "maps"
        assert main(["align", str(e0), str(e1), "--dim", "1", "--out", str(maps_dir)]) == 0
        u1 = maps_dir / "U_1.tsv"
        u1.write_text(u1.read_text().replace("\n", "\nnot-a-number\n", 1))
        labels = tmp_path / "l.txt"
        labels.write_text("\n".join(str(i % 2) for i in range(8)) + "\n")
        code = main([
            "classify", "--train", str(e1), "--test", str(e0), "--labels", str(labels),
            "--kappa", "1", "--maps", str(maps_dir),
        ])
        assert code == 2
        assert "U_1.tsv:2" in capsys.readouterr().err

    def test_malformed_map_meta_is_data_error(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        e0, e1 = tmp_path / "e0.tsv", tmp_path / "e1.tsv"
        formats.write_matrix(rng.normal(size=(8, 2)), e0)
        formats.write_matrix(rng.normal(size=(8, 2)), e1)
        maps_dir = tmp_path / "maps"
        assert main(["align", str(e0), str(e1), "--dim", "1", "--out", str(maps_dir)]) == 0
        labels = tmp_path / "l.txt"
        labels.write_text("\n".join(str(i % 2) for i in range(8)) + "\n")
        for meta in ("{", '{"method": "cca", "d": 1, "K": 2}'):
            (maps_dir / "meta.json").write_text(meta)
            code = main([
                "classify", "--train", str(e1), "--test", str(e0), "--labels", str(labels),
                "--kappa", "1", "--maps", str(maps_dir),
            ])
            assert code == 2
            assert "meta.json" in capsys.readouterr().err

    def test_maps_of_another_width_are_data_error(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        e0, e1 = tmp_path / "e0.tsv", tmp_path / "e1.tsv"
        formats.write_matrix(rng.normal(size=(8, 2)), e0)
        formats.write_matrix(rng.normal(size=(8, 2)), e1)
        maps_dir = tmp_path / "maps"
        assert main(["align", str(e0), str(e1), "--dim", "1", "--out", str(maps_dir)]) == 0
        formats.write_matrix(np.ones((2, 2)), maps_dir / "U_2.tsv")
        labels = tmp_path / "l.txt"
        labels.write_text("\n".join(str(i % 2) for i in range(8)) + "\n")
        capsys.readouterr()
        code = main([
            "classify", "--train", str(e1), "--test", str(e0), "--labels", str(labels),
            "--kappa", "1", "--maps", str(maps_dir),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {maps_dir}: ")

    def test_maps_holding_nan_are_data_error(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        e0, e1 = tmp_path / "e0.tsv", tmp_path / "e1.tsv"
        formats.write_matrix(rng.normal(size=(8, 2)), e0)
        formats.write_matrix(rng.normal(size=(8, 2)), e1)
        maps_dir = tmp_path / "maps"
        assert main(["align", str(e0), str(e1), "--dim", "1", "--out", str(maps_dir)]) == 0
        u = maps_dir / "U_2.tsv"
        u.write_text("nan\n" + u.read_text().split("\n", 1)[1])  # its twin goes stale
        labels = tmp_path / "l.txt"
        labels.write_text("\n".join(str(i % 2) for i in range(8)) + "\n")
        capsys.readouterr()
        code = main([
            "classify", "--train", str(e1), "--test", str(e0), "--labels", str(labels),
            "--kappa", "1", "--maps", str(maps_dir),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {maps_dir}: view 1 projections contain non-finite entries\n"

    def test_labels_line_that_is_not_an_integer_names_file_and_line(self, tmp_path, capsys):
        rng = np.random.default_rng(10)
        e0, e1 = tmp_path / "e0.tsv", tmp_path / "e1.tsv"
        formats.write_matrix(rng.normal(size=(4, 2)), e0)
        formats.write_matrix(rng.normal(size=(4, 2)), e1)
        labels = tmp_path / "l.txt"
        labels.write_text("0\n1\nx\n1\n")
        capsys.readouterr()
        code = main(["classify", "--train", str(e1), "--test", str(e0), "--labels", str(labels),
                     "--kappa", "1"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {labels}:3: expected an integer class id, got 'x'\n")

    @pytest.mark.parametrize("option", ["--train-view", "--test-view"])
    @pytest.mark.parametrize("view", ["0", "3"])
    def test_view_number_outside_one_to_k_is_data_error(self, tmp_path, capsys, option, view):
        rng = np.random.default_rng(7)
        e0, e1 = tmp_path / "e0.tsv", tmp_path / "e1.tsv"
        formats.write_matrix(rng.normal(size=(8, 2)), e0)
        formats.write_matrix(rng.normal(size=(8, 2)), e1)
        maps_dir = tmp_path / "maps"
        assert main(["align", str(e0), str(e1), "--dim", "1", "--out", str(maps_dir)]) == 0
        labels = tmp_path / "l.txt"
        labels.write_text("\n".join(str(i % 2) for i in range(8)) + "\n")
        code = main([
            "classify", "--train", str(e1), "--test", str(e0), "--labels", str(labels),
            "--kappa", "1", "--maps", str(maps_dir), option, view,
        ])
        assert code == 2
        message = f"error: {option} must be an integer in [1, 2], got {view}\n"
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize(
        "views",
        [["--train-view", "2"], ["--test-view", "1"], ["--train-view", "7", "--test-view", "-3"]],
    )
    def test_view_number_without_maps_is_data_error(self, tmp_path, capsys, views):
        rng = np.random.default_rng(8)
        e0, e1 = tmp_path / "e0.tsv", tmp_path / "e1.tsv"
        formats.write_matrix(rng.normal(size=(8, 2)), e0)
        formats.write_matrix(rng.normal(size=(8, 2)), e1)
        labels = tmp_path / "l.txt"
        labels.write_text("\n".join(str(i % 2) for i in range(8)) + "\n")
        argv = ["classify", "--train", str(e1), "--test", str(e0), "--labels", str(labels),
                "--kappa", "1"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main([*argv, *views]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {views[0]} needs --maps\n"

    def test_view_numbers_default_to_two_and_one_with_maps(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        e0, e1 = tmp_path / "e0.tsv", tmp_path / "e1.tsv"
        formats.write_matrix(rng.normal(size=(12, 2)), e0)
        formats.write_matrix(rng.normal(size=(12, 3)), e1)
        maps_dir = tmp_path / "maps"
        assert main(["align", str(e0), str(e1), "--dim", "2", "--out", str(maps_dir)]) == 0
        labels = tmp_path / "l.txt"
        labels.write_text("\n".join(str(i % 3) for i in range(12)) + "\n")
        argv = ["classify", "--train", str(e1), "--test", str(e0), "--labels", str(labels),
                "--kappa", "1", "--maps", str(maps_dir)]
        capsys.readouterr()
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main([*argv, "--train-view", "2", "--test-view", "1"]) == 0
        assert capsys.readouterr().out == default
        # The views are 2 and 3 wide, so swapped numbers cannot project them.
        assert main([*argv, "--train-view", "1", "--test-view", "2"]) == 2

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.tsv"
        code = main(["mds", str(missing), "--dim", "2", "--out", str(tmp_path / "x.tsv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nope.tsv" in err
        assert not (tmp_path / "x.tsv").exists()

    def test_missing_output_directory_names_the_output_file(
        self, tmp_path, monkeypatch, capsys
    ):
        corpus_dir = path_graph_corpus(tmp_path)
        monkeypatch.chdir(tmp_path)
        argv = ["dissim", str(corpus_dir), "--domain", "eng", "--kind", "graph"]
        assert main([*argv, "--out", "d.tsv"]) == 0
        capsys.readouterr()
        code = main(["mds", "d.tsv", "--dim", "1", "--out", "nodir/y.tsv"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: [Errno 2] No such file or directory: 'nodir/y.tsv'\n"
        )
        assert not (tmp_path / "nodir").exists()

    @pytest.mark.parametrize("ridge", ["nan", "inf", "-1"])
    def test_bad_ridge_is_data_error(self, tmp_path, capsys, ridge):
        rng = np.random.default_rng(7)
        e0, e1 = tmp_path / "e0.tsv", tmp_path / "e1.tsv"
        formats.write_matrix(rng.normal(size=(8, 2)), e0)
        formats.write_matrix(rng.normal(size=(8, 2)), e1)
        out = tmp_path / "maps"
        code = main([
            "align", str(e0), str(e1), "--dim", "2", "--ridge", ridge, "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "ridge" in err
        assert not out.exists()

    def test_mds_dim_error_is_data_error(self, tmp_path, capsys):
        corpus_dir = path_graph_corpus(tmp_path)
        d = tmp_path / "d.tsv"
        main(["dissim", str(corpus_dir), "--domain", "eng", "--kind", "graph", "--out", str(d)])
        code = main(["mds", str(d), "--dim", "9", "--out", str(tmp_path / "e.tsv")])
        assert code == 2
        assert not (tmp_path / "e.tsv").exists()

    def test_mds_factors_the_matrix_it_read_in_place(self, tmp_path, capsys):
        # A float matrix read from its twin becomes the fit's Gram matrix and
        # then its eigenvectors, so the command holds it beside LAPACK's
        # workspace, about 3n^2 floats (4.04n^2 with the Gram matrix built
        # beside it). Hop counts read from their twin as bytes cannot hold
        # the Gram matrix, which is built beside them: about 3.16n^2 floats.
        n = 600
        corpus = synthesize_corpus(5, n, 2, 5, 0.8)
        hops = graph_geodesic(corpus.domains[0].edges, n, 32, 30)
        for name, matrix in (("g", hops), ("t", cosine_dissimilarity(corpus.domains[0].features))):
            path, out = tmp_path / f"{name}.tsv", tmp_path / f"{name}_emb.tsv"
            save_dissimilarity_tsv(matrix, path)
            assert load_dissimilarity_tsv(path).dtype == matrix.dtype
            argv = ["mds", str(path), "--dim", "40", "--out", str(out)]
            assert main(argv) == 0
            peak, code = traced_peak(lambda: main(argv))
            assert code == 0
            assert peak < 3.25 * n * n * 8
            expected = mds_fit(load_dissimilarity_tsv(path), 40).embedding
            assert np.array_equal(formats.read_matrix(out), expected)
            assert not load_dissimilarity_tsv(path).flags.writeable

    def test_embedding_without_columns_is_data_error(self, tmp_path, capsys):
        # An all-zero matrix has effective dimension 0: its embedding has no
        # columns, and a file of blank lines would not read back as a matrix.
        d, e = tmp_path / "d.tsv", tmp_path / "e.tsv"
        formats.write_matrix(np.zeros((3, 3)), d)
        code = main(["mds", str(d), "--dim", "2", "--out", str(e)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "e.tsv" in err and "(3, 0)" in err
        assert not e.exists()

    def test_cca_of_three_embeddings_is_data_error(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        paths = [tmp_path / f"e{k}.tsv" for k in range(3)]
        for path in paths:
            formats.write_matrix(rng.normal(size=(8, 2)), path)
        out = tmp_path / "maps"
        code = main(["align", *map(str, paths), "--method", "cca", "--dim", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: cca takes exactly two embeddings\n"
        assert not out.exists()

    def test_conditioning_failure_is_numeric_error(self, tmp_path, capsys):
        # all-zero embeddings leave nothing to whiten: exit code 3
        zeros = tmp_path / "z.tsv"
        zeros.write_text("\n".join("0.0\t0.0" for _ in range(6)) + "\n")
        out = tmp_path / "maps"
        code = main([
            "align", str(zeros), str(zeros), "--method", "cca", "--dim", "1",
            "--ridge", "0.0", "--out", str(out),
        ])
        assert code == 3
        assert not out.exists()


def experiment_config(tmp_path, corpus_dir, **overrides):
    config = {
        "corpus": str(corpus_dir),
        "relation_classes": [0, 2, 4],
        "classifier_classes": [1, 3],
        "views": [
            {"tag": "GE", "domain": "domain0", "kind": "graph"},
            {"tag": "GF", "domain": "domain1", "kind": "graph"},
            {"tag": "TF", "domain": "domain1", "kind": "text"},
        ],
        "combinations": ["GF->GE", "TF->GE", "GTF->GE"],
        "averaged_views": {"GTF": ["GF", "TF"]},
        "method": "gcca",
        "shared_dim": 2,
        "kappa": 5,
        "replicates": 2,
        "seed": 7,
        "schedule": [{"fraction": 0.5, "mds_dim": 8}, {"fraction": 1.0, "mds_dim": 8}],
        "cap": 32,
        "max_hops": 30,
        "feature": "synthetic",
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=2))
    return path


class TestExperimentCommand:
    def test_outputs_and_determinism(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        main([
            "synth", "--seed", "21", "--objects", "120", "--domains", "2",
            "--classes", "5", "--noise", "0.5", "--out", str(corpus_dir),
        ])
        config = experiment_config(tmp_path, corpus_dir)

        out1 = tmp_path / "run1"
        assert main(["experiment", "--config", str(config), "--out", str(out1)]) == 0
        printed = capsys.readouterr().out
        assert printed.count("S=") >= 6  # one line per cell

        out2 = tmp_path / "run2"
        assert main(["experiment", "--config", str(config), "--out", str(out2)]) == 0
        for name in ("curves_gcca_synthetic.csv", "table.csv", "replicates.log", "meta.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_config_error_cites_row_and_writes_nothing(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        main([
            "synth", "--seed", "22", "--objects", "100", "--domains", "2",
            "--classes", "5", "--noise", "0.5", "--out", str(corpus_dir),
        ])
        config = experiment_config(
            tmp_path, corpus_dir, regularized=True, shared_dim=6,
            schedule=[{"fraction": 0.5, "mds_dim": 8}],
        )
        out = tmp_path / "run"
        code = main(["experiment", "--config", str(config), "--out", str(out)])
        assert code == 2
        assert "S=0.5" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_config_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code = main(["experiment", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", ["5", "null", "[]", '"x"'])
    def test_non_object_config_is_data_error(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code = main(["experiment", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "must be a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_decreasing_schedule_is_data_error(self, tmp_path, capsys):
        schedule = [{"fraction": 1.0, "mds_dim": 8}, {"fraction": 0.5, "mds_dim": 8}]
        config = experiment_config(tmp_path, tmp_path / "corpus", schedule=schedule)
        code = main(["experiment", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "strictly increasing" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "name, value",
        [("regularized", "false"), ("shared_dim", "x"), ("kappa", 2.7),
         # a removed field is an unknown one
         ("prescale_reference", "GE")],
    )
    def test_malformed_config_field_is_data_error(self, tmp_path, capsys, name, value):
        config = experiment_config(tmp_path, tmp_path / "corpus", **{name: value})
        code = main(["experiment", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert name in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "name, value, named",
        [
            ("views", [{"tag": "GE", "domain": "domain0", "kind": "graph", "oops": 1},
                       {"tag": "GF", "domain": "domain1", "kind": "graph"},
                       {"tag": "TF", "domain": "domain1", "kind": "text"}],
             "malformed field 'views'"),
            ("schedule", [{"fraction": 1.0, "mds_dim": 8, "typo": 9}],
             "malformed field 'schedule'"),
            ("seed", -1, "malformed field 'seed': -1 is less than 0"),
            # Scored twice, the cell's SE was taken over copies.
            ("combinations", ["GF->GE", "TF->GE", "GF->GE"],
             "malformed field 'combinations': 'GF->GE' repeats"),
            # Checked before the corpus loads, whatever it has registered.
            ("max_hops", 40, "need cap > max_hops >= 1, got cap=32, max_hops=40"),
        ],
        ids=["view-extra-key", "row-extra-key", "negative-seed", "repeated-combination",
             "max_hops-not-below-cap"],
    )
    def test_config_error_on_a_runnable_corpus_writes_nothing(
        self, tmp_path, capsys, name, value, named
    ):
        corpus_dir = tmp_path / "corpus"
        main([
            "synth", "--seed", "21", "--objects", "120", "--domains", "2",
            "--classes", "5", "--noise", "0.5", "--out", str(corpus_dir),
        ])
        config = experiment_config(tmp_path, corpus_dir, **{name: value})
        out = tmp_path / "run"
        code = main(["experiment", "--config", str(config), "--out", str(out)])
        assert code == 2
        assert f"error: {config}: {named}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tag", ["G,E", "G\tE"])
    def test_unsafe_view_tag_is_data_error(self, tmp_path, capsys, tag):
        views = [
            {"tag": tag, "domain": "domain0", "kind": "graph"},
            {"tag": "GF", "domain": "domain1", "kind": "graph"},
        ]
        config = experiment_config(
            tmp_path, tmp_path / "corpus", views=views,
            combinations=[f"GF->{tag}"], averaged_views={},
        )
        code = main(["experiment", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"malformed field 'views': name {tag!r} is not a safe" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("combo", ["GF\t->GE", "GF->\nGE", "GF ->GE"])
    def test_combination_with_whitespace_is_data_error(self, tmp_path, capsys, combo):
        config = experiment_config(tmp_path, tmp_path / "corpus", combinations=[combo])
        code = main(["experiment", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"combination {combo!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_wrong_size_registered_matrix_is_data_error(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        main([
            "synth", "--seed", "23", "--objects", "100", "--domains", "2",
            "--classes", "5", "--noise", "0.5", "--out", str(corpus_dir),
        ])
        matrix = register_dissimilarity(
            corpus_dir, "domain0", "graph", np.ones((3, 3)) - np.eye(3)
        )
        config = experiment_config(tmp_path, corpus_dir)
        out = tmp_path / "run"
        code = main(["experiment", "--config", str(config), "--out", str(out)])
        assert code == 2
        assert str(matrix) in capsys.readouterr().err
        assert not out.exists()

    def test_graph_matrix_registered_at_other_settings_is_config_error(
        self, tmp_path, capsys
    ):
        corpus_dir = tmp_path / "corpus"
        main([
            "synth", "--seed", "31", "--objects", "120", "--domains", "2",
            "--classes", "5", "--noise", "0.8", "--out", str(corpus_dir),
        ])
        for domain in ("domain0", "domain1"):
            argv = ["dissim", str(corpus_dir), "--domain", domain, "--kind", "graph"]
            assert main(argv + ["--cap", "6", "--max-hops", "4"]) == 0
        config = experiment_config(tmp_path, corpus_dir, cap=32, max_hops=30)
        with pytest.raises(ConfigError, match="dissim_graph.tsv was built with cap=6, "
                           "max_hops=4, but the config asks for cap=32, max_hops=30"):
            run_experiment(ExperimentConfig.from_json(config))
        capsys.readouterr()
        out = tmp_path / "run"
        assert main(["experiment", "--config", str(config), "--out", str(out)]) == 2
        assert "dissim_graph.tsv" in capsys.readouterr().err
        assert not out.exists()
        # The settings it was built with run.
        config = experiment_config(tmp_path, corpus_dir, cap=6, max_hops=4)
        assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0


def test_registered_matrices_are_read_from_their_twins(tmp_path, parsed, capsys):
    # dissim -> mds -> align -> classify -> experiment: every matrix read
    # after the writes comes from a twin, and the experiment writes the same
    # bytes with the twins gone.
    corpus_dir = tmp_path / "corpus"
    main([
        "synth", "--seed", "21", "--objects", "120", "--domains", "2",
        "--classes", "5", "--noise", "0.5", "--out", str(corpus_dir),
    ])
    for domain, kind in (("domain0", "graph"), ("domain1", "graph"), ("domain1", "text")):
        argv = ["dissim", str(corpus_dir), "--domain", domain, "--kind", kind]
        assert main(argv + ["--cap", "32", "--max-hops", "30"]) == 0
    config = experiment_config(tmp_path, corpus_dir)
    labels = tmp_path / "labels.txt"
    labels.write_text("".join(f"{x}\n" for x in load_corpus(corpus_dir).labels))
    parsed.clear()

    for domain, kind in (("domain0", "graph"), ("domain1", "text")):
        argv = ["mds", str(corpus_dir / domain / f"dissim_{kind}.tsv"), "--dim", "8",
                "--out", str(tmp_path / f"emb_{kind}.tsv")]
        assert main(argv) == 0
    embeddings = [str(tmp_path / "emb_graph.tsv"), str(tmp_path / "emb_text.tsv")]
    argv = ["align", *embeddings, "--method", "gcca", "--dim", "5", "--out", str(tmp_path / "maps")]
    assert main(argv) == 0
    assert main(["classify", "--train", embeddings[1], "--test", embeddings[0],
                 "--labels", str(labels), "--maps", str(tmp_path / "maps")]) == 0
    assert main(["experiment", "--config", str(config), "--out", str(tmp_path / "run1")]) == 0
    assert parsed == []

    twins = sorted(corpus_dir.rglob("*.twin"))
    assert [p.name for p in twins] == [
        ".dissim_graph.tsv.twin", ".features.tsv.twin",
        ".dissim_graph.tsv.twin", ".dissim_text.tsv.twin", ".features.tsv.twin",
    ]
    for path in twins:
        path.unlink()
    assert main(["experiment", "--config", str(config), "--out", str(tmp_path / "run2")]) == 0
    assert {Path(p).name for p in parsed} == {"dissim_graph.tsv", "dissim_text.tsv", "features.tsv"}
    capsys.readouterr()
    for name in ("curves_gcca_synthetic.csv", "table.csv", "replicates.log", "meta.json"):
        assert (tmp_path / "run1" / name).read_bytes() == (tmp_path / "run2" / name).read_bytes()


# The matrix files, and their twins, that four commands write from
# `synth --seed 0 --objects 300`; the cap-300 geodesic is built as uint16.
# The cosine product and MDS's eigh go through BLAS, whose bits depend on its
# thread count, so the commands run in a child process at one BLAS thread.
PINNED_SCRIPT = r"""
from manifold_match.cli import main

for argv in (["synth", "--seed", "0", "--objects", "300", "--out", "corpus"],
             ["dissim", "corpus", "--domain", "domain0", "--kind", "graph"],
             ["dissim", "corpus", "--domain", "domain1", "--kind", "text"],
             ["dissim", "corpus", "--domain", "domain0", "--kind", "graph",
              "--cap", "300", "--max-hops", "280", "--out", "g300.tsv"],
             ["mds", "corpus/domain0/dissim_graph.tsv", "--dim", "10", "--out", "emb.tsv"]):
    assert main(argv) == 0, argv
"""

PINNED_SHA256 = {
    "corpus/domain0/dissim_graph.tsv":
        "ff4775c16cb803b3339553111bf63520a7334ee6b88a645c7a8988ec881981ac",
    "corpus/domain0/.dissim_graph.tsv.twin":
        "de8e5a5d915e32fca26a94ddbc172d563e74933aecd220037a8cc91f367f7d49",
    "corpus/domain1/dissim_text.tsv":
        "58fbbd28141cda34d1cb45faed91020decf8c934bb75be1e6065322cb23ad816",
    "corpus/domain1/.dissim_text.tsv.twin":
        "4cfb54ccbc21b3cfa80190c5420e41e7cbf163437e5f5d827c8f168d8e92d2d5",
    "g300.tsv": "15cf1beefc1a0d8d2242267b655d949ac6c53d27c64ad65d931b2c2fcd9bd015",
    ".g300.tsv.twin": "d85c234c9ae1bd2450a27330525097fdb2c3b3baa8eac349cfe56a6c3187b231",
    "emb.tsv": "0c085781383bbc4107abbb8f001b4d7be78d2cc3b251a8140981e498b2494552",
    ".emb.tsv.twin": "d89a4081eca4588a7533967a5977dfb9e49657e00740dbf65182826cd5112b57",
}


def test_matrix_files_match_their_pins(tmp_path):
    src = Path(manifold_match.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", PINNED_SCRIPT],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in PINNED_SHA256}
    assert digests == PINNED_SHA256
