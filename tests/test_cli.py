import json
from pathlib import Path

import numpy as np
import pytest

from manifold_match import formats
from manifold_match.cli import main
from manifold_match.corpus import (
    ROLE_RELATION,
    DomainData,
    LabeledCorpus,
    load_corpus,
    save_corpus,
)


def path_graph_corpus(tmp_path):
    ids = ("a", "b", "c")
    corpus = LabeledCorpus(
        ids,
        np.array([0, 1, 0]),
        np.array([ROLE_RELATION] * 3),
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
        corpus = load_corpus(corpus_dir)
        dm = corpus.domains[0].dissimilarities["graph"]
        assert dm.cap == 6
        assert np.array_equal(dm.values, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])

    def test_unknown_domain_is_data_error(self, tmp_path, capsys):
        corpus_dir = path_graph_corpus(tmp_path)
        code = main(["dissim", str(corpus_dir), "--domain", "nope", "--kind", "graph"])
        assert code == 2

    def test_failed_manifest_rewrite_keeps_previous_manifest(
        self, tmp_path, monkeypatch, capsys
    ):
        corpus_dir = path_graph_corpus(tmp_path)
        before = (corpus_dir / "manifest.json").read_bytes()

        def dump_then_fail(obj, fh, **kwargs):
            fh.write('{"objects": ')
            raise OSError("disk full")

        monkeypatch.setattr(formats.json, "dump", dump_then_fail)
        code = main(["dissim", str(corpus_dir), "--domain", "eng", "--kind", "graph"])
        monkeypatch.undo()
        assert code == 2
        assert "error: disk full" in capsys.readouterr().err
        assert (corpus_dir / "manifest.json").read_bytes() == before
        assert load_corpus(corpus_dir).domains[0].dissimilarities == {}
        assert not any(p.name.endswith(".tmp") for p in corpus_dir.iterdir())


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

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.tsv"
        code = main(["mds", str(missing), "--dim", "2", "--out", str(tmp_path / "x.tsv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nope.tsv" in err
        assert not (tmp_path / "x.tsv").exists()

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
