"""Golden-output gate: the experiment contract files for fixed seeds.

Four small seeded configs (criterion 10's GCCA config, a CCA config, a
regularized one and one whose ``shared_dim`` exceeds the text view's
effective MDS dimension, so ``d_shared`` shrinks and warns) must reproduce
the committed ``curves_*.csv``, ``table.csv``, ``replicates.log`` and
``warnings.log`` under ``tests/golden/<name>/`` byte for byte, both through
``run_experiment`` + ``emit_curves`` and through the ``experiment``
subcommand. Re-pin them only with per-cell evidence that
every mean moved by less than its bootstrap SE, by running
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from manifold_match.cli import main
from manifold_match.corpus import save_corpus, synthesize_corpus
from manifold_match.experiment import ExperimentConfig, emit_curves, run_experiment

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_BASE = {
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
    "replicates": 3,
    "seed": 99,
    "schedule": [{"fraction": 0.5, "mds_dim": 8}, {"fraction": 1.0, "mds_dim": 8}],
    "cap": 32,
    "max_hops": 30,
    "feature": "synthetic",
}

CONFIGS = {
    "gcca": {},
    "cca": {"method": "cca", "combinations": ["GF->GE", "TF->GE"], "averaged_views": {}},
    "regularized": {"regularized": True},
    "shrink": {"shared_dim": 7},
}


def config_dict(name, corpus_dir):
    return {**_BASE, **CONFIGS[name], "corpus": str(corpus_dir)}


def contract_names(config):
    return [
        f"curves_{config['method']}_{config['feature']}.csv",
        "table.csv",
        "replicates.log",
        "warnings.log",
    ]


def write_corpus(path):
    # criterion 10's corpus: synth --seed 31 --objects 120 --domains 2 --classes 5 --noise 0.8
    save_corpus(synthesize_corpus(31, 120, 2, 5, 0.8), path)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "corpus"
    write_corpus(path)
    return path


def assert_matches_golden(name, config, out_dir):
    for file_name in contract_names(config):
        expected = (GOLDEN_DIR / name / file_name).read_bytes()
        assert (out_dir / file_name).read_bytes() == expected, f"{name}/{file_name}"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_library_outputs_match_golden(name, corpus_dir, tmp_path):
    config = config_dict(name, corpus_dir)
    report = run_experiment(ExperimentConfig.from_dict(config))
    emit_curves(report, tmp_path / "out")
    assert_matches_golden(name, config, tmp_path / "out")


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_cli_outputs_match_golden(name, corpus_dir, tmp_path, capsys):
    config = config_dict(name, corpus_dir)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config_path), "--out", str(out)]) == 0
    assert_matches_golden(name, config, out)


def record(golden_dir=GOLDEN_DIR):
    """Rewrite every golden file from the current code."""
    with tempfile.TemporaryDirectory() as scratch:
        corpus = Path(scratch) / "corpus"
        write_corpus(corpus)
        for name in CONFIGS:
            config = config_dict(name, corpus)
            emitted = Path(scratch) / name
            emit_curves(run_experiment(ExperimentConfig.from_dict(config)), emitted)
            out = Path(golden_dir) / name
            out.mkdir(parents=True, exist_ok=True)
            for file_name in contract_names(config):
                (out / file_name).write_bytes((emitted / file_name).read_bytes())


if __name__ == "__main__":
    record(sys.argv[1] if len(sys.argv) > 1 else GOLDEN_DIR)
