"""The package runs on numpy alone: scipy is a test oracle, not a dependency."""

import os
import subprocess
import sys
from pathlib import Path

import manifold_match

# Blocks scipy, imports every package module and runs each command once; any
# scipy import fails with ImportError, and none may have been loaded.
SCRIPT = r"""
import importlib, json, pkgutil, sys
sys.modules["scipy"] = None

import manifold_match
from manifold_match.cli import main

for info in pkgutil.iter_modules(manifold_match.__path__):
    importlib.import_module(f"manifold_match.{info.name}")

def run(*args):
    code = main(list(args))
    assert code == 0, (args, code)

run("synth", "--seed", "5", "--objects", "60", "--domains", "2", "--classes", "5",
    "--noise", "0.5", "--out", "corpus")
run("dissim", "corpus", "--domain", "domain0", "--kind", "graph", "--out", "g0.tsv")
run("dissim", "corpus", "--domain", "domain1", "--kind", "text", "--out", "t1.tsv")
run("mds", "g0.tsv", "--dim", "4", "--out", "e0.tsv", "--scree", "scree.csv")
run("mds", "t1.tsv", "--dim", "4", "--out", "e1.tsv")
run("align", "e0.tsv", "e1.tsv", "--method", "cca", "--dim", "2", "--out", "maps")
with open("labels.txt", "w") as fh:
    fh.write("".join(f"{label}\n" for label in manifold_match.load_corpus("corpus").labels))
run("classify", "--train", "e1.tsv", "--test", "e0.tsv", "--labels", "labels.txt",
    "--kappa", "3", "--maps", "maps", "--train-view", "2", "--test-view", "1")
config = {
    "corpus": "corpus",
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
    "kappa": 3,
    "replicates": 2,
    "seed": 7,
    "schedule": [{"fraction": 0.5, "mds_dim": 6}, {"fraction": 1.0, "mds_dim": 6}],
    "feature": "synthetic",
}
with open("config.json", "w") as fh:
    json.dump(config, fh)
run("experiment", "--config", "config.json", "--out", "run")

loaded = sorted(m for m, mod in sys.modules.items()
                if mod is not None and (m == "scipy" or m.startswith("scipy.")))
assert loaded == [], loaded
print("ok")
"""


def test_runs_with_scipy_blocked(tmp_path):
    src = Path(manifold_match.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.endswith("ok\n")
