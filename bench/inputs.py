"""Seeded input generation for the benchmark workloads.

Writes a corpus directory in the format ``manifold_match.corpus.load_corpus``
reads, plus the JSON configs and label files each workload feeds to the
program. Nothing here imports the package: the inputs depend on the workload
seed and this file only, so a change to the program cannot change them.

The geometry mirrors the package's own synthetic corpus: five classes on arcs
of a ring in a 3-D latent space, each domain a scaled orthogonal map of the
latent points into ``5 + k`` dimensions with Gaussian noise, and a geometric
graph per domain (mean degree about 8) built from an independently noised
copy. Domain 1 therefore has 6 feature columns, which is what gives the text
view its small effective MDS dimension.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import pdist, squareform

N_CLASSES = 5
N_DOMAINS = 2
NOISE = 0.8
RELATION_CLASSES = [0, 2, 4]
CLASSIFIER_CLASSES = [1, 3]

_LATENT_DIM = 3
_RING_RADIUS = 4.0
_ARC_FILL = 0.7
_BOX = 0.8
_TARGET_DEGREE = 8

VIEWS = [
    {"tag": "GE", "domain": "domain0", "kind": "graph"},
    {"tag": "GF", "domain": "domain1", "kind": "graph"},
    {"tag": "TF", "domain": "domain1", "kind": "text"},
]

# Objects per workload. paper-scale matches the published corpus size.
OBJECTS = {"paper-scale": 1382, "ladder": 600, "cli-staged": 1000}

# Replicates per experiment call, chosen so one iteration of each workload
# stays well under the run length.
PAPER_REPLICATES = 3
LADDER_REPLICATES = 3
STAGED_REPLICATES = 3

STAGED_MDS_DIM = 40
STAGED_SHARED_DIM = 5


def _geometric_edges(points):
    """Distance-threshold graph at the target mean degree, components bridged
    through their nearest cross pair so every geodesic is finite."""
    n = points.shape[0]
    dist = pdist(points)
    k = min(dist.size, max(1, (_TARGET_DEGREE * n) // 2))
    threshold = np.partition(dist, k - 1)[k - 1]
    iu = np.triu_indices(n, k=1)
    mask = dist <= threshold
    rows, cols = list(iu[0][mask]), list(iu[1][mask])
    square = squareform(dist)
    while True:
        graph = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        count, comp = connected_components(graph, directed=False)
        if count == 1:
            break
        base = np.flatnonzero(comp == comp[0])
        rest = np.flatnonzero(comp != comp[0])
        sub = square[np.ix_(base, rest)]
        bi, rj = np.unravel_index(np.argmin(sub), sub.shape)
        a, b = sorted((int(base[bi]), int(rest[rj])))
        rows.append(a)
        cols.append(b)
    return sorted(zip((int(r) for r in rows), (int(c) for c in cols)))


def synth_corpus(seed, n_objects):
    """Labels, feature matrices and edge lists, deterministic in ``seed``."""
    rng = np.random.default_rng([seed, n_objects])
    labels = np.arange(n_objects) % N_CLASSES
    rng.shuffle(labels)
    slot = 2.0 * np.pi / N_CLASSES
    angle = labels * slot + rng.uniform(
        -0.5 * _ARC_FILL * slot, 0.5 * _ARC_FILL * slot, size=n_objects
    )
    latent = rng.uniform(-_BOX, _BOX, size=(n_objects, _LATENT_DIM))
    latent[:, 0] += _RING_RADIUS * np.cos(angle)
    latent[:, 1] += _RING_RADIUS * np.sin(angle)
    domains = []
    for k in range(N_DOMAINS):
        basis, _ = np.linalg.qr(rng.normal(size=(_LATENT_DIM + 2 + k, _LATENT_DIM)))
        signal = (1.0 + 0.3 * k) * (latent @ basis.T)
        spread = signal.std()
        features = signal + NOISE * spread * rng.normal(size=signal.shape)
        link_copy = signal + NOISE * spread * rng.normal(size=signal.shape)
        domains.append((features, _geometric_edges(link_copy)))
    return labels, domains


def write_corpus(root, labels, domains):
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    ids = [f"obj{i:05d}" for i in range(len(labels))]
    entries = []
    for k, (features, edges) in enumerate(domains):
        name = f"domain{k}"
        (root / name).mkdir(exist_ok=True)
        with open(root / name / "features.tsv", "w", encoding="utf-8") as fh:
            for row in features:
                fh.write("\t".join(repr(float(x)) for x in row) + "\n")
        with open(root / name / "edges.tsv", "w", encoding="utf-8") as fh:
            for i, j in edges:
                fh.write(f"{ids[i]}\t{ids[j]}\n")
        entries.append({
            "name": name,
            "features": f"{name}/features.tsv",
            "edges": f"{name}/edges.tsv",
            "dissimilarities": {},
        })
    manifest = {
        "objects": {
            "ids": ids,
            "labels": [int(x) for x in labels],
            "roles": ["relation_learning"] * len(ids),
        },
        "domains": entries,
    }
    with open(root / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _base_config(seed):
    return {
        "corpus": "corpus",
        "relation_classes": RELATION_CLASSES,
        "classifier_classes": CLASSIFIER_CLASSES,
        "views": VIEWS,
        "kappa": 5,
        "seed": seed,
        "feature": "synthetic",
    }


def experiment_configs(workload, seed):
    """File name -> experiment config for the workload's experiment calls."""
    base = _base_config(seed)
    if workload == "paper-scale":
        paper = dict(
            base, regularized=True, shared_dim=15, replicates=PAPER_REPLICATES,
            schedule=[{"fraction": 1.0, "mds_dim": 200}], cap=32, max_hops=30,
        )
        return {
            "config_gcca.json": dict(
                paper, method="gcca", combinations=["GTF->GE"],
                averaged_views={"GTF": ["GF", "TF"]},
            ),
            "config_cca.json": dict(paper, method="cca", combinations=["GF->GE"]),
        }
    gcca = dict(
        base, method="gcca", combinations=["GF->GE", "TF->GE", "GTF->GE"],
        averaged_views={"GTF": ["GF", "TF"]},
    )
    if workload == "ladder":
        # Default ladder, shared_dim and cap/max_hops: the fields are omitted.
        return {"config.json": dict(gcca, replicates=LADDER_REPLICATES)}
    if workload == "cli-staged":
        return {"config.json": dict(
            gcca, replicates=STAGED_REPLICATES, shared_dim=STAGED_SHARED_DIM,
            schedule=[
                {"fraction": 0.5, "mds_dim": STAGED_MDS_DIM},
                {"fraction": 1.0, "mds_dim": 2 * STAGED_MDS_DIM},
            ],
        )}
    raise ValueError(f"unknown workload {workload!r}")


def shared_dim(workload):
    """The shared dimension the workload asks alignment for."""
    return STAGED_SHARED_DIM if workload == "cli-staged" else 15


def generate(workload, seed, root):
    """Write every input of one workload run under ``root``."""
    root = Path(root)
    labels, domains = synth_corpus(seed, OBJECTS[workload])
    write_corpus(root / "corpus", labels, domains)
    for name, config in experiment_configs(workload, seed).items():
        _write_json(root / name, config)
    if workload == "cli-staged":
        with open(root / "labels.txt", "w", encoding="utf-8") as fh:
            fh.write("".join(f"{int(x)}\n" for x in labels))


def cli_staged_steps():
    """(call name, argv) of the file-based pipeline, in order."""
    steps = [
        (f"dissim-{v['tag']}", ["dissim", "corpus", "--domain", v["domain"], "--kind", v["kind"]])
        for v in VIEWS
    ]
    for v in VIEWS:
        steps.append((f"mds-{v['tag']}", [
            "mds", f"corpus/{v['domain']}/dissim_{v['kind']}.tsv",
            "--dim", str(STAGED_MDS_DIM), "--out", f"emb_{v['tag']}.tsv",
            "--scree", f"scree_{v['tag']}.csv",
        ]))
    steps.append(("align", [
        "align", *(f"emb_{v['tag']}.tsv" for v in VIEWS), "--method", "gcca",
        "--dim", str(STAGED_SHARED_DIM), "--out", "maps",
    ]))
    steps.append(("classify", [
        "classify", "--train", "emb_GF.tsv", "--test", "emb_GE.tsv",
        "--labels", "labels.txt", "--maps", "maps", "--train-view", "2", "--test-view", "1",
    ]))
    steps.append(("experiment", ["experiment", "--config", "config.json", "--out", "out"]))
    return steps


def experiment_calls(workload):
    """Experiment call name -> (config file, output directory)."""
    if workload == "paper-scale":
        return {f"experiment-{m}": (f"config_{m}.json", f"out_{m}") for m in ("gcca", "cca")}
    return {"experiment": ("config.json", "out")}


def call_names(workload):
    """Every pipeline call one iteration of the workload attempts."""
    if workload == "cli-staged":
        return [name for name, _ in cli_staged_steps()]
    return list(experiment_calls(workload))
