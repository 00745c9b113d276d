"""Broken JSON inputs end in a data error, never a traceback.

Each field of four JSON documents is deleted, or set in turn to each of a
dozen wrong values: every key of an object and the first two items of a
list, at every depth. The documents are a runnable experiment config and
its corpus's manifest (with a registered geodesic entry), run through
``manifold-match experiment``; an alignment directory's ``meta.json``, run
through ``manifold-match classify --maps``; and an experiment's
``meta.json``, read back by ``reconstruct_report``. A command must exit 0,
or 2 with a message naming a file it read; ``reconstruct_report`` must
return a report or raise a ``FormatError`` naming ``meta.json``.
"""

import copy
import functools
import json
import operator

import pytest

from manifold_match.cli import main
from manifold_match.errors import FormatError
from manifold_match.experiment import reconstruct_report

WRONG = [None, True, 0, -1, 2.5, "x", [], {}, [1], {"a": 1}, "", 1e9]
DELETED = object()


def field_paths(value, prefix=()):
    """The path of each field of a JSON document: each key of an object and
    the first two items of a list, parents before children."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value[:2])
    else:
        children = ()
    for key, child in children:
        yield prefix + (key,)
        yield from field_paths(child, prefix + (key,))


def damaged(document):
    """Each ``(path, value, copy of document with the field at path set to
    value or deleted)``."""
    for path in field_paths(document):
        for value in (DELETED, *WRONG):
            broken = copy.deepcopy(document)
            *parents, last = path
            parent = functools.reduce(operator.getitem, parents, broken)
            if value is DELETED:
                del parent[last]
            else:
                parent[last] = value
            yield path, value, broken


def cli_failures(capsys, argv, path, named):
    """Run ``argv`` on each damaged copy of the JSON document at ``path``;
    the cases that end other than in exit 0, or exit 2 naming one of
    ``named`` on stderr."""
    original = path.read_text()
    failures = []
    try:
        for field, value, broken in damaged(json.loads(original)):
            path.write_text(json.dumps(broken))
            capsys.readouterr()
            try:
                code = main(argv)
            except (Exception, SystemExit) as exc:  # a traceback, or a usage error
                failures.append((field, value, repr(exc)))
                continue
            err = capsys.readouterr().err
            if code != 0 and (code != 2 or not any(str(name) in err for name in named)):
                failures.append((field, value, code, err))
    finally:
        path.write_text(original)
    return failures


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A 40-object corpus with domain0's geodesic registered at cap 32,
    max_hops 30."""
    root = tmp_path_factory.mktemp("sweep") / "corpus"
    assert main(["synth", "--seed", "5", "--objects", "40", "--domains", "2", "--classes", "4",
                 "--noise", "0.3", "--out", str(root)]) == 0
    assert main(["dissim", str(root), "--domain", "domain0", "--kind", "graph",
                 "--cap", "32", "--max-hops", "30"]) == 0
    return root


def write_config(tmp_path, corpus):
    config = {
        "corpus": str(corpus),
        "relation_classes": [0, 2],
        "classifier_classes": [1, 3],
        "views": [
            {"tag": "GE", "domain": "domain0", "kind": "graph"},
            {"tag": "TF", "domain": "domain1", "kind": "text"},
        ],
        "combinations": ["TF->GE", "GTF->GE"],
        "averaged_views": {"GTF": ["GE", "TF"]},
        "method": "gcca",
        "shared_dim": 2,
        "kappa": 3,
        "replicates": 1,
        "seed": 3,
        "schedule": [{"fraction": 1.0, "mds_dim": 4}],
        "cap": 32,
        "max_hops": 30,
        "feature": "sweep",
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_broken_config_field_is_a_data_error(tmp_path, capsys, corpus):
    config = write_config(tmp_path, corpus)
    argv = ["experiment", "--config", str(config), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    # A corpus field pointing elsewhere names the manifest looked for there.
    failures = cli_failures(capsys, argv, config, [config, corpus, "manifest.json"])
    assert not failures, "\n".join(map(repr, failures))


def test_broken_manifest_field_is_a_data_error(tmp_path, capsys, corpus):
    config = write_config(tmp_path, corpus)
    argv = ["experiment", "--config", str(config), "--out", str(tmp_path / "out")]
    manifest = corpus / "manifest.json"
    assert json.loads(manifest.read_text())["domains"][0]["dissimilarities"]["graph"] == {
        "file": "domain0/dissim_graph.tsv", "cap": 32, "max_hops": 30}
    assert main(argv) == 0
    # A domain the config names and the manifest lacks is named with the config.
    failures = cli_failures(capsys, argv, manifest, [corpus, config])
    assert not failures, "\n".join(map(repr, failures))


def test_broken_alignment_meta_field_is_a_data_error(tmp_path, capsys, corpus):
    embeddings = []
    for domain in ("domain0", "domain1"):
        dissimilarity, out = tmp_path / f"{domain}_text.tsv", tmp_path / f"{domain}.tsv"
        assert main(["dissim", str(corpus), "--domain", domain, "--kind", "text",
                     "--out", str(dissimilarity)]) == 0
        assert main(["mds", str(dissimilarity), "--dim", "3", "--out", str(out)]) == 0
        embeddings.append(str(out))
    maps = tmp_path / "maps"
    assert main(["align", *embeddings, "--method", "cca", "--dim", "2", "--out", str(maps)]) == 0
    labels = tmp_path / "labels.txt"
    labels.write_text("".join(f"{k % 4}\n" for k in range(40)))
    argv = ["classify", "--train", embeddings[1], "--test", embeddings[0],
            "--labels", str(labels), "--maps", str(maps)]
    assert main(argv) == 0
    failures = cli_failures(capsys, argv, maps / "meta.json", [maps])
    assert not failures, "\n".join(map(repr, failures))


def test_broken_report_meta_field_is_a_format_error(tmp_path, corpus):
    config = write_config(tmp_path, corpus)
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
    meta = out / "meta.json"
    failures = []
    for field, value, broken in damaged(json.loads(meta.read_text())):
        meta.write_text(json.dumps(broken))
        try:
            reconstruct_report(out)
        except FormatError as exc:
            if str(meta) not in str(exc):
                failures.append((field, value, str(exc)))
        except Exception as exc:  # a traceback
            failures.append((field, value, repr(exc)))
    assert not failures, "\n".join(map(repr, failures))
