"""Wrong numeric options end in a one-line error, never a traceback.

Each numeric option of ``synth``, ``dissim``, ``mds``, ``align`` and
``classify`` is set in turn to a wrong value of its type, on a 60-object
corpus: a float option to a negative number, NaN and infinity; an integer
option to zero and a negative number where those are wrong, and a count,
dimension or view number to a value far above its bound. The counts that
size a synthetic corpus get no large value, which would be allocated before
it could be refused. Each command must exit 1 or 2 with one line on stderr.
"""

import pytest

from manifold_match.cli import main

FAR = str(10**9)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A synthetic corpus, each domain's text embedding at dimension 3, the
    CCA maps of the two and a labels file."""
    root = tmp_path_factory.mktemp("options")
    corpus = root / "corpus"
    assert main(["synth", "--seed", "5", "--objects", "60", "--domains", "2", "--classes", "4",
                 "--noise", "0.3", "--out", str(corpus)]) == 0
    embeddings = []
    for domain in ("domain0", "domain1"):
        dissimilarity, out = root / f"{domain}_text.tsv", root / f"{domain}.tsv"
        assert main(["dissim", str(corpus), "--domain", domain, "--kind", "text",
                     "--out", str(dissimilarity)]) == 0
        assert main(["mds", str(dissimilarity), "--dim", "3", "--out", str(out)]) == 0
        embeddings.append(str(out))
    maps = root / "maps"
    assert main(["align", *embeddings, "--dim", "2", "--out", str(maps)]) == 0
    labels = root / "labels.txt"
    labels.write_text("".join(f"{k % 4}\n" for k in range(60)))
    return {"root": root, "corpus": str(corpus), "embeddings": embeddings, "maps": str(maps),
            "labels": str(labels), "dissimilarity": str(root / "domain0_text.tsv")}


def synth(p, option, value):
    return ["synth", "--seed", "1", "--objects", "20", "--classes", "4", option, value,
            "--out", str(p["root"] / "synth")]


def dissim(p, option, value):
    return ["dissim", p["corpus"], "--domain", "domain0", "--kind", "graph", option, value,
            "--out", str(p["root"] / "graph.tsv")]


def mds(p, option, value):
    return ["mds", p["dissimilarity"], option, value, "--out", str(p["root"] / "e.tsv")]


def align(p, option, value):
    return ["align", *p["embeddings"], "--dim", "2", option, value,
            "--out", str(p["root"] / "m")]


def classify(p, option, value):
    return ["classify", "--train", p["embeddings"][1], "--test", p["embeddings"][0],
            "--labels", p["labels"], "--maps", p["maps"], option, value]


# command: {option: its wrong values}
WRONG = {
    synth: {
        "--seed": ["-1"],
        "--objects": ["0", "-1", "3"],
        "--classes": ["0", "-1", "1"],
        "--domains": ["0", "-1", "1"],
        "--noise": ["-1", "nan", "inf"],
    },
    dissim: {
        "--cap": ["0", "-1", "4", str(2**60)],
        "--max-hops": ["0", "-1", FAR],
    },
    mds: {"--dim": ["0", "-1", FAR]},
    align: {
        "--dim": ["0", "-1", FAR],
        "--ridge": ["-1", "nan", "inf"],
    },
    classify: {
        "--kappa": ["0", "-1", FAR],
        "--train-view": ["0", "-1", FAR],
        "--test-view": ["0", "-1", FAR],
    },
}


def cases():
    for command, options in WRONG.items():
        for option, values in options.items():
            for value in values:
                yield pytest.param(command, option, value,
                                   id=f"{command.__name__}{option}={value}")


@pytest.mark.parametrize("command, option, value", cases())
def test_a_wrong_numeric_option_is_a_one_line_error(inputs, capsys, command, option, value):
    argv = command(inputs, option, value)
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (1, 2), (code, err)
    assert err.endswith("\n") and err.count("\n") == 1, err
