import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from manifold_match.corpus import DomainData, LabeledCorpus, load_corpus, save_corpus
from manifold_match.errors import FormatError, ValidationError
from manifold_match.formats import (
    read_json,
    read_matrix,
    read_records,
    write_json,
    write_lines,
    write_matrix,
)


def test_writer_bytes(tmp_path):
    path = tmp_path / "m.tsv"
    write_matrix(np.array([[-0.0, 5e-324], [0.1, 1e308]]), path)
    assert path.read_bytes() == b"-0.0\t5e-324\n0.1\t1e+308\n"


@settings(max_examples=200, deadline=None)
@given(
    arrays(
        np.float64,
        array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    )
)
def test_roundtrip_is_exact(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("rt") / "m.tsv"
    write_matrix(values, path)
    back = read_matrix(path)
    assert back.shape == values.shape
    assert np.array_equal(back, values)


def test_blank_lines_ignored(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("\n1.0\t2.0\n\n3.0\t4.0\n\n")
    assert np.array_equal(read_matrix(path), [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize(
    "text, where",
    [
        ("1.0\t2.0\n3.0\n", "m.tsv:2"),
        ("1.0\t2.0\n\n3.0\tx\n", "m.tsv:3"),
        ("\n\n", "m.tsv: no matrix rows"),
    ],
)
def test_malformed_input_names_line(tmp_path, text, where):
    path = tmp_path / "m.tsv"
    path.write_text(text)
    with pytest.raises(FormatError, match=where):
        read_matrix(path)


def test_write_json_bytes_and_no_leftovers(tmp_path):
    path = tmp_path / "meta.json"
    write_json({"b": [1, 2], "a": None}, path)
    assert path.read_text() == '{\n  "a": null,\n  "b": [\n    1,\n    2\n  ]\n}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["meta.json"]
    assert json.loads(path.read_text()) == {"a": None, "b": [1, 2]}


def test_records_are_numbered_stripped_and_split(tmp_path):
    path = tmp_path / "r.tsv"
    path.write_text("\n a\tb \n\t\nc\r\n")
    assert list(read_records(path)) == [(2, ["a", "b"]), (4, ["c"])]


@pytest.mark.parametrize(
    "read, data, match",
    [
        (read_records, b"\xff\n", "utf-8"),
        (read_json, b"\xff\n", "utf-8"),
        (read_json, b"{", "Expecting"),
    ],
    ids=["records-not-utf8", "json-not-utf8", "json-truncated"],
)
def test_unreadable_content_names_the_file(tmp_path, read, data, match):
    path = tmp_path / "f.txt"
    path.write_bytes(data)
    with pytest.raises(FormatError, match=f"f.txt: .*{match}"):
        list(read(path))


def test_write_lines_replaces_the_file_whole(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("a much longer previous version\n" * 3)
    write_lines(path, iter(["x,y", "1,2"]))
    assert path.read_bytes() == b"x,y\n1,2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


@pytest.mark.parametrize("make", [os.mkdir, os.mkfifo], ids=["directory", "fifo"])
def test_write_lines_refuses_what_is_not_a_regular_file(tmp_path, make):
    path = tmp_path / "out"
    make(path)
    with pytest.raises(ValidationError, match="not a regular file"):
        write_lines(path, ["x"])
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


# An object id is one UTF-8 edges.tsv field: no tab or line break, and no
# surrounding whitespace.
_IDS = st.text(
    st.characters(codec="utf-8", exclude_characters="\t\n\r"), min_size=1, max_size=6
).filter(lambda text: text == text.strip())


@st.composite
def corpora(draw):
    ids = draw(st.lists(_IDS, min_size=1, max_size=6, unique=True))
    n = len(ids)
    labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
    features = draw(arrays(
        np.float64, (n, draw(st.integers(1, 3))),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    ))
    domain = DomainData("d0", features=features, edges=np.array(edges, dtype=int).reshape(-1, 2))
    return LabeledCorpus(tuple(ids), np.array(labels), (domain,))


@settings(max_examples=100, deadline=None)
@given(corpora())
def test_saved_corpus_loads_back(tmp_path_factory, corpus):
    path = tmp_path_factory.mktemp("corpus")
    save_corpus(corpus, path)
    back = load_corpus(path)
    assert back.object_ids == corpus.object_ids
    assert np.array_equal(back.labels, corpus.labels)
    (saved,), (loaded,) = corpus.domains, back.domains
    assert np.array_equal(loaded.edges, saved.edges)
    assert loaded.features.tobytes() == saved.features.tobytes()
