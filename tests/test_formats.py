import gzip
import json
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from manifold_match import formats
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


def test_writer_formats_each_bit_pattern(tmp_path, monkeypatch):
    # Blocks of two rows: 0.5 and -0.0 repeat across the block boundary, and
    # -0.0 shares a block with 0.0, which a value-keyed table would merge.
    monkeypatch.setattr(formats, "_BLOCK_FLOATS", 6)
    path = tmp_path / "m.tsv"
    write_matrix(np.array([
        [0.0, -0.0, 0.5],
        [np.nan, np.inf, -np.inf],
        [0.5, -0.0, -np.nan],
        [0.0, 0.5, 0.5],
        [-0.0, -0.0, -0.0],
    ]), path)
    assert path.read_bytes() == (
        b"0.0\t-0.0\t0.5\nnan\tinf\t-inf\n0.5\t-0.0\tnan\n0.0\t0.5\t0.5\n-0.0\t-0.0\t-0.0\n"
    )


@pytest.mark.parametrize(
    "shape", [(), (3,), (2, 2, 2), (0, 3), (3, 0), (0, 0)], ids=str
)
def test_writer_refuses_what_does_not_read_back(tmp_path, shape):
    path = tmp_path / "m.tsv"
    with pytest.raises(ValidationError, match=rf"m\.tsv: .*shape {re.escape(str(shape))}"):
        write_matrix(np.zeros(shape), path)
    assert not path.exists()


def test_writer_peak_memory_is_bounded(tmp_path):
    # A hop-count geodesic matrix has at most cap + 1 distinct values; its
    # whole-matrix tolist() alone would take about 32 MB.
    rng = np.random.default_rng(18)
    hops = rng.integers(0, 7, size=(1000, 1000)).astype(float)
    tracemalloc.start()
    try:
        write_matrix(hops, tmp_path / "hops.tsv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


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


# Tokens np.loadtxt parses as Python's float does, then tokens only the line
# loop accepts (an underscore, a full-width digit) or neither does.
_GOOD_TOKENS = ["0", "1.5", "-2e-3", "nan", "-nan", "inf", "-inf", "-0.0", "5e-324", "1e999",
                " 7", "8 "]
_TOKENS = [*_GOOD_TOKENS, "1_0", "\uff11", "x", "", "1 2", "0x1p3", "#1"]
_BLANK_LINES = ["", "", " ", "\t ", "\t"]


@st.composite
def matrix_files(draw):
    """Text of a would-be matrix file: mostly rows of one width, with blank and
    whitespace-only lines anywhere, so a bad line's number is a physical one."""
    width = draw(st.integers(1, 3))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(_BLANK_LINES)))
            continue
        n = draw(st.sampled_from([width] * 8 + [width + 1, max(1, width - 1)]))
        tokens = st.sampled_from(draw(st.sampled_from([_GOOD_TOKENS] * 4 + [_TOKENS])))
        line = "\t".join(draw(st.lists(tokens, min_size=n, max_size=n)))
        lines.append(draw(st.sampled_from(["", "", " "])) + line
                     + draw(st.sampled_from(["", "", "", "\t"])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines)
    return text + end if lines and draw(st.booleans()) else text


@settings(max_examples=300, deadline=None)
@given(matrix_files())
# An empty, a blank and a whitespace-only file; one value, one row, one column;
# tokens only the loop reads; a bad token, and a tab line, after a blank line.
@example("")
@example("\n\n")
@example(" \n\t\n")
@example("5e-324")
@example("1\t-0.0\tnan\n")
@example("1\n-0.0\ninf\n")
@example("1_0\t\uff11\n")
@example("1\t2\n\n \n3\tx\n")
@example("1\t2\r\n\t\r\n3\r\n")
def test_reader_matches_line_loop(tmp_path_factory, text):
    # read_matrix gives the line loop's array bit for bit, or its error.
    path = tmp_path_factory.mktemp("diff") / "m.tsv"
    path.write_bytes(text.encode("utf-8"))
    try:
        expected = formats._read_matrix_by_line(path)
    except FormatError as exc:
        with pytest.raises(FormatError) as raised:
            read_matrix(path)
        assert str(raised.value) == str(exc)
        return
    values = read_matrix(path)
    assert values.dtype == expected.dtype and values.shape == expected.shape
    assert values.tobytes() == expected.tobytes()


def test_reader_reads_a_gz_name_as_text(tmp_path):
    # np.loadtxt given a path would open it decompressed.
    path = tmp_path / "m.gz"
    with gzip.open(path, "wt") as fh:
        fh.write("1\t2\n")
    with pytest.raises(FormatError, match=r"m\.gz: .*utf-8"):
        read_matrix(path)


def test_reader_reads_a_pipe_once():
    # A pipe cannot be rewound; these rows take more than one read of it.
    rows = [[i, -i] for i in range(20000)]
    r, w = os.pipe()

    def feed():
        with os.fdopen(w, "w") as fh:
            fh.write("".join(f"{a}\t{b}\n" for a, b in rows))

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        values = read_matrix(f"/dev/fd/{r}")
    finally:
        os.close(r)
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert np.array_equal(values, rows)


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
        (read_matrix, b"\xff\n", "utf-8"),
        (read_matrix, b"1\t2\n" * 40000 + b"\xff\n", "utf-8"),
    ],
    ids=["records-not-utf8", "json-not-utf8", "json-truncated", "matrix-not-utf8",
         "matrix-not-utf8-after-rows"],
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
