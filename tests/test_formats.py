import gzip
import json
import os
import re
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from conftest import traced_peak
from manifold_match import formats
from manifold_match.corpus import (DomainData, LabeledCorpus, load_corpus, save_corpus,
                                   synthesize_corpus)
from manifold_match.dissimilarity import graph_geodesic, save_dissimilarity_tsv
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


@pytest.mark.parametrize("values", [
    np.array([[0, 1 + 2j], [1 + 2j, 0]]),
    np.array([[True, False], [False, True]]),
    np.array([["0", "1.5"], ["1.5", "0"]]),
    np.array([[0.0, 1.5], [1.5, 0.0]], dtype=object),
], ids=["complex", "bool", "string", "object"])
@pytest.mark.parametrize("write", [write_matrix, save_dissimilarity_tsv])
def test_writer_refuses_what_is_not_real_numbers(tmp_path, write, values):
    # Nothing is cast: complex parts are not dropped, strings not parsed.
    path = tmp_path / "m.tsv"
    message = rf"^{re.escape(str(path))}: values are not real numbers: a {values.dtype} array$"
    with pytest.raises(ValidationError, match=message):
        write(values, path)
    assert list(tmp_path.iterdir()) == []


def test_writer_peak_memory_is_bounded(tmp_path):
    # A hop-count geodesic matrix has at most cap + 1 distinct values; its
    # whole-matrix tolist() alone would take about 32 MB.
    rng = np.random.default_rng(18)
    hops = rng.integers(0, 7, size=(1000, 1000)).astype(float)
    peak, _ = traced_peak(lambda: write_matrix(hops, tmp_path / "hops.tsv"))
    assert peak < 8e6


@pytest.mark.parametrize(
    "kind, cap", [("hops", 8e6), ("distinct", 30e6)], ids=["hops", "distinct"]
)
def test_symmetric_writer_peak_memory_is_bounded(tmp_path, kind, cap):
    # A symmetric array keeps the text of the columns above each block until
    # their mirror rows are written: at most about n^2/4 values' text, joined
    # per block, beside the block being formatted.
    rng = np.random.default_rng(18)
    if kind == "hops":
        values = rng.integers(0, 7, size=(1000, 1000)).astype(float)
        values = np.maximum(values, values.T)
    else:
        values = rng.random((1000, 1000))
        values = values + values.T
    peak, _ = traced_peak(lambda: write_matrix(values, tmp_path / "m.tsv"))
    assert peak < cap


def test_hop_counts_are_cast_a_block_at_a_time(tmp_path):
    # A geodesic held as one byte per hop count: cast to float whole, it
    # made an 8n^2 temporary, a 1.56 x 8n^2 peak; a block of rows at a time,
    # 0.56 x 8n^2. The text is that of the float matrix; the twin keeps the
    # counts as bytes, n^2 of them beside its header.
    corpus = synthesize_corpus(3, 1000, 2, 5, 0.8)
    n = corpus.n_total
    hops = graph_geodesic(corpus.domains[0].edges, n, cap=6, max_hops=4)
    assert hops.dtype == np.uint8
    peak, _ = traced_peak(lambda: save_dissimilarity_tsv(hops, tmp_path / "hops.tsv"))
    assert peak < 0.75 * 8 * n * n
    write_matrix(hops.astype(float), tmp_path / "float.tsv")
    assert (tmp_path / "hops.tsv").read_bytes() == (tmp_path / "float.tsv").read_bytes()
    assert (tmp_path / ".hops.tsv.twin").stat().st_size == formats._TWIN_HEAD.size + n * n
    back = formats._read_twin(tmp_path / "hops.tsv")
    assert back.dtype == np.uint8 and np.array_equal(back, hops)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
def test_unsigned_twin_round_trips_in_its_type(tmp_path, parsed, dtype):
    values = np.array([[0, 1, np.iinfo(dtype).max], [7, 0, 2]], dtype=dtype)
    path = tmp_path / "m.tsv"
    write_matrix(values, path)
    assert twin(path).stat().st_size == formats._TWIN_HEAD.size + values.nbytes
    back = read_matrix(path)
    assert parsed == []
    assert back.dtype == dtype and np.array_equal(back, values)
    twin(path).unlink()
    from_text = read_matrix(path)
    assert from_text.dtype == np.float64 and np.array_equal(from_text, values)


@pytest.mark.parametrize("values", [
    # The largest uint64 parses from the text as 2**64, which a uint64 twin could not hold.
    np.array([[0, 2**64 - 1]], dtype=np.uint64),
    np.array([[0, -3]], dtype=np.int64),
    np.array([[0.5, 1.0]], dtype=np.float32),
], ids=["uint64", "int64", "float32"])
def test_other_twins_hold_float64(tmp_path, parsed, values):
    path = tmp_path / "m.tsv"
    write_matrix(values, path)
    assert twin(path).stat().st_size == formats._TWIN_HEAD.size + 8 * values.size
    expected = formats._read_matrix_by_line(path)
    parsed.clear()
    back = read_matrix(path)
    assert parsed == []
    assert back.dtype == np.float64 and back.tobytes() == expected.tobytes()


def test_writer_formats_each_value_of_a_symmetric_array_once(tmp_path, monkeypatch):
    # One row per block: row i's left part comes from the rows above it, so
    # only the upper triangle's six values are formatted, not nine.
    calls = []

    def counting_repr(x):
        calls.append(x)
        return repr(x)

    monkeypatch.setattr(formats, "_BLOCK_FLOATS", 3)
    monkeypatch.setattr(formats, "repr", counting_repr, raising=False)
    path = tmp_path / "m.tsv"
    write_matrix(np.array([[0.0, 1.0, 2.0], [1.0, 0.5, 3.0], [2.0, 3.0, 0.25]]), path)
    assert sorted(calls) == [0.0, 0.25, 0.5, 1.0, 2.0, 3.0]
    assert path.read_bytes() == b"0.0\t1.0\t2.0\n1.0\t0.5\t3.0\n2.0\t3.0\t0.25\n"


def test_writer_mirrors_only_what_is_equal_bit_for_bit(tmp_path, monkeypatch):
    # 0.0 == -0.0: a test on values would take this array as symmetric and
    # write row 1, a block of its own, from row 0's "0.0".
    monkeypatch.setattr(formats, "_BLOCK_FLOATS", 2)
    path = tmp_path / "m.tsv"
    write_matrix(np.array([[1.0, 0.0], [-0.0, 1.0]]), path)
    assert path.read_bytes() == b"1.0\t0.0\n-0.0\t1.0\n"


_SPECIAL = [0.0, -0.0, 0.5, 5e-324, 1e308, np.inf, -np.inf, np.nan, -np.nan]


@st.composite
def nearly_symmetric(draw):
    """A square array of few distinct values, equal to its transpose bit for
    bit except where a zero's mirror was given the other sign."""
    n = draw(st.integers(1, 7))
    values = draw(arrays(np.float64, (n, n), elements=st.sampled_from(_SPECIAL) | st.floats()))
    lower = np.tril_indices(n, -1)
    values[lower] = values.T[lower]
    flip = draw(arrays(np.bool_, (n, n))) & (values == 0.0)
    flip[np.triu_indices(n)] = False
    np.negative(values, out=values, where=flip)
    return values


@settings(max_examples=300, deadline=None)
@given(nearly_symmetric(), st.integers(1, 50))
def test_writer_matches_repr_on_nearly_symmetric_arrays(tmp_path_factory, values, block_floats):
    path = tmp_path_factory.mktemp("sym") / "m.tsv"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "_BLOCK_FLOATS", block_floats)
        write_matrix(values, path)
    expected = "".join("\t".join(map(repr, row)) + "\n" for row in values.tolist())
    assert path.read_bytes() == expected.encode()


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


# Tokens Python's float parses in their plain form, then tokens it parses in
# another form (an underscore, a full-width digit) or refuses.
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
    # read_matrix gives the oracle's array bit for bit, or an error naming
    # the oracle's first bad line.
    path = tmp_path_factory.mktemp("diff") / "m.tsv"
    path.write_bytes(text.encode("utf-8"))
    expected, bad = _oracle(text)
    if bad is not None:
        with pytest.raises(FormatError) as raised:
            read_matrix(path)
        assert str(raised.value).startswith(f"{path}:{bad}: ")
    elif not expected:
        with pytest.raises(FormatError, match="no matrix rows"):
            read_matrix(path)
    else:
        expected = np.array(expected, dtype=np.float64)
        values = read_matrix(path)
        assert values.dtype == expected.dtype and values.shape == expected.shape
        assert values.tobytes() == expected.tobytes()


def _oracle(text):
    """The rows of floats the matrix file ``text`` holds and None, or None
    and the number of its first bad line."""
    rows = []
    for lineno, line in enumerate(text.replace("\r\n", "\n").split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = [float(token) for token in line.split("\t")]
        except ValueError:
            return None, lineno
        if rows and len(row) != len(rows[0]):
            return None, lineno
        rows.append(row)
    return rows, None


def test_reader_reads_a_gz_name_as_text(tmp_path):
    # A .gz name is read as the bytes it holds, which are not UTF-8 text.
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


def twin(path):
    return path.with_name(f".{path.name}.twin")


def _int64(bits):
    return bits - (1 << 64) if bits >= 1 << 63 else bits


# Any float64 bit pattern; NaNs of either sign and any payload; and the
# patterns a random draw seldom hits.
_BITS = (
    st.integers(-(1 << 63), (1 << 63) - 1)
    | st.builds(lambda sign, payload: _int64(sign << 63 | 0x7FF << 52 | payload),
                st.integers(0, 1), st.integers(1, (1 << 52) - 1))
    | st.sampled_from(np.array(_SPECIAL + [-5e-324, 2.2e-308, -1e308]).view(np.int64).tolist())
)


@st.composite
def bit_pattern_arrays(draw):
    """A float64 array of arbitrary bit patterns, often repeated, and
    sometimes equal to its transpose bit for bit."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    pool = draw(st.lists(_BITS, min_size=1, max_size=4))
    bits = draw(arrays(np.int64, (rows, cols), elements=st.sampled_from(pool) | _BITS))
    if rows == cols and draw(st.booleans()):
        lower = np.tril_indices(rows, -1)
        bits[lower] = bits.T[lower]
    return bits.view(np.float64)


@settings(max_examples=300, deadline=None)
@given(bit_pattern_arrays(), st.integers(1, 50))
def test_twin_holds_what_the_text_parses_to(tmp_path_factory, values, block_floats):
    path = tmp_path_factory.mktemp("twin") / "m.tsv"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "_BLOCK_FLOATS", block_floats)
        write_matrix(values, path)
    expected = formats._read_matrix_by_line(path)
    # Every NaN reads back as the one "nan" parses to; every other value as written.
    assert expected.tobytes() == np.where(np.isnan(values), np.nan, values).tobytes()
    from_twin = formats._read_twin(path)
    twin(path).unlink()
    from_text = read_matrix(path)
    for back in (from_twin, from_text):
        assert back.dtype == expected.dtype and back.shape == expected.shape
        assert back.tobytes() == expected.tobytes()


def _edit_a_digit(path, other):
    text = path.read_bytes()
    at = text.index(b"1")
    path.write_bytes(text[:at] + b"2" + text[at + 1:])


def _cut(keep):
    def cut(path, other):
        twin(path).write_bytes(twin(path).read_bytes()[:keep])
    return cut


def _numpy_file(path, other):
    with open(twin(path), "wb") as fh:
        np.save(fh, read_matrix(path))


def _flip_magic(path, other):
    data = bytearray(twin(path).read_bytes())
    data[0] ^= 1
    twin(path).write_bytes(bytes(data))


@pytest.mark.parametrize(
    "spoil",
    [
        _edit_a_digit,
        lambda path, other: path.write_bytes(other.read_bytes()),
        _cut(-8),
        _cut(40),
        lambda path, other: twin(path).write_bytes(twin(path).read_bytes() + bytes(8)),
        _numpy_file,
        _flip_magic,
        lambda path, other: twin(path).write_bytes(twin(other).read_bytes()),
    ],
    ids=["text-edited-to-same-size", "text-of-another-matrix", "twin-cut-in-values",
         "twin-cut-in-header", "twin-with-a-value-too-many", "twin-with-npy-header", "twin-with-other-magic",
         "twin-of-another-matrix"],
)
def test_twin_that_does_not_match_is_not_read(tmp_path, parsed, spoil):
    path, other = tmp_path / "m.tsv", tmp_path / "o.tsv"
    values = np.arange(100.0).reshape(10, 10) / 8
    write_matrix(values, path)
    write_matrix(values[::-1] + 1, other)
    spoil(path, other)
    expected = formats._read_matrix_by_line(path)
    parsed.clear()
    assert read_matrix(path).tobytes() == expected.tobytes()
    assert parsed == [str(path)]


def _relabel(magic):
    def relabel(path, other):
        data = twin(path).read_bytes()
        twin(path).write_bytes(magic + data[len(magic):])
    return relabel


@pytest.mark.parametrize(
    "spoil",
    [
        _cut(-1),
        lambda path, other: twin(path).write_bytes(twin(path).read_bytes() + bytes(2)),
        _relabel(b"MMTWINu1"),
        _relabel(b"MMTWINu4"),
        _relabel(b"MMTWIN1\n"),
        lambda path, other: twin(path).write_bytes(twin(other).read_bytes()),
    ],
    ids=["cut-in-values", "a-value-too-many", "magic-of-uint8", "magic-of-uint32",
         "magic-of-float64", "twin-of-another-matrix"],
)
def test_integer_twin_that_does_not_match_is_not_read(tmp_path, parsed, spoil):
    path, other = tmp_path / "m.tsv", tmp_path / "o.tsv"
    values = np.arange(100, dtype=np.uint16).reshape(10, 10) * 300
    write_matrix(values, path)
    write_matrix(values[::-1] + 1, other)
    spoil(path, other)
    parsed.clear()
    back = read_matrix(path)
    assert back.dtype == np.float64 and np.array_equal(back, values)
    assert parsed == [str(path)]


def test_twin_that_matches_is_read(tmp_path, parsed):
    path = tmp_path / "m.tsv"
    values = np.arange(100.0).reshape(10, 10) / 8
    write_matrix(values, path)
    assert read_matrix(path).tobytes() == values.tobytes()
    assert parsed == []


def test_fifo_beside_a_twin_is_parsed(tmp_path, monkeypatch, parsed):
    # The writer is done and gone once the reader has opened the FIFO: a
    # reader that opened it a second time would then wait for another writer.
    path, other = tmp_path / "m.tsv", tmp_path / "o.tsv"
    values = np.arange(100.0).reshape(10, 10)
    write_matrix(values, path)
    write_matrix(-values, other)
    text = other.read_bytes()
    path.unlink()
    os.mkfifo(path)

    def feed():
        with open(path, "wb") as fh:
            fh.write(text)

    def open_then_wait(file, *args, **kwargs):
        fh = open(file, *args, **kwargs)
        if Path(file) == path:
            writer.join(timeout=30)
        return fh

    monkeypatch.setattr(formats, "open", open_then_wait, raising=False)
    read = []
    writer = threading.Thread(target=feed)
    reader = threading.Thread(target=lambda: read.append(read_matrix(path)), daemon=True)
    writer.start()
    reader.start()
    reader.join(timeout=30)
    if reader.is_alive():  # a writer that comes and goes ends its wait
        with open(path, "wb"):
            pass
    writer.join(timeout=30)
    assert not writer.is_alive() and not reader.is_alive()
    assert np.array_equal(read[0], -values)
    assert parsed == [str(path)]


@pytest.mark.parametrize("over_old_twin", [False, True], ids=["first-write", "rewrite"])
def test_failed_twin_write_leaves_no_twin_that_matches(tmp_path, fail_writing, parsed,
                                                       over_old_twin):
    path = tmp_path / "m.tsv"
    values = np.arange(100.0).reshape(10, 10)
    if over_old_twin:
        write_matrix(-values, path)
    fail_writing(".m.tsv.twin", writes=1)
    with pytest.raises(OSError, match="disk full"):
        write_matrix(values, path)
    # The text is in place; a twin left from before holds another text's digest.
    assert sorted(p.name for p in tmp_path.iterdir()) == [".m.tsv.twin", "m.tsv"][not over_old_twin:]
    assert read_matrix(path).tobytes() == values.tobytes()
    assert parsed == [str(path)]


def test_move_matrix_takes_the_twin_along(tmp_path, parsed):
    big, small, dest = tmp_path / "big.tsv", tmp_path / "small.tsv", tmp_path / "d.tsv"
    write_matrix(np.eye(10), big)
    write_matrix(np.eye(2), small)
    write_matrix(np.ones((10, 10)), dest)
    formats.move_matrix(big, dest)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        ".d.tsv.twin", ".small.tsv.twin", "d.tsv", "small.tsv",
    ]
    assert np.array_equal(read_matrix(dest), np.eye(10))
    formats.move_matrix(small, dest)  # a matrix of any size has a twin
    assert sorted(p.name for p in tmp_path.iterdir()) == [".d.tsv.twin", "d.tsv"]
    assert np.array_equal(read_matrix(dest), np.eye(2))
    assert parsed == []


def test_twin_read_peak_memory_is_bounded(tmp_path, parsed):
    # The values go straight from the twin into the result, and the text is
    # hashed a fixed-size chunk at a time: one n x n array, plus that chunk.
    hops = np.random.default_rng(22).integers(0, 7, size=(1000, 1000)).astype(float)
    path = tmp_path / "m.tsv"
    write_matrix(hops, path)
    peak, back = traced_peak(lambda: read_matrix(path))
    assert parsed == []
    assert back.tobytes() == hops.tobytes()
    assert peak < hops.nbytes + formats._HASH_BYTES


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
