import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from manifold_match.errors import FormatError
from manifold_match.formats import read_matrix, write_json, write_matrix


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
