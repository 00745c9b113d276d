"""The plain-text file formats, and the one place files are read and written.

Reading: a line file (matrix, edge list, labels) is read by :func:`read_records`,
which numbers its lines from 1, strips each, skips blank ones and splits the
rest on tabs; a log, whose lines are compared as written, by :func:`read_lines`;
a JSON file (manifest, metadata, config) by :func:`read_json`.
Text that is not UTF-8, or not JSON where JSON is expected, is a ``FormatError``
naming the file, and a malformed line one naming ``path:line``.
:func:`read_matrix` accepts exactly what that line loop accepts: rows of
tab-separated reals that Python's ``float`` parses, all of one length. It
parses with ``np.loadtxt``, which accepts a subset of those files (no ``1_0``,
no non-ASCII digits, no trailing tab, no whitespace-only line) and gives the
same bits on it, and runs the line loop only on what ``np.loadtxt`` refuses,
a blank file and a pipe.

Writing: every file is written by :func:`write_lines` to a temporary sibling
renamed over it, so a failed write leaves the previous file (or none), never
a partial one; the destination must be absent or a regular file. A matrix row
is its tab-separated reals, each the shortest round-trip ``repr``, so a read
gives back the written array bit for bit; the rows are formatted a block at a
time, each distinct bit pattern in a block once. JSON is indented and
key-sorted so it diffs cleanly.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError

__all__ = ["read_json", "read_lines", "read_matrix", "read_records", "write_json",
           "write_lines", "write_matrix"]

# Values per block of rows formatted together by write_matrix.
_BLOCK_FLOATS = 1 << 16


def read_lines(path):
    """Yield each line of ``path`` without its newline."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for line in fh:
                yield line.rstrip("\n")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: {exc}") from None


def read_records(path):
    """Yield ``(line number, tab-separated fields)`` for each non-blank line
    of ``path``, stripped of surrounding whitespace."""
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if line:
            yield lineno, line.split("\t")


def read_json(path):
    """The JSON value held in ``path``; invalid JSON is a ``FormatError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # a JSONDecodeError or UnicodeDecodeError
            raise FormatError(f"{path}: {exc}") from None


def read_matrix(path) -> np.ndarray:
    """Read a float matrix file; malformed input raises ``FormatError``
    naming ``path:line``."""
    with open(path, "r", encoding="utf-8") as fh:
        # The line loop alone reads a pipe, which cannot be read twice, and a
        # blank file, on which np.loadtxt would warn that it found no data.
        # It runs with ``fh`` still open: closing a pipe's only reader could
        # break its writer. np.loadtxt gets the handle, not the path: given a
        # path it would read a ``.gz`` name decompressed, and a URL.
        try:
            if fh.seekable() and any(chunk.strip() for chunk in iter(lambda: fh.read(1 << 16), "")):
                fh.seek(0)
                return np.loadtxt(fh, dtype=float, delimiter="\t", comments=None, ndmin=2)
        except ValueError:  # a UnicodeDecodeError too
            pass
        return _read_matrix_by_line(path)


def _read_matrix_by_line(path):
    """``read_matrix`` for the files np.loadtxt refuses: the line loop states
    what a matrix file is, and names the line that breaks it."""
    rows = []
    for lineno, fields in read_records(path):
        try:
            row = np.array(fields, dtype=float)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
        if rows and row.size != rows[0].size:
            raise FormatError(f"{path}:{lineno}: {row.size} values, expected {rows[0].size}")
        rows.append(row)
    if not rows:
        raise FormatError(f"{path}: no matrix rows")
    return np.array(rows)


def write_lines(path, lines):
    """Replace ``path`` whole with ``lines``, each followed by a newline,
    through a temporary sibling renamed over it. ``path`` must be absent or a
    regular file: the rename would replace a device, or the link to one."""
    path = Path(path)
    if path.exists() and not path.is_file():
        raise ValidationError(f"{path} exists and is not a regular file")
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
        os.replace(tmp, path)
    except OSError as exc:
        if exc.filename == str(tmp):  # a missing directory, say: name the file asked for
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise
    finally:
        tmp.unlink(missing_ok=True)


def write_matrix(values, path):
    """Write a non-empty 2-D array as a matrix file (round-trip exact)."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or 0 in values.shape:
        raise ValidationError(
            f"{path}: a matrix file holds a 2-D array with rows and columns, "
            f"got shape {values.shape}"
        )
    write_lines(path, _matrix_lines(values))


def _matrix_lines(values):
    """The lines of a matrix file, ``_BLOCK_FLOATS`` values at a time, each
    distinct bit pattern in a block formatted once (so -0.0 stays -0.0)."""
    n_cols = values.shape[1]
    step = max(1, _BLOCK_FLOATS // n_cols)
    for start in range(0, len(values), step):
        block = np.ascontiguousarray(values[start:start + step])
        bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
        text = np.array([repr(x) for x in bits.view(np.float64).tolist()], dtype=object)
        for row in text[inverse].reshape(block.shape).tolist():
            yield "\t".join(row)


def write_json(obj, path):
    """Write ``obj`` as indented, key-sorted JSON."""
    write_lines(path, [json.dumps(obj, indent=2, sort_keys=True)])
