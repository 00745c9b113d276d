"""The plain-text file formats, and the one place files are read and written.

Reading: a line file (matrix, edge list, labels) is read by :func:`read_records`,
which numbers its lines from 1, strips each, skips blank ones and splits the
rest on tabs; a log, whose lines are compared as written, by :func:`read_lines`;
a JSON file (manifest, metadata, config) by :func:`read_json`, and checked
against a table of each field's converter by :func:`read_fields`, which may
nest: objects, lists and maps of values, and values that may be null.
Text that is not UTF-8, or not JSON where JSON is expected, is a ``FormatError``
naming the file, a rejected field one naming the file and the field's path,
and a malformed line one naming ``path:line``.
A matrix file is rows of tab-separated reals that Python's ``float`` parses,
all of one length; :func:`read_matrix` parses it in one pass of that line
loop, unless its twin matches.

A matrix file that :func:`write_matrix` wrote has a binary twin beside it,
``.<name>.twin``: the byte size and SHA-256 of the text, its shape, and the
values a parse of the text gives, in the array's type if it is ``uint8``,
``uint16`` or ``uint32`` (a geodesic's hop counts) and as float64 (every
NaN as ``nan`` reads) otherwise. :func:`read_matrix` returns them when its
recorded size and digest match the file as it is on disk, which it hashes
``_HASH_BYTES`` at a time, and parses the text otherwise: a file the toolkit
did not write, a pipe, a twin that is stale, short or not a twin. A twin that
matches is trusted as the toolkit's own file: its values are not checked
against the text. Deleting one is always safe.

Writing: every file, twins too, is written to a temporary sibling renamed
over it (:func:`write_lines`), so a failed write leaves the previous file (or
none), never a partial one; the destination must be absent or a regular
file. A matrix row
is its tab-separated reals, each the shortest round-trip ``repr``, so a read
gives back the written array bit for bit; the rows are formatted a block at a
time, each distinct bit pattern in a block once, and an array equal to its
transpose bit for bit has its lower triangle copied from the upper one's text.
JSON is indented and key-sorted so it diffs cleanly.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError
from .numerics import _real_array

__all__ = ["check_fields", "move_matrix", "read_fields", "read_json", "read_lines",
           "read_matrix", "read_records", "write_json", "write_lines", "write_matrix"]

# Values per block of rows formatted together by write_matrix.
_BLOCK_FLOATS = 1 << 16
# Bytes of a matrix file hashed at a time.
_HASH_BYTES = 1 << 18
# A twin's header: magic, the text's byte size and SHA-256, rows, columns.
_TWIN_HEAD = struct.Struct("<8sQ32sQQ")
# A twin's magic names the type of its values.
_TWIN_TYPES = {b"MMTWIN1\n": np.dtype("<f8"),
               **{b"MMTWINu%d" % k: np.dtype(f"<u{k}") for k in (1, 2, 4)}}


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


def _of(*types):
    """A converter passing values of exactly ``types`` (so ``true`` is not an
    integer and ``2.7`` is not truncated to one) and rejecting the rest."""
    def convert(value):
        if type(value) not in types:
            raise TypeError(value)
        return value
    return convert


_int, _number, _str, _list = _of(int), _of(int, float), _of(str), _of(list)


def _at_least(low):
    """A converter passing an integer no less than ``low``."""
    def convert(value):
        if _int(value) < low:
            raise ValidationError(f"{value} is less than {low}")
        return value
    return convert


class _Rejected(Exception):
    """A field its converter rejects: its path and the converter's error."""


def _at(key, convert, value):
    """``convert(value)`` of the field at ``key`` (``.name`` or ``[k]``) of
    an object or list; a rejection names its path from there."""
    try:
        return convert(value)
    except _Rejected as exc:
        raise _Rejected(key + exc.args[0], exc.args[1]) from None
    except (OverflowError, TypeError, ValueError, ValidationError) as exc:
        raise _Rejected(key, exc) from None


def _fields(table):
    """A converter of a JSON object to ``{name: convert(value)}`` for each
    ``name: convert`` of ``table``, None standing for a missing field; other
    fields are ignored."""
    return lambda obj: {name: _at(f".{name}", convert, _of(dict)(obj).get(name))
                        for name, convert in table.items()}


def _each(convert):
    """A converter of a JSON list to the list of ``convert`` of each item."""
    return lambda items: [_at(f"[{k}]", convert, item) for k, item in enumerate(_list(items))]


def _map(key, convert):
    """A converter of a JSON object to ``{key(name): convert(value)}``, field by field."""
    return lambda obj: {_at(f".{name}", key, name): _at(f".{name}", convert, value)
                        for name, value in _of(dict)(obj).items()}


def _optional(convert):
    """A converter passing None (null, or missing) and ``convert`` of the rest."""
    return lambda value: value if value is None else convert(value)


def check_fields(path, document, fields):
    """``_fields(fields)`` of ``document``, the JSON value in ``path``. A
    document that is not an object is a ``FormatError`` naming ``path``; so
    is a field missing or rejected, naming also its path (such as
    ``domains[1].dissimilarities.graph``) and the rule broken where the
    converter raised a ``ValidationError``."""
    if type(document) is not dict:
        raise FormatError(f"{path}: not a JSON object")
    try:
        return _fields(fields)(document)
    except _Rejected as exc:
        where, cause = exc.args
        rule = f": {cause}" if isinstance(cause, ValidationError) else ""
        raise FormatError(f"{path}: missing or malformed field {where[1:]!r}{rule}") from None


def read_fields(path, fields):
    """:func:`check_fields` of the JSON value in ``path``."""
    return check_fields(path, read_json(path), fields)


def read_matrix(path) -> np.ndarray:
    """Read a matrix file, from its twin when that matches it (in the type
    the twin holds) and as float64 by the line loop otherwise; malformed
    input raises ``FormatError`` naming ``path:line``."""
    values = _read_twin(path)
    return _read_matrix_by_line(path) if values is None else values


def _twin_path(path):
    path = Path(path)
    return path.with_name(f".{path.name}.twin")


def _digest(path):
    """The byte size and SHA-256 of the file at ``path``."""
    sha = hashlib.sha256()
    size = 0
    chunk = bytearray(_HASH_BYTES)
    view = memoryview(chunk)
    with open(path, "rb") as fh:
        while count := fh.readinto(chunk):
            sha.update(view[:count])
            size += count
    return size, sha.digest()


def _read_twin(path):
    """The values of the twin of the matrix file ``path``, or None unless the
    twin is whole and records the size and SHA-256 the file has."""
    try:
        with open(_twin_path(path), "rb") as fh:
            head = fh.read(_TWIN_HEAD.size)
            if len(head) != _TWIN_HEAD.size:
                return None
            magic, size, digest, rows, cols = _TWIN_HEAD.unpack(head)
            dtype = _TWIN_TYPES.get(magic)
            # A pipe's size is 0, which no twin records: it is read once, by the parse.
            if (dtype is None or size != os.stat(path).st_size
                    or os.fstat(fh.fileno()).st_size - _TWIN_HEAD.size
                    != dtype.itemsize * rows * cols or _digest(path) != (size, digest)):
                return None
            values = np.empty((rows, cols), dtype)
            if fh.readinto(values.data.cast("B")) != values.nbytes:
                return None
            return values
    except OSError:
        return None


def _read_matrix_by_line(path):
    """``read_matrix`` of the text: the line loop states what a matrix file
    is, and names the line that breaks it."""
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

    def fill(fh):
        for line in lines:
            fh.write(line)
            fh.write("\n")

    _replace(path, "w", fill)


def _replace(path, mode, fill):
    """``write_lines`` for any content: ``fill`` writes the temporary sibling
    opened in ``mode``."""
    path = Path(path)
    if path.exists() and not path.is_file():
        raise ValidationError(f"{path} exists and is not a regular file")
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            fill(fh)
        os.replace(tmp, path)
    except OSError as exc:
        if exc.filename == str(tmp):  # a missing directory, say: name the file asked for
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise
    finally:
        tmp.unlink(missing_ok=True)


def write_matrix(values, path):
    """Write a non-empty array that passes ``numerics._real_array`` as a
    matrix file (round-trip exact), then its twin; any other is refused
    before anything is written. A failed twin write raises with the text in
    place. Integers are written as floats a block of rows at a time."""
    values = _real_array(values, f"{path}: values")
    if 0 in values.shape:
        raise ValidationError(
            f"{path}: a matrix file holds a 2-D array with rows and columns, "
            f"got shape {values.shape}"
        )
    write_lines(path, _matrix_lines(values))
    _write_twin(values, path)


def _write_twin(values, path):
    """Write the twin of the matrix file ``path``, just written from
    ``values``, a block of rows at a time (a ``uint64``, which the text's
    float parse may round, as float64)."""
    magic = next((m for m, t in _TWIN_TYPES.items() if t == values.dtype), b"MMTWIN1\n")
    dtype = _TWIN_TYPES[magic]
    head = _TWIN_HEAD.pack(magic, *_digest(path), *values.shape)
    step = max(1, _BLOCK_FLOATS // values.shape[1])

    def fill(fh):
        fh.write(head)
        for start in range(0, len(values), step):
            block = np.asarray(values[start:start + step], dtype)
            nan = np.isnan(block)
            if nan.any():  # the text holds "nan" for every NaN
                block = np.where(nan, np.nan, block)
            fh.write(np.ascontiguousarray(block, dtype))

    _replace(_twin_path(path), "wb", fill)


def move_matrix(source, path):
    """Rename the matrix file ``source`` over ``path``, and its twin over
    ``path``'s."""
    Path(source).replace(path)
    _twin_path(source).replace(_twin_path(path))


def _matrix_lines(values):
    """The lines of a matrix file, a block of rows of at most ``_BLOCK_FLOATS``
    values at a time, each distinct bit pattern in a block formatted once (so
    -0.0 stays -0.0).

    A square array equal to its transpose bit for bit has each block formatted
    from its diagonal column on. The rest of a row is the text of its column
    above the block, kept as one string per earlier block until that row is
    written, so each value is formatted once and at most about n²/4 values'
    text is held at a time."""
    n_rows, n_cols = values.shape
    pattern = values.view(np.int64) if values.dtype == float else values
    symmetric = n_rows == n_cols and np.array_equal(pattern, pattern.T)
    step = max(1, _BLOCK_FLOATS // n_cols)
    above = {}  # column -> its text in each earlier block, tab-joined
    for start in range(0, n_rows, step):
        block = np.ascontiguousarray(values[start:start + step, start if symmetric else 0:], float)
        bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
        text = np.array([repr(x) for x in bits.view(np.float64).tolist()], dtype=object)
        text = text[inverse].reshape(block.shape)
        for i, row in enumerate(text.tolist(), start):
            yield "\t".join(above.pop(i, []) + row)
        if symmetric:
            for j, column in enumerate(text[:, len(block):].T.tolist(), start + len(block)):
                above.setdefault(j, []).append("\t".join(column))


def write_json(obj, path):
    """Write ``obj`` as indented, key-sorted JSON."""
    write_lines(path, [json.dumps(obj, indent=2, sort_keys=True)])
