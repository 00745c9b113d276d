"""The plain-text file formats, and the one place files are read and written.

Reading: a line file (matrix, edge list, labels) is read by :func:`read_records`,
which numbers its lines from 1, strips each, skips blank ones and splits the
rest on tabs; a log, whose lines are compared as written, by :func:`read_lines`;
a JSON file (manifest, metadata, config) by :func:`read_json`.
Text that is not UTF-8, or not JSON where JSON is expected, is a ``FormatError``
naming the file, and a malformed line one naming ``path:line``.

Writing: every file is written by :func:`write_lines` to a temporary sibling
renamed over it, so a failed write leaves the previous file (or none), never
a partial one; the destination must be absent or a regular file. A matrix row
is its tab-separated reals, each the shortest round-trip ``repr``, so a read
gives back the written array bit for bit. JSON is indented and key-sorted so
it diffs cleanly.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError

__all__ = ["read_json", "read_lines", "read_matrix", "read_records", "write_json",
           "write_lines", "write_matrix"]


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
    """Write a 2-D array as a matrix file (round-trip exact)."""
    rows = np.asarray(values, dtype=float).tolist()
    write_lines(path, ("\t".join(map(repr, row)) for row in rows))


def write_json(obj, path):
    """Write ``obj`` as indented, key-sorted JSON."""
    write_lines(path, [json.dumps(obj, indent=2, sort_keys=True)])
