"""The plain-text file formats shared by the corpus, alignment and CLI files.

A matrix file holds one row per line of tab-separated reals, each written as
its shortest round-trip ``repr``, so reading a written file gives back the
same array bit for bit; blank lines are ignored. JSON files (corpus
manifests, run metadata) are indented and key-sorted so they diff cleanly,
and are replaced whole so a failed write leaves the previous file intact.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .errors import FormatError

__all__ = ["read_matrix", "write_matrix", "write_json"]


def read_matrix(path) -> np.ndarray:
    """Read a float matrix file; malformed input raises ``FormatError``
    naming ``path:line``."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = np.array(line.split("\t"), dtype=float)
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
            if rows and row.size != rows[0].size:
                raise FormatError(
                    f"{path}:{lineno}: {row.size} values, expected {rows[0].size}"
                )
            rows.append(row)
    if not rows:
        raise FormatError(f"{path}: no matrix rows")
    return np.array(rows)


def write_matrix(values, path):
    """Write a 2-D array as a matrix file (round-trip exact)."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in np.asarray(values, dtype=float).tolist():
            fh.write("\t".join(map(repr, row)))
            fh.write("\n")


def write_json(obj, path):
    """Write ``obj`` as indented, key-sorted JSON through a temporary file
    renamed over ``path``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
