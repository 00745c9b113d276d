"""Dissimilarity constructions over one domain.

Two kinds are supported: hop-count graph geodesics with far pairs capped, and
cosine dissimilarity of feature rows. The geodesics come from one
breadth-first search over packed bitsets that advances every source
together, in NumPy with no per-source loop: each hop gathers neighbours'
rows by degree-ordered slots and ORs the new level into the bit planes of
its hop count. Frobenius prescaling gives the
factor that rescales one matrix onto another's norm so matrices of different
kinds can be fused downstream.

A dissimilarity is a read-only square array of real numbers: float64, or
unsigned integers such as a geodesic's hop counts in the narrowest type
that holds its cap (cast one to float before arithmetic that could wrap).
The constructions here build theirs exactly symmetric, with a zero diagonal
and nonnegative entries; a matrix from anywhere else (a file, a caller's
array) is checked once by :func:`as_dissimilarity` where it enters, and
keeps its type if unsigned. A matrix file's twin keeps a geodesic's type,
so a registered geodesic reads back as the hop counts it was built as.

Feature rows, like every matrix argument of the toolkit, must pass
:func:`~manifold_match.numerics._real_matrix` (finite reals in a 2-D
array), and an edge list :func:`_edge_list` (integer vertex pairs).
"""

from __future__ import annotations

import numpy as np

from .errors import IntegrityError, ValidationError
from .formats import read_matrix, write_matrix
from .numerics import _integer, _real_matrix, mirror_blocks, symmetrize

__all__ = [
    "as_dissimilarity",
    "graph_geodesic",
    "cosine_dissimilarity",
    "frobenius_prescale",
    "load_dissimilarity_tsv",
    "save_dissimilarity_tsv",
]

_SYM_ATOL = 1e-12

# Neighbour slots a geodesic hop gathers one by one; a vertex's later
# neighbours are gathered together and ORed by reduceat.
_SLOTS = 16


def _read_only(array):
    array.setflags(write=False)
    return array


def as_dissimilarity(values) -> np.ndarray:
    """Check a matrix from outside the package and return it as a dissimilarity.

    It must be square, finite and symmetric, with a zero diagonal and no
    negative entries, each within ``1e-12``, or exactly for unsigned
    integers. Returns a read-only copy, of unsigned integers in their type
    and of anything else as float64 made exact in all three, so spectral
    code never sees tolerance-level asymmetry.
    """
    v = _real_matrix(values, "dissimilarities", square=True)
    return _read_only(_checked(np.array(v, None if v.dtype.kind == "u" else float)))


def _checked(v):
    """:func:`as_dissimilarity` of a square float64 or unsigned array that
    passed ``_real_matrix`` and the caller owns, checked a block of
    :func:`mirror_blocks` at a time; a float one is made exact in place (by
    :func:`symmetrize`): a valid matrix gets no n x n temporary."""
    exact = v.dtype.kind == "u"
    tol = 0 if exact else _SYM_ATOL
    if v.size:
        # An unsigned difference wraps, but is nonzero exactly when the pair differs.
        if max(np.max(np.abs(upper - lower)) for upper, lower in mirror_blocks(v)) > tol:
            raise ValidationError(f"dissimilarity matrix is not symmetric within {tol:g}")
        if np.max(np.abs(np.diag(v))) > tol:
            raise ValidationError("dissimilarity matrix has a nonzero diagonal")
        if v.min() < -tol:
            raise ValidationError("dissimilarity matrix has negative entries")
    if not exact:
        symmetrize(v)
        np.fill_diagonal(v, 0.0)
        np.clip(v, 0.0, None, out=v)
    return v


def _check_geodesic(cap, max_hops):
    """Check a geodesic's settings: integers by :func:`_integer` with ``cap >
    max_hops >= 1`` and ``cap`` no larger than 2**53, the largest that every
    matrix file, float64 text and twin, holds exactly. None is a setting not
    known (a manifest may record neither), checked only as far as the other
    allows: ``max_hops`` at least 1, ``cap`` at least 2."""
    hops = 1 if max_hops is None else _integer(max_hops, "max_hops", 1)
    if cap is not None and _integer(cap, "cap", 2, 2**53) <= hops:
        raise ValidationError(f"need cap > max_hops >= 1, got cap={cap}, max_hops={max_hops}")


def _edge_list(edges, n, what):
    """``edges`` if they are an (E, 2) array of integers in [0, ``n``), in
    their type; an empty list of any shape is no edges, a (0, 2) array. The
    rule for an edge list: another array is a ``ValidationError`` naming
    ``what``, an endpoint out of range an ``IntegrityError``."""
    e = np.asarray(edges)
    if e.size == 0:
        return e.reshape(0, 2)
    if e.ndim != 2 or e.shape[1] != 2 or e.dtype.kind not in "iu":
        raise ValidationError(
            f"{what} are a {e.dtype} array of shape {e.shape}, not an (E, 2) array of integers"
        )
    if e.min() < 0 or e.max() >= n:
        raise IntegrityError(f"{what} have endpoints out of range [0, {n})")
    return e


def graph_geodesic(edges, n, cap=6, max_hops=4) -> np.ndarray:
    """Hop-count dissimilarity on an unweighted undirected graph.

    Entry (i, j) is the shortest-path hop count when it is at most
    ``max_hops``; longer or unreachable pairs get ``cap``. Hop counts of an
    undirected graph make the result exactly symmetric. The result holds
    them in ``np.min_scalar_type(cap)``, one byte per entry when ``cap`` is
    at most 255; cast it to float before arithmetic that could wrap.
    ``cap`` and ``max_hops`` must pass :func:`_check_geodesic`.

    The search is one breadth-first search from every source at once
    (Then et al., "The More the Merrier: Efficient Multi-Source Graph
    Traversal", PVLDB 8(4), 2014). Row v of a packed bitset holds one bit
    per source: its frontier row, the sources exactly k hops from v after k
    hops. One hop ORs together the frontier rows of v's neighbours and keeps
    the bits not yet reached, so every source's search shares each scan of
    the adjacency. The vertices are relabelled once, by descending degree,
    so that the vertices with a j-th neighbour are a prefix of the rows: a
    hop gathers the frontier rows of every such j-th neighbour with one
    ``np.take`` into one reused buffer and ORs it into that prefix. The
    neighbours past the sixteenth are gathered together and ORed by one
    ``np.bitwise_or.reduceat``, so the numpy calls per hop do not grow with
    the largest degree. The loop stops after ``max_hops`` hops or when no
    source reaches a new vertex. Each level is ORed into the packed bit
    planes of its hop count, and the pairs never reached into those of
    ``cap``; the result is built from the planes at the end, in the
    vertices' own row order, by doubling and ORing in each unpacked n² byte
    plane (integer arithmetic only).

    Memory: the unreached, frontier, next-level and gather-buffer bitsets
    and one bit plane per bit of ``cap`` (n²/8 bytes each); the tail
    gather's rows (n/8 bytes per neighbour past the sixteenth); one unpacked
    plane (n² bytes) and the result.

    Parameters
    ----------
    edges : (E, 2) array_like of int
        Undirected edges over vertices 0..n-1, as :func:`_edge_list` passes
        them (duplicates and self-loops are tolerated).
    n : int
        Vertex count.
    cap : int, optional
        Value assigned to pairs farther than ``max_hops``; must exceed it.
    max_hops : int, optional
        Largest path length kept exact.
    """
    n = _integer(n, "vertex count n", 1)
    _check_geodesic(_integer(cap, "cap", 2), _integer(max_hops, "max_hops", 1))
    e = np.asarray(_edge_list(edges, n, "edges"), dtype=int)

    # Symmetric adjacency lists (CSR, sorted by vertex) without self-loops
    # or duplicates; slot j of an arc is its place in its vertex's list.
    # Sorted and deduplicated by hand: np.unique hashes first, several times
    # slower at this size.
    e = e[e[:, 0] != e[:, 1]]
    arcs = np.sort(np.concatenate([e[:, 0] * n + e[:, 1], e[:, 1] * n + e[:, 0]]))
    arcs = arcs[np.diff(arcs, prepend=-1) != 0]
    vertex, neighbour = np.divmod(arcs, n)
    degree = np.bincount(vertex, minlength=n)
    slot = np.arange(arcs.size) - np.repeat(np.cumsum(degree) - degree, degree)
    # Relabel by descending degree (row i is vertex order[i]), so that the
    # vertices with a slot j are the first rows.
    order = np.argsort(-degree, kind="stable")
    row = np.argsort(order)
    vertex, neighbour = row[vertex], row[neighbour]
    # The arcs of each slot below _SLOTS in row order, then every later arc
    # in one tail grouped by row, so the numpy calls per hop stay bounded.
    group = np.minimum(slot, _SLOTS)
    parts = np.split(np.argsort(group * n + vertex), np.cumsum(np.bincount(group))[:-1])
    slots = [neighbour[arcs] for arcs in parts[:_SLOTS]]
    tails = [
        (neighbour[arcs], np.flatnonzero(np.diff(vertex[arcs], prepend=-1)))
        for arcs in parts[_SLOTS:]
    ]
    linked = slots[0].size

    # Row r of a bitset holds one bit per source, in the vertices' own order
    # and laid out as _unpack reads them.
    words = -(-n // 64)
    unreached = np.full((n, words), np.uint64(2**64 - 1), dtype="<u8")
    unreached[np.arange(n), order // 64] ^= np.left_shift(
        np.uint64(1), (order % 64 ^ 7).astype(np.uint64)
    )
    frontier = ~unreached[:linked]
    level = np.empty_like(frontier)
    gathered = np.empty_like(frontier)
    # Bit plane b holds the pairs whose hop count (or cap) has bit b set; hop
    # counts stay below cap, so cap's bit length covers them.
    planes = np.zeros((int(cap).bit_length(), n, words), dtype=frontier.dtype)
    for hop in range(1, max_hops + 1):
        # mode="clip" only skips the bounds check's buffer: every index is a row.
        np.take(frontier, slots[0], axis=0, out=level, mode="clip")
        for part in slots[1:]:
            np.take(frontier, part, axis=0, out=gathered[:part.size], mode="clip")
            level[:part.size] |= gathered[:part.size]
        for tail, starts in tails:
            tail_rows = np.take(frontier, tail, axis=0, mode="clip")
            level[:starts.size] |= np.bitwise_or.reduceat(tail_rows, starts, axis=0)
        level &= unreached[:linked]
        if not level.any():
            break
        for b in range(hop.bit_length()):
            if hop >> b & 1:
                planes[b, :linked] |= level
        unreached[:linked] ^= level
        frontier, level = level, frontier
    for b in range(len(planes)):
        if cap >> b & 1:
            planes[b] |= unreached
    # Hop counts stay below cap, so the type that holds cap holds them.
    result = np.zeros((n, n), dtype=np.min_scalar_type(cap))
    for plane in planes[::-1]:
        result += result
        result |= _unpack(plane[row], n)
    return _read_only(result)


def _unpack(bitset, n):
    """The (n, n) bool matrix of a packed (n, words) bitset whose bit s is
    bit ``s ^ 7`` of little-endian word ``s // 64``: byte ``s // 8``, most
    significant bit first, numpy's fastest order to unpack."""
    bits = np.unpackbits(bitset.view(np.uint8), axis=1, count=n)
    return bits.view(bool)


def cosine_dissimilarity(features) -> np.ndarray:
    """Cosine dissimilarity ``1 - <f_i, f_j> / (|f_i| |f_j|)`` of feature rows.

    Self-similarity is forced to one before the subtraction so the diagonal
    is exactly zero, and entries are clipped to the cosine range [0, 2]. The
    result is exactly symmetric: numpy forms the product of the unit rows
    with their transpose by BLAS's ``syrk``, which computes one triangle and
    mirrors it, and every later step works entry by entry, in place on that
    one n x n float64 array, so the working set is n² values beside the
    feature rows.
    """
    f = np.asarray(_real_matrix(features, "features"), dtype=float)
    norms = np.linalg.norm(f, axis=1)
    zero_rows = np.flatnonzero(norms == 0.0)
    if zero_rows.size:
        raise ValidationError(f"feature row {zero_rows[0]} has zero norm")
    unit = f / norms[:, None]
    d = unit @ unit.T
    np.fill_diagonal(d, 1.0)
    np.subtract(1.0, d, out=d)
    np.clip(d, 0.0, 2.0, out=d)
    return _read_only(d)


def frobenius_prescale(target, reference) -> float:
    """The factor ``|reference|_F / |target|_F`` that rescales ``target`` onto
    ``reference``'s Frobenius norm.

    Multiply by it before fusing matrices whose kinds live on different
    scales (cosine values vs hop counts); rows that belong with ``target``
    take the same factor. In an experiment the factor reaches the results
    only through the default ridge: GCCA and CCA are invariant to one scale
    per view.
    """
    t_norm = float(np.linalg.norm(target))
    if t_norm == 0.0:
        raise ValidationError("cannot prescale a matrix with zero Frobenius norm")
    return float(np.linalg.norm(reference)) / t_norm


def save_dissimilarity_tsv(matrix, path):
    """Write the full square matrix as a matrix file (round-trip exact)."""
    write_matrix(matrix, path)


def load_dissimilarity_tsv(path, *, _writable=False) -> np.ndarray:
    """Read a square matrix file and check it as :func:`as_dissimilarity`
    does; a failed check names ``path``. A matching twin gives the values
    in the type it holds (a geodesic's hop counts), the text float64. The
    result is read-only, unless
    ``_writable`` is set by a caller that owns the array from then on (the
    ``mds`` command, which factors it in place)."""
    values = read_matrix(path)
    try:
        values = _checked(_real_matrix(values, "dissimilarities", square=True))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return values if _writable else _read_only(values)
