"""Corpus loading, validation and synthesis.

A corpus on disk is a directory: ``manifest.json`` with object ids, integer
class labels and per-domain file references; per-domain ``features.tsv``
(one row of tab-separated reals per object), ``edges.tsv`` (two object-id
columns per line, undirected), and optional precomputed ``dissim_<kind>.tsv``
square matrices, each read the first time it is used (the manifest records
the ``cap`` and ``max_hops`` a graph matrix was built with). Plain text
throughout so corpora are diff-able and language neutral.
"""

from __future__ import annotations

import re
import tempfile
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dissimilarity import (
    as_dissimilarity,
    cosine_dissimilarity,
    graph_geodesic,
    load_dissimilarity_tsv,
    save_dissimilarity_tsv,
)
from .errors import ConfigError, FormatError, IntegrityError, ValidationError
from .formats import (move_matrix, read_json, read_matrix, read_records, write_json,
                      write_lines, write_matrix)

__all__ = [
    "DomainData",
    "LabeledCorpus",
    "load_corpus",
    "save_corpus",
    "register_dissimilarity",
    "synthesize_corpus",
]

# One safe path component: no separator, and not "." or "..".
_NAME_RE = re.compile(r"(?!\.\.?\Z)[A-Za-z0-9_.-]+\Z")
# One UTF-8 field of an edges.tsv record as it reads back: not empty, no tab,
# line break or lone surrogate, no surrounding whitespace.
_ID_RE = re.compile(r"(?=\S)[^\t\n\r\ud800-\udfff]*(?<=\S)\Z")


def _read_only(array):
    if array is None:
        return None
    copy = np.array(array)
    copy.setflags(write=False)
    return copy


class _RegisteredMatrices(Mapping):
    """A loaded domain's registered matrices, each read on first use and kept.

    ``files`` maps each kind to ``(path, cap, max_hops)``: its path and the
    graph settings the manifest records for it, None where none is recorded.
    """

    def __init__(self, files, n):
        self.files = files
        self._n = n
        self._read = {}

    def __getitem__(self, kind):
        if kind not in self._read:
            path = self.files[kind][0]
            values = load_dissimilarity_tsv(path)
            if values.shape[0] != self._n:
                raise IntegrityError(
                    f"{path}: {values.shape[0]}x{values.shape[0]} matrix for "
                    f"{self._n} objects"
                )
            self._read[kind] = values
        return self._read[kind]

    def __contains__(self, kind):
        return kind in self.files  # Mapping's default would read the file

    def __iter__(self):
        return iter(self.files)

    def __len__(self):
        return len(self.files)


@dataclass(frozen=True)
class DomainData:
    """One domain's feature rows, graph edges and precomputed matrices by kind.

    Features and edges are kept as read-only copies, so a view built from
    them stays valid for the life of the corpus. A precomputed matrix given
    in memory is checked and kept by :func:`as_dissimilarity`.
    """

    name: str
    features: np.ndarray | None = None
    edges: np.ndarray | None = None
    dissimilarities: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "features", _read_only(self.features))
        object.__setattr__(self, "edges", _read_only(self.edges))
        if isinstance(self.dissimilarities, _RegisteredMatrices):
            return  # each matrix is checked when first read
        checked = {}
        for kind, values in self.dissimilarities.items():
            try:
                checked[kind] = as_dissimilarity(values)
            except ValidationError as exc:
                raise ValidationError(f"domain {self.name!r} {kind} {exc}") from None
        object.__setattr__(self, "dissimilarities", checked)


def _view_key(domain, kind, cap, max_hops):
    """What tells one view of a corpus from another: geodesics also differ by
    ``cap`` and ``max_hops``."""
    return (domain, kind, cap, max_hops) if kind == "graph" else (domain, kind)


@dataclass(frozen=True)
class LabeledCorpus:
    """Matched objects with integer class labels, observed in every domain.

    The geodesic and cosine views :meth:`view` builds from a domain are kept
    in ``_views`` for later calls on the same object. ``_fits`` keeps the
    read-only MDS fits of whole relation pools that ``run_experiment`` makes
    on this object, keyed by view, pool and dimension, for the same reuse.
    """

    object_ids: tuple[str, ...]
    labels: np.ndarray
    domains: tuple[DomainData, ...]
    _views: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _fits: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = tuple(str(i) for i in self.object_ids)
        n = len(ids)
        if n == 0:
            raise IntegrityError("corpus has zero objects")
        if len(set(ids)) != n:
            raise IntegrityError("object ids are not unique")
        object.__setattr__(self, "object_ids", ids)

        labels = np.asarray(self.labels)
        if labels.shape != (n,):
            raise IntegrityError(f"{labels.shape} labels for {n} objects")
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValidationError("labels must be integer class ids")
        if labels.min() < 0:
            raise ValidationError("labels must be nonnegative")
        labels = labels.astype(np.int64)
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

        if not self.domains:
            raise IntegrityError("corpus has no domains")
        seen = set()
        for domain in self.domains:
            if domain.name in seen:
                raise IntegrityError(f"duplicate domain name {domain.name!r}")
            seen.add(domain.name)
            if domain.features is not None:
                f = domain.features
                if f.ndim != 2 or f.shape[0] != n:
                    raise IntegrityError(
                        f"domain {domain.name!r} has {f.shape[0] if f.ndim == 2 else f.shape} "
                        f"feature rows for {n} objects"
                    )
                if not np.all(np.isfinite(f)):
                    raise ValidationError(
                        f"domain {domain.name!r} features contain non-finite entries"
                    )
            if domain.edges is not None:
                e = domain.edges
                if e.size and (e.min() < 0 or e.max() >= n):
                    raise IntegrityError(
                        f"domain {domain.name!r} has edge endpoints outside [0, {n})"
                    )
            if isinstance(domain.dissimilarities, _RegisteredMatrices):
                continue  # checked when each matrix is first read
            for kind, values in domain.dissimilarities.items():
                m = values.shape[0]
                if m != n:
                    raise IntegrityError(
                        f"domain {domain.name!r} {kind} dissimilarity is {m}x{m} "
                        f"for {n} objects"
                    )

    @property
    def n_total(self) -> int:
        return len(self.object_ids)

    def domain(self, name) -> DomainData:
        for d in self.domains:
            if d.name == name:
                return d
        raise ValidationError(f"no domain named {name!r}")

    def view(self, domain, kind, cap, max_hops) -> np.ndarray:
        """The n x n ``kind`` dissimilarity of ``domain``.

        A registered or in-memory matrix of that kind is used as it is; a
        registered graph matrix whose manifest records another ``cap`` or
        ``max_hops`` is a ``ConfigError`` (unrecorded settings are not
        compared). Otherwise the geodesic view of the domain's edges or the
        cosine view of its features is built on first use and kept. A built
        geodesic view holds its hop counts in ``np.min_scalar_type(cap)``
        (one byte per entry when ``cap`` is at most 255; float64 when no
        unsigned type holds ``cap``), so cast it to float before any
        arithmetic that could wrap.
        """
        data = self.domain(domain)
        if kind in data.dissimilarities:
            path, *recorded = getattr(data.dissimilarities, "files", {}).get(kind, (None,) * 3)
            if kind == "graph" and any(
                value not in (None, asked) for value, asked in zip(recorded, (cap, max_hops))
            ):
                raise ConfigError(
                    f"{path} was built with cap={recorded[0]}, max_hops={recorded[1]}, "
                    f"but the config asks for cap={cap}, max_hops={max_hops}"
                )
            return data.dissimilarities[kind]
        if kind not in ("graph", "text"):
            raise ConfigError(f"unknown dissimilarity kind {kind!r}")
        source = data.edges if kind == "graph" else data.features
        if source is None:
            raise ConfigError(
                f"domain {domain!r} has no {'edges' if kind == 'graph' else 'features'} "
                f"or precomputed {kind} dissimilarity"
            )
        key = _view_key(domain, kind, cap, max_hops)
        if key not in self._views:
            if kind == "graph":
                dtype = np.min_scalar_type(cap)
                self._views[key] = graph_geodesic(
                    source, self.n_total, cap=cap, max_hops=max_hops,
                    dtype=dtype if dtype.kind == "u" else np.float64,
                )
            else:
                self._views[key] = cosine_dissimilarity(source)
        return self._views[key]

    def class_sizes(self) -> dict[int, int]:
        values, counts = np.unique(self.labels, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}


# ---------------------------------------------------------------------------
# Disk format
# ---------------------------------------------------------------------------


def _read_edges_tsv(path, id_to_index):
    pairs = []
    for lineno, parts in read_records(path):
        if len(parts) != 2:
            raise FormatError(f"{path}:{lineno}: expected two object-id columns, got {len(parts)}")
        try:
            pairs.append((id_to_index[parts[0]], id_to_index[parts[1]]))
        except KeyError as exc:
            raise IntegrityError(f"{path}:{lineno}: unknown object id {exc}") from None
    return np.asarray(pairs, dtype=int).reshape(-1, 2)


def _domain_dir(name):
    """``name`` as the directory of its domain's files, relative to the
    corpus root; a name that is not one safe path component is rejected."""
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ValidationError(f"domain name {name!r} is not filesystem-safe")
    return name


def save_corpus(corpus, path):
    """Serialize a corpus to a directory (manifest plus per-domain files)."""
    for oid in corpus.object_ids:  # checked before anything is written
        if not _ID_RE.match(oid):
            raise ValidationError(f"object id {oid!r} is not one tab-separated field")
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    domain_entries = []
    for domain in corpus.domains:
        ddir = _domain_dir(domain.name)
        (root / ddir).mkdir(exist_ok=True)
        entry = {"name": domain.name, "features": None, "edges": None, "dissimilarities": {}}
        if domain.features is not None:
            rel = f"{ddir}/features.tsv"
            write_matrix(domain.features, root / rel)
            entry["features"] = rel
        if domain.edges is not None:
            rel = f"{ddir}/edges.tsv"
            ids = corpus.object_ids
            write_lines(root / rel, (f"{ids[i]}\t{ids[j]}" for i, j in domain.edges))
            entry["edges"] = rel
        recorded = getattr(domain.dissimilarities, "files", {})
        for kind, values in sorted(domain.dissimilarities.items()):
            _, cap, max_hops = recorded.get(kind, (None,) * 3)
            rel = f"{ddir}/dissim_{kind}.tsv"
            save_dissimilarity_tsv(values, root / rel)
            entry["dissimilarities"][kind] = {"file": rel, "cap": cap, "max_hops": max_hops}
        domain_entries.append(entry)
    manifest = {
        "objects": {
            "ids": list(corpus.object_ids),
            "labels": [int(x) for x in corpus.labels],
        },
        "domains": domain_entries,
    }
    write_json(manifest, root / "manifest.json")


def register_dissimilarity(path, domain_name, kind, values, cap=None, max_hops=None) -> Path:
    """Add ``values`` to a saved corpus as ``domain_name``'s ``kind`` matrix.

    Replaces the manifest with one that records the matrix file with the
    ``cap``/``max_hops`` it was built with (None for a matrix that is not a
    geodesic), so later loads pick the matrix up. The matrix is written whole,
    with its twin, into a staging directory first. A re-registration then
    drops the kind's old entry from the manifest before the new file and twin
    replace the old ones, so a failed step leaves the kind as it was or
    unregistered, never the new matrix recorded under the old settings.
    Returns the matrix file's path.
    """
    root = Path(path)
    manifest_path = root / "manifest.json"
    manifest = read_json(manifest_path)
    ddir = _domain_dir(domain_name)
    rel = f"{ddir}/dissim_{kind}.tsv"
    try:
        domain = next((d for d in manifest["domains"] if d["name"] == domain_name), None)
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{manifest_path}: missing or malformed field {exc}") from None
    if domain is None:
        raise ValidationError(f"{manifest_path}: no domain named {domain_name!r}")
    entries = domain.get("dissimilarities") or {}
    if not isinstance(entries, dict):
        raise FormatError(
            f"{manifest_path}: domain {domain_name!r} dissimilarities {entries!r} is not an object"
        )
    domain["dissimilarities"] = entries
    with tempfile.TemporaryDirectory(dir=root / ddir) as stage:
        staged = Path(stage) / f"dissim_{kind}.tsv"
        save_dissimilarity_tsv(values, staged)
        if entries.pop(kind, None) is not None:
            write_json(manifest, manifest_path)
        move_matrix(staged, root / rel)
    entries[kind] = {"file": rel, "cap": cap, "max_hops": max_hops}
    write_json(manifest, manifest_path)
    return root / rel


def load_corpus(path) -> LabeledCorpus:
    """Load and validate a corpus directory (layout in the module docstring).

    Features and edges are read here; registered dissimilarity matrices are
    read when first used. A ``roles`` list in older manifests is ignored.
    """
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise FormatError(f"{manifest_path}: manifest not found")
    manifest = read_json(manifest_path)
    try:
        objects = manifest["objects"]
        ids, labels = objects["ids"], objects["labels"]
        domain_entries = manifest["domains"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{manifest_path}: missing or malformed field {exc}") from None
    for key, value in (("ids", ids), ("labels", labels)):
        if not isinstance(value, list):
            raise FormatError(f"{manifest_path}: objects.{key} is not a list: {value!r}")
    ids = [str(i) for i in ids]
    if len(ids) == 0:
        raise IntegrityError(f"{manifest_path}: corpus has zero objects")
    if len(labels) != len(ids):
        raise IntegrityError(
            f"{manifest_path}: {len(labels)} labels for {len(ids)} object ids"
        )
    id_to_index = {oid: k for k, oid in enumerate(ids)}

    domains = []
    for entry in domain_entries:
        try:
            name = str(entry["name"])
        except (KeyError, TypeError) as exc:
            raise FormatError(f"{manifest_path}: malformed domain entry: {exc}") from None
        for key in ("features", "edges"):
            if not isinstance(entry.get(key), (str, type(None))):
                raise FormatError(
                    f"{manifest_path}: domain {name!r} {key} entry {entry[key]!r} is not "
                    "a file name or null"
                )
        features = None
        if entry.get("features"):
            features = read_matrix(root / entry["features"])
        edges = None
        if entry.get("edges"):
            edges = _read_edges_tsv(root / entry["edges"], id_to_index)
        refs = entry.get("dissimilarities") or {}
        if not isinstance(refs, dict):
            raise FormatError(
                f"{manifest_path}: domain {name!r} dissimilarities {refs!r} is not an object"
            )
        files = {}
        for kind, ref in refs.items():
            where = f"{manifest_path}: domain {name!r} {kind} dissimilarity entry {ref!r}"
            if isinstance(ref, str):
                ref = {"file": ref}
            if not isinstance(ref, dict) or not isinstance(ref.get("file"), str):
                raise FormatError(
                    f"{where} is not a file name or {{\"file\": ..., \"cap\": ...}}"
                )
            settings = (ref.get("cap"), ref.get("max_hops"))
            if any(v is not None and type(v) is not int for v in settings):
                raise FormatError(f"{where}: cap and max_hops must be integers or null")
            files[kind] = (root / ref["file"], *settings)
        dissims = _RegisteredMatrices(files, len(ids))
        domains.append(DomainData(name, features=features, edges=edges, dissimilarities=dissims))

    return LabeledCorpus(tuple(ids), np.asarray(labels), tuple(domains))


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

_LATENT_DIM = 3
_RING_RADIUS = 4.0
_ARC_FILL = 0.7
_BOX = 0.8
_TARGET_DEGREE = 8


def _threshold_edges(points):
    """Geometric graph: distance threshold tuned to the target mean degree.

    Disconnected components are bridged through their nearest cross pairs so
    geodesics stay finite without injecting long random shortcut edges that
    would corrupt the hop metric.
    """
    n = points.shape[0]
    iu = np.triu_indices(n, k=1)
    dist = np.sqrt(((points[iu[0]] - points[iu[1]]) ** 2).sum(axis=1))
    k = min(dist.size, max(1, (_TARGET_DEGREE * n) // 2))
    threshold = np.partition(dist, k - 1)[k - 1]
    mask = dist <= threshold
    pairs = {(int(a), int(b)) for a, b in zip(iu[0][mask], iu[1][mask])}

    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    square = np.zeros((n, n))
    square[iu] = dist
    square += square.T
    while True:
        components = {}
        for v in range(n):
            components.setdefault(find(v), []).append(v)
        groups = list(components.values())
        if len(groups) == 1:
            break
        base = groups[0]
        rest = [v for group in groups[1:] for v in group]
        sub = square[np.ix_(base, rest)]
        bi, rj = np.unravel_index(np.argmin(sub), sub.shape)
        a, b = base[bi], rest[rj]
        pairs.add((min(a, b), max(a, b)))
        parent[find(a)] = find(b)
    return np.asarray(sorted(pairs), dtype=int)


def synthesize_corpus(seed, n_objects, k_domains, n_classes, noise) -> LabeledCorpus:
    """Deterministic matched corpus for pipeline tests and benchmarks.

    Classes occupy arcs of a latent ring (closed, so every class interpolates
    between its neighbors and hop distances stay informative everywhere).
    Each domain sees the latent points through its own scaled orthogonal map,
    so at noise zero all domains share one geometry exactly; ``noise`` adds
    Gaussian perturbation scaled by the domain's signal spread. Each domain
    gets both feature rows and a geometric edge list, with independent noise
    draws for the two, mirroring content vs link structure as separate
    measurements. Which classes feed relation learning and which the
    classifier is chosen per experiment (``ExperimentConfig``).
    """
    if n_classes < 2:
        raise ValidationError(f"need at least 2 classes, got {n_classes}")
    if n_objects < n_classes:
        raise ValidationError(
            f"need n_objects >= n_classes, got {n_objects} < {n_classes}"
        )
    if k_domains < 2:
        raise ValidationError(f"need at least 2 domains, got {k_domains}")
    if noise < 0:
        raise ValidationError(f"noise must be nonnegative, got {noise}")

    rng = np.random.default_rng(seed)
    labels = np.arange(n_objects) % n_classes
    rng.shuffle(labels)
    slot = 2.0 * np.pi / n_classes
    angle = labels * slot + rng.uniform(
        -0.5 * _ARC_FILL * slot, 0.5 * _ARC_FILL * slot, size=n_objects
    )
    latent = rng.uniform(-_BOX, _BOX, size=(n_objects, _LATENT_DIM))
    latent[:, 0] += _RING_RADIUS * np.cos(angle)
    latent[:, 1] += _RING_RADIUS * np.sin(angle)

    domains = []
    for k in range(k_domains):
        width = _LATENT_DIM + 2 + k
        gauss = rng.normal(size=(width, _LATENT_DIM))
        basis, _ = np.linalg.qr(gauss)
        signal = (1.0 + 0.3 * k) * (latent @ basis.T)
        spread = signal.std()
        features = signal + noise * spread * rng.normal(size=signal.shape)
        link_copy = signal + noise * spread * rng.normal(size=signal.shape)
        edges = _threshold_edges(link_copy)
        domains.append(DomainData(f"domain{k}", features=features, edges=edges))

    ids = tuple(f"obj{i:04d}" for i in range(n_objects))
    return LabeledCorpus(ids, labels, tuple(domains))
