"""Corpus loading, validation and synthesis.

A corpus on disk is a directory: ``manifest.json`` with object ids, integer
class labels and per-domain file references; per-domain ``features.tsv``
(one row of tab-separated reals per object), ``edges.tsv`` (two object-id
columns per line, undirected), and optional precomputed ``dissim_<kind>.tsv``
square matrices, with the ``cap`` and ``max_hops`` a graph matrix was built
with. A domain's matrices, given in memory or registered, are held by one
store that checks each once: when given, or when first read. Plain text
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
    _check_geodesic,
    _edge_list,
    as_dissimilarity,
    cosine_dissimilarity,
    graph_geodesic,
    load_dissimilarity_tsv,
    save_dissimilarity_tsv,
)
from .errors import ConfigError, FormatError, IntegrityError, ValidationError
from .formats import (_each, _fields, _map, _of, _optional, _str, check_fields, move_matrix,
                      read_fields, read_json, read_matrix, read_records, write_json,
                      write_lines, write_matrix)
from .numerics import _real_matrix

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


def _frozen_copy(array):
    if array is None:
        return None
    copy = np.array(array)
    copy.setflags(write=False)
    return copy


def _name(name):
    """``name`` if it is a string that is one safe path component: the rule
    for domain names and dissimilarity kinds, which name a corpus's
    directories and matrix files, and for a run's view tags and ``feature``,
    which name fields and files of its outputs."""
    if type(name) is not str or not _NAME_RE.match(name):
        raise ValidationError(f"name {name!r} is not a safe file-name component")
    return name


def _object_ids(ids):
    """A list or tuple of strings, each one field of an ``edges.tsv`` record,
    as a tuple: the rule for object ids that :class:`LabeledCorpus` and the
    manifest keep."""
    bad = [i for i in _of(list, tuple)(ids) if not isinstance(i, str) or not _ID_RE.match(i)]
    if bad:
        rule = "one tab-separated field" if isinstance(bad[0], str) else "a string"
        raise ValidationError(f"object id {bad[0]!r} is not {rule}")
    return tuple(ids)


def _labels(labels):
    """Class labels as a read-only int64 array: the rule that
    :class:`LabeledCorpus` and the manifest keep. A label is an int in
    [0, 2**63), not a bool; a list or tuple is checked item by item, an
    array by its type (signed or unsigned integers) and range."""
    top = np.iinfo(np.int64).max
    if isinstance(labels, np.ndarray):
        if labels.dtype.kind not in "iu":
            raise ValidationError(f"labels of type {labels.dtype} are not integer class ids")
        bad = labels[(labels < 0) | (labels > top)].tolist()
    else:
        bad = [x for x in _of(list, tuple)(labels) if type(x) is not int or not 0 <= x <= top]
    if bad:
        raise ValidationError(f"label {bad[0]!r} is not a nonnegative integer class id")
    return _frozen_copy(np.asarray(labels, np.int64))


def _n_by_n(values, n, what):
    """``values``, a square matrix, if it is ``n`` x ``n``: the check of a
    domain's matrix against the corpus's object count."""
    m = values.shape[0]
    if m != n:
        raise IntegrityError(f"{what} is {m}x{m} for {n} objects")
    return values


class _Matrices(Mapping):
    """A domain's precomputed matrices by kind, each checked once and kept.

    ``settings`` maps each kind to ``(path, cap, max_hops)``, None where the
    manifest records none (all three for a matrix given in memory). ``held``
    has a given matrix from the start and a registered one from its first
    use, read by :func:`load_dissimilarity_tsv` (in the type its twin holds:
    a geodesic's hop counts, n² bytes at ``cap`` <= 255) and size-checked
    against ``n`` objects then.
    """

    def __init__(self, settings, n, held):
        self.settings = {**dict.fromkeys(held, (None, None, None)), **settings}
        self.n = n
        self.held = held

    def __getitem__(self, kind):
        if kind not in self.held:
            path = self.settings[kind][0]
            self.held[kind] = _n_by_n(load_dissimilarity_tsv(path), self.n, f"{path}: matrix")
        return self.held[kind]

    def __contains__(self, kind):
        return kind in self.settings  # Mapping's default would read the file

    def __iter__(self):
        return iter(self.settings)

    def __len__(self):
        return len(self.settings)


@dataclass(frozen=True)
class DomainData:
    """One domain's feature rows, graph edges and precomputed matrices by kind.

    ``name`` keeps the manifest's rule (:func:`_name`): it names the domain's
    directory. Features and edges are kept as read-only copies, so a view
    built from them stays valid for the life of the corpus.
    ``dissimilarities`` is one store; a mapping given becomes one holding
    each matrix as :func:`as_dissimilarity` checks it: unsigned integers in
    their type (a geodesic's hop counts), anything else as float64.
    """

    name: str
    features: np.ndarray | None = None
    edges: np.ndarray | None = None
    dissimilarities: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        _name(self.name)
        object.__setattr__(self, "features", _frozen_copy(self.features))
        object.__setattr__(self, "edges", _frozen_copy(self.edges))
        if isinstance(self.dissimilarities, _Matrices):
            return  # load_corpus's store
        held = {}
        for kind, values in self.dissimilarities.items():
            _name(kind)
            try:
                held[kind] = as_dissimilarity(values)
            except ValidationError as exc:
                raise ValidationError(f"domain {self.name!r} {kind} {exc}") from None
        object.__setattr__(self, "dissimilarities", _Matrices({}, None, held))


def _view_key(domain, kind, cap, max_hops):
    """What tells one view of a corpus from another: geodesics also differ by
    ``cap`` and ``max_hops``."""
    return (domain, kind, cap, max_hops) if kind == "graph" else (domain, kind)


@dataclass(frozen=True)
class LabeledCorpus:
    """Matched objects with integer class labels, observed in every domain.

    Ids and labels keep the manifest's rules (:func:`_object_ids`,
    :func:`_labels`). An array of labels is checked by its type, so
    ``np.array([0, True, 1])``, which numpy has made int64, passes.

    The geodesic and cosine views :meth:`view` takes from :meth:`build` are
    kept in ``_views`` for later calls on the same object. ``_fits`` keeps the
    read-only MDS fits of whole relation pools that ``run_experiment`` makes
    on this object, each with the prescale factor its view took, keyed by
    view, pool and dimension, for the same reuse.
    """

    object_ids: tuple[str, ...]
    labels: np.ndarray
    domains: tuple[DomainData, ...]
    _views: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _fits: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = _object_ids(self.object_ids)
        n = len(ids)
        if n == 0:
            raise IntegrityError("corpus has zero objects")
        if len(set(ids)) != n:
            raise IntegrityError("object ids are not unique")
        object.__setattr__(self, "object_ids", ids)

        labels = _labels(self.labels)
        if labels.shape != (n,):
            raise IntegrityError(f"{labels.shape} labels for {n} objects")
        object.__setattr__(self, "labels", labels)

        if not self.domains:
            raise IntegrityError("corpus has no domains")
        seen = set()
        for domain in self.domains:
            if domain.name in seen:
                raise IntegrityError(f"duplicate domain name {domain.name!r}")
            seen.add(domain.name)
            if domain.features is not None:
                rows = _real_matrix(domain.features, f"domain {domain.name!r} features").shape[0]
                if rows != n:
                    raise IntegrityError(
                        f"domain {domain.name!r} has {rows} feature rows for {n} objects"
                    )
            if domain.edges is not None:
                _edge_list(domain.edges, n, f"domain {domain.name!r} edges")
            for kind, values in domain.dissimilarities.held.items():
                _n_by_n(values, n, f"domain {domain.name!r} {kind} dissimilarity")

    @property
    def n_total(self) -> int:
        return len(self.object_ids)

    def domain(self, name) -> DomainData:
        for d in self.domains:
            if d.name == name:
                return d
        raise ConfigError(f"no domain named {name!r}")

    def build(self, domain, kind, cap, max_hops) -> np.ndarray:
        """A new n x n ``kind`` dissimilarity of ``domain``, built from its
        sources whatever matrices are registered: the geodesic view of its
        edges (``kind`` ``"graph"``) or the cosine view of its features
        (``"text"``). Another kind, or a domain without the source, is a
        ``ConfigError``. A geodesic view is :func:`graph_geodesic`'s hop
        counts in the narrowest unsigned type that holds ``cap`` (one byte
        per entry when ``cap`` is at most 255), so cast it to float before
        any arithmetic that could wrap.
        """
        source_name = {"graph": "edges", "text": "features"}.get(kind)
        if source_name is None:
            raise ConfigError(f"unknown dissimilarity kind {kind!r}")
        source = getattr(self.domain(domain), source_name)
        if source is None:
            raise ConfigError(f"domain {domain!r} has no {source_name}")
        if kind == "graph":
            return graph_geodesic(source, self.n_total, cap, max_hops)
        return cosine_dissimilarity(source)

    def view(self, domain, kind, cap, max_hops) -> np.ndarray:
        """The n x n ``kind`` dissimilarity of ``domain``.

        A matrix of that kind in the domain's store is used as it is; a
        graph matrix whose ``settings`` record another ``cap`` or
        ``max_hops`` is a ``ConfigError`` (unrecorded settings are not
        compared). Otherwise what :meth:`build` returns is kept on first use
        and returned by later calls. A view is in the type it was built,
        given or registered in: a geodesic's hop counts in a narrow unsigned
        type (float64 if given as floats, or read from a file whose twin does
        not match), so cast it to float before arithmetic that could wrap.
        """
        data = self.domain(domain)
        if kind in data.dissimilarities:
            path, *recorded = data.dissimilarities.settings[kind]
            if kind == "graph" and any(
                value not in (None, asked) for value, asked in zip(recorded, (cap, max_hops))
            ):
                raise ConfigError(
                    f"{path} was built with cap={recorded[0]}, max_hops={recorded[1]}, "
                    f"but the config asks for cap={cap}, max_hops={max_hops}"
                )
            return data.dissimilarities[kind]
        key = _view_key(domain, kind, cap, max_hops)
        if key not in self._views:
            self._views[key] = self.build(domain, kind, cap, max_hops)
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


def save_corpus(corpus, path):
    """Serialize a corpus to a directory (manifest plus per-domain files)."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    domain_entries = []
    for domain in corpus.domains:
        ddir = domain.name  # one path component, by DomainData's check
        (root / ddir).mkdir(exist_ok=True)
        entry = {"name": domain.name, "features": None, "edges": None, "dissimilarities": {}}
        if domain.features is not None:
            rel = f"{ddir}/features.tsv"
            write_matrix(domain.features, root / rel)
            entry["features"] = rel
        if domain.edges is not None:
            rel = f"{ddir}/edges.tsv"
            ids = corpus.object_ids
            # An empty edge list of any shape is no edges.
            write_lines(root / rel, (f"{ids[i]}\t{ids[j]}" for i, j in domain.edges.reshape(-1, 2)))
            entry["edges"] = rel
        for kind, values in sorted(domain.dissimilarities.items()):
            _, cap, max_hops = domain.dissimilarities.settings[kind]
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


def _matrix_entry(ref):
    """A registered matrix's manifest entry, a file name or an object with a
    ``file`` and the ``cap`` and ``max_hops`` :func:`_check_geodesic` passes
    (null if not known), as ``(file, cap, max_hops)``."""
    if type(ref) is str:
        return ref, None, None
    entry = _fields({"file": _str})(ref)["file"], ref.get("cap"), ref.get("max_hops")
    _check_geodesic(*entry[1:])
    return entry


# manifest.json's fields, each with the converter that checks it. A field
# not named here (an older manifest's ``roles``) is ignored.
_MANIFEST = {
    "objects": _fields({"ids": _object_ids, "labels": _labels}),
    "domains": _each(_fields({
        "name": _name,
        "features": _optional(_str),
        "edges": _optional(_str),
        "dissimilarities": _optional(_map(_name, _matrix_entry)),
    })),
}


def register_dissimilarity(path, domain_name, kind, values, cap=None, max_hops=None) -> Path:
    """Add ``values`` to a saved corpus as ``domain_name``'s ``kind`` matrix.

    Replaces the manifest with one that records the matrix file with the
    ``cap``/``max_hops`` it was built with (None for a matrix that is not a
    geodesic), so later loads pick the matrix up. The matrix is written whole,
    with its twin, into a staging directory first. A re-registration then
    drops the kind's old entry from the manifest before the new file and twin
    replace the old ones, so a failed step leaves the kind as it was or
    unregistered, never the new matrix recorded under the old settings.
    A ``kind`` that is not a name (:func:`_name`: it names the file),
    settings that :func:`load_corpus` would reject, or a domain the manifest
    lacks, are a ``ValidationError`` and a manifest it would reject a
    ``FormatError``; either way nothing is written. Returns the matrix
    file's path.
    """
    _name(kind)
    _check_geodesic(cap, max_hops)
    root = Path(path)
    manifest_path = root / "manifest.json"
    manifest = read_json(manifest_path)
    names = [entry["name"] for entry in check_fields(manifest_path, manifest, _MANIFEST)["domains"]]
    if domain_name not in names:
        raise ValidationError(f"{manifest_path}: no domain named {domain_name!r}")
    rel = f"{domain_name}/dissim_{kind}.tsv"
    domain = manifest["domains"][names.index(domain_name)]
    entries = domain["dissimilarities"] = domain.get("dissimilarities") or {}
    with tempfile.TemporaryDirectory(dir=root / domain_name) as stage:
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

    The manifest is checked against ``_MANIFEST``: a field it rejects is a
    ``FormatError`` naming the manifest and the field's path. Features and
    edges are read here; registered dissimilarity matrices are read when
    first used. :class:`LabeledCorpus` checks the counts; its
    ``IntegrityError`` names the manifest.
    """
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise FormatError(f"{manifest_path}: manifest not found")
    manifest = read_fields(manifest_path, _MANIFEST)
    ids = manifest["objects"]["ids"]
    id_to_index = {oid: k for k, oid in enumerate(ids)}
    domains = []
    for entry in manifest["domains"]:
        features, edges = entry["features"], entry["edges"]
        settings = {kind: (root / file, *recorded)
                    for kind, (file, *recorded) in (entry["dissimilarities"] or {}).items()}
        domains.append(DomainData(
            entry["name"],
            features=read_matrix(root / features) if features else None,
            edges=_read_edges_tsv(root / edges, id_to_index) if edges else None,
            dissimilarities=_Matrices(settings, len(ids), {}),
        ))
    try:
        return LabeledCorpus(ids, manifest["objects"]["labels"], tuple(domains))
    except IntegrityError as exc:
        raise IntegrityError(f"{manifest_path}: {exc}") from None


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
