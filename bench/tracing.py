"""Spans and work counts recorded from outside the package.

Each public function of a layer module is wrapped where the calling module
bound it (``experiment.mds_fit``, ``mds.eig_sym``, ...), so a span is a call
that crossed a module boundary. A span is ``[name, start, end, parent]``
with ``parent`` the index of the enclosing span or -1; spans stay in memory
and are handed back when the run ends. Work counts are computed from the
arguments and return values at the same boundaries; the time spent computing
them is recorded as a ``trace.count`` child span, so it never lands in a
layer's self time.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = (
    "corpus", "dissimilarity", "mds", "numerics",
    "align", "classify", "experiment", "cli",
)

COUNT_SPAN = "trace.count"


class Patches:
    """Module attribute replacements, undone in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def public_functions(module):
    """(attribute, function) pairs for the package functions a module binds."""
    for attr, value in sorted(vars(module).items()):
        if (
            not attr.startswith("_")
            and inspect.isfunction(value)
            and value.__module__.startswith("manifold_match.")
        ):
            yield attr, value


def span_name(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _digest(*parts):
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            part = np.ascontiguousarray(part)
            h.update(repr((part.dtype.str, part.shape)).encode())
            h.update(part.tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _corpus_bytes(root):
    root = Path(root)
    manifest = root / "manifest.json"
    total = manifest.stat().st_size
    with open(manifest, "r", encoding="utf-8") as fh:
        entries = json.load(fh)["domains"]
    for entry in entries:
        files = [entry.get("features"), entry.get("edges")]
        for ref in (entry.get("dissimilarities") or {}).values():
            files.append(ref if isinstance(ref, str) else ref["file"])
        total += sum((root / f).stat().st_size for f in files if f)
    return total


def _dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


class Tracer:
    """Records spans and work counts for every wrapped call.

    ``shared_dim`` is the shared dimension the workload asks for; an MDS fit
    whose effective dimension falls below it counts as a dimension shortfall.
    """

    def __init__(self, shared_dim):
        self.shared_dim = shared_dim
        self.spans = []
        self.counts = {
            "mds.fit_n3": 0,
            "mds.oos_rows": 0,
            "mds.dim_shortfall": 0,
            "align.width_sum": 0,
            "classify.queries": 0,
            "corpus.bytes_read": 0,
            "experiment.emit_bytes": 0,
        }
        self._distinct = {"dissimilarity.graph_geodesic": set(), "mds.mds_fit": set()}
        self._stack = []

    def install(self, modules, patches):
        for module in modules:
            for attr, fn in list(public_functions(module)):
                patches.replace(module, attr, self.wrap(fn))

    def wrap(self, fn):
        name = span_name(fn)
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][1] = start
                spans[index][2] = perf_counter()
                stack.pop()
            self._count(name, signature, args, kwargs, result, index)
            return result

        return traced

    def _count(self, name, signature, args, kwargs, result, index):
        if name not in _COUNTERS:
            return
        start = perf_counter()
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        _COUNTERS[name](self, bound.arguments, result)
        # A sibling of the counted call, so its parent's self time excludes it.
        self.spans.append([COUNT_SPAN, start, perf_counter(), self.spans[index][3]])

    def _geodesic(self, a, result):
        edges = np.asarray(a["edges"])
        self._distinct["dissimilarity.graph_geodesic"].add(
            _digest(edges, a["n"], a["cap"], a["max_hops"])
        )

    def _mds_fit(self, a, model):
        values = np.asarray(getattr(a["delta"], "values", a["delta"]), dtype=float)
        self.counts["mds.fit_n3"] += values.shape[0] ** 3
        self._distinct["mds.mds_fit"].add(_digest(values, a["p"]))
        if model.effective_dim < self.shared_dim:
            self.counts["mds.dim_shortfall"] += 1

    def _oos(self, a, result):
        self.counts["mds.oos_rows"] += np.atleast_2d(np.asarray(a["delta_new"])).shape[0]

    def _align(self, a, result):
        views = a["views"] if "views" in a else [a["x1"], a["x2"]]
        self.counts["align.width_sum"] += sum(np.shape(v)[1] for v in views)

    def _loo(self, a, result):
        self.counts["classify.queries"] += len(a["train_view"])

    def _load(self, a, result):
        self.counts["corpus.bytes_read"] += _corpus_bytes(a["path"])

    def _emit(self, a, result):
        self.counts["experiment.emit_bytes"] += _dir_bytes(a["out_dir"])

    def distinct(self):
        return {name: len(keys) for name, keys in self._distinct.items()}


_COUNTERS = {
    "dissimilarity.graph_geodesic": Tracer._geodesic,
    "mds.mds_fit": Tracer._mds_fit,
    "mds.mds_out_of_sample": Tracer._oos,
    "align.cca_fit": Tracer._align,
    "align.gcca_fit": Tracer._align,
    "classify.loo_cross_view_accuracy": Tracer._loo,
    "corpus.load_corpus": Tracer._load,
    "experiment.emit_curves": Tracer._emit,
}


def self_times(spans):
    """Each span's duration minus the durations of its direct children.

    Calls run on one thread, so children never overlap one another and lie
    inside their parent: the difference is the parent's own time.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


# Per-layer metric -> span names whose time it sums ("_s") or calls it counts.
_TIMES = {
    "dissimilarity.geodesic_s": ("dissimilarity.graph_geodesic",),
    "dissimilarity.cosine_s": ("dissimilarity.cosine_dissimilarity",),
    "dissimilarity.prescale_s": ("dissimilarity.frobenius_prescale",),
    "dissimilarity.tsv_read_s": ("dissimilarity.load_dissimilarity_tsv",),
    "dissimilarity.tsv_write_s": ("dissimilarity.save_dissimilarity_tsv",),
    "mds.fit_s": ("mds.mds_fit",),
    "mds.oos_s": ("mds.mds_out_of_sample",),
    "numerics.eig_sym_s": ("numerics.eig_sym",),
    "numerics.eig_gen_s": ("numerics.eig_sym_generalized",),
    "align.fit_s": ("align.cca_fit", "align.gcca_fit"),
    "align.project_s": ("align.project",),
    "align.io_s": ("align.save_alignment", "align.load_alignment"),
    "classify.loo_s": ("classify.loo_cross_view_accuracy",),
    "classify.average_s": ("classify.average_views",),
    "corpus.load_s": ("corpus.load_corpus",),
    "experiment.emit_s": ("experiment.emit_curves",),
}
_SELF_TIMES = {
    "mds.fit_self_s": ("mds.mds_fit",),
    "align.fit_self_s": ("align.cca_fit", "align.gcca_fit"),
    "experiment.self_s": ("experiment.run_experiment",),
    "cli.self_s": ("cli.main",),
}
_CALLS = {
    "dissimilarity.geodesic_calls": ("dissimilarity.graph_geodesic",),
    "dissimilarity.prescale_calls": ("dissimilarity.frobenius_prescale",),
    "mds.fit_calls": ("mds.mds_fit",),
    "mds.oos_calls": ("mds.mds_out_of_sample",),
    "numerics.eig_sym_calls": ("numerics.eig_sym",),
    "numerics.eig_gen_calls": ("numerics.eig_sym_generalized",),
    "align.fit_calls": ("align.cca_fit", "align.gcca_fit"),
    "classify.loo_calls": ("classify.loo_cross_view_accuracy",),
    "corpus.load_calls": ("corpus.load_corpus",),
    "experiment.calls": ("experiment.run_experiment",),
    "cli.calls": ("cli.main",),
}

TIME_METRICS = sorted(set(_TIMES) | set(_SELF_TIMES) | {"classify.query_us"})
COUNT_METRICS = sorted(
    set(_CALLS)
    | set(Tracer(0).counts)
    | {"dissimilarity.geodesic_unique_frac", "mds.fit_unique_frac"}
)


def layer_metrics(spans, counts, distinct):
    """Per-layer metrics of one traced iteration, as ``{name: value}``."""
    own = self_times(spans)
    total, self_total, calls = {}, {}, {}
    for (name, start, end, _), self_s in zip(spans, own):
        total[name] = total.get(name, 0.0) + (end - start)
        self_total[name] = self_total.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
    out = {}
    for metric, names in _TIMES.items():
        out[metric] = sum(total.get(n, 0.0) for n in names)
    for metric, names in _SELF_TIMES.items():
        out[metric] = sum(self_total.get(n, 0.0) for n in names)
    for metric, names in _CALLS.items():
        out[metric] = sum(calls.get(n, 0) for n in names)
    out.update(counts)
    out["classify.query_us"] = (
        1e6 * out["classify.loo_s"] / counts["classify.queries"]
        if counts["classify.queries"] else 0.0
    )
    for metric, name, n in (
        ("dissimilarity.geodesic_unique_frac", "dissimilarity.graph_geodesic",
         out["dissimilarity.geodesic_calls"]),
        ("mds.fit_unique_frac", "mds.mds_fit", out["mds.fit_calls"]),
    ):
        out[metric] = distinct[name] / n if n else 1.0
    return out


def summarize(iterations):
    """Median of each time metric over traced iterations; counts from the
    first, with the names of counts that did not repeat exactly."""
    per = [layer_metrics(it["spans"], it["counts"], it["distinct"]) for it in iterations]
    out = {m: statistics.median(p[m] for p in per) for m in TIME_METRICS}
    unsteady = []
    for m in COUNT_METRICS:
        out[m] = per[0][m]
        if any(p[m] != per[0][m] for p in per[1:]):
            unsteady.append(m)
    return out, unsteady

