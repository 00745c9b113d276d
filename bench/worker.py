"""One iteration of one workload, in a fresh process.

Usage: ``python3 bench/worker.py <workload> <trace 0|1> <result.json>``, run
with the iteration directory (a copy of the generated inputs) as the working
directory and the package's ``src`` on ``PYTHONPATH``. The package's own
stdout is discarded by the caller; the measurements go to ``result.json``.
"""

from __future__ import annotations

import ctypes
import json
import resource
import sys
import traceback
from time import perf_counter

from manifold_match import (
    align, classify, cli, corpus, dissimilarity, experiment, mds, numerics,
)

import inputs
import tracing

MODULES = (corpus, dissimilarity, mds, numerics, align, classify, experiment, cli)


class Boundaries:
    """The timestamps the end-to-end metrics need from inside a run.

    An experiment call starts at ``begin`` or at ``run_experiment``,
    whichever comes first; its set-up ends at its first call into the
    ``mds`` layer; its replicate phase ends at its last ``on_row`` callback.
    """

    def __init__(self):
        self.calls = []  # [start, first mds call, last on_row, replicates]

    def begin(self):
        if not self.calls or self.calls[-1][1] is not None:
            self.calls.append([perf_counter(), None, None, 0])

    def on_row(self, row, row_records):
        call = self.calls[-1]
        call[2] = perf_counter()
        call[3] += len({record[4] for record in row_records})

    def _mark(self, fn):
        def into_mds(*args, **kwargs):
            if self.calls and self.calls[-1][1] is None:
                self.calls[-1][1] = perf_counter()
            return fn(*args, **kwargs)
        return into_mds

    def _run(self, fn):
        def run_experiment(config, corpus=None, on_row=None):
            self.begin()

            def chained(row, row_records):
                if on_row is not None:
                    on_row(row, row_records)
                self.on_row(row, row_records)

            return fn(config, corpus=corpus, on_row=chained)
        return run_experiment

    def install(self, patches):
        """Wrap every binding of ``run_experiment`` and every binding of an
        ``mds`` function outside ``mds``, wherever the package binds them."""
        for module in MODULES:
            for attr, fn in list(tracing.public_functions(module)):
                if fn.__name__ == "run_experiment":
                    patches.replace(module, attr, self._run(fn))
                elif module is not mds and fn.__module__ == mds.__name__:
                    patches.replace(module, attr, self._mark(fn))


def _attempt(name, fn, outcomes):
    try:
        code = fn()
    except (Exception, SystemExit):
        traceback.print_exc()
        code = "raised"
    outcomes.append({"name": name, "ok": code in (None, 0), "code": code})


def paper_scale(bounds, outcomes):
    # One corpus load shared by both experiment calls; the first call's
    # set-up includes it.
    loaded = {}
    for name, (config_path, out_dir) in inputs.experiment_calls("paper-scale").items():
        def call():
            bounds.begin()
            if "corpus" not in loaded:
                loaded["corpus"] = corpus.load_corpus("corpus")
            config = experiment.ExperimentConfig.from_json(config_path)
            report = experiment.run_experiment(config, corpus=loaded["corpus"])
            experiment.emit_curves(report, out_dir)
        _attempt(name, call, outcomes)


def ladder(bounds, outcomes):
    argv = ["experiment", "--config", "config.json", "--out", "out"]
    _attempt("experiment", lambda: cli.main(argv), outcomes)


def cli_staged(bounds, outcomes):
    for name, argv in inputs.cli_staged_steps():
        _attempt(name, lambda argv=argv: cli.main(argv), outcomes)


WORKLOADS = {"paper-scale": paper_scale, "ladder": ladder, "cli-staged": cli_staged}


def blas_runtime():
    """Config string and thread count of every OpenBLAS loaded in this process."""
    found = []
    with open("/proc/self/maps", "r", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": path.rsplit("/", 1)[-1]}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
                    info["threads"] = int(threads())
        found.append(info)
    return found


def run(workload, trace):
    patches = tracing.Patches()
    tracer = None
    if trace:
        tracer = tracing.Tracer(inputs.shared_dim(workload))
        tracer.install(MODULES, patches)
    bounds = Boundaries()
    bounds.install(patches)
    outcomes = []
    try:
        start = perf_counter()
        WORKLOADS[workload](bounds, outcomes)
        end = perf_counter()
    finally:
        patches.restore()
    experiments = [c for c in bounds.calls if c[1] is not None and c[2] is not None]
    result = {
        "outcomes": outcomes,
        "run_s": end - start,
        "setup_s": sum(first - begin for begin, first, _, _ in experiments),
        "replicate_s": sum(last - first for _, first, last, _ in experiments),
        "replicates": sum(c[3] for c in experiments),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas": blas_runtime(),
    }
    if tracer is not None:
        result.update(spans=tracer.spans, counts=tracer.counts, distinct=tracer.distinct())
    return result


def main(argv):
    workload, trace, result_path = argv
    result = run(workload, trace == "1")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
