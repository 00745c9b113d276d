"""Benchmark of the manifold-match pipeline.

Run from the repository root:

    python3 bench/run.py --workload ladder --seed 1 --seconds 25 --trace 0

``--workload all`` runs the three workloads one after another. The run
generates the workload's inputs from ``--seed`` (untimed), then runs the
workload once per iteration, each iteration in a fresh worker process on a
fresh copy of the inputs, until ``--seconds`` have passed. It checks every
pipeline call's outputs, prints each metric by name with its unit and sample
count, and ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
untraced and traced iterations alternate and the metrics are the per-layer
ones from the traced iterations, plus the tracing overhead. Inputs, outputs
and a result file with provenance and spans go under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
import tracing

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("paper-scale", "ladder", "cli-staged")
# No iteration starts once the run could no longer end within this budget.
BUDGET_S = 165.0
# Every median has at least two samples; a traced run has one of each kind.
MIN_ITERATIONS = 2
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "replicates_per_s": "1/s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}
TRACE_METRICS = ("trace.run_s", "trace.untraced_run_s", "trace.overhead_s")


def unit_of(metric):
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if "bytes" in metric:
        return "bytes"
    for suffix, unit in (("_s", "s"), ("_us", "us"), ("_frac", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


def per_layer_names():
    return sorted(tracing.TIME_METRICS + tracing.COUNT_METRICS) + list(TRACE_METRICS)


def git_commit(root):
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(root, seed, blas_runtime):
    import numpy
    import scipy

    build = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_build = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": f"{build.get('name')} {build.get('version')}",
        "blas_scipy": f"{scipy_build.get('name')} {scipy_build.get('version')}",
        "blas_runtime": blas_runtime,
        "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
        "platform": platform.platform(),
        "git_commit": git_commit(root),
        "seeds": {"workload": seed, "corpus": seed, "experiment": seed},
    }


def run_iteration(root, work, index, workload, traced, timeout):
    """One worker process on a fresh copy of the inputs; returns its record."""
    cwd = work / f"iter{index}"
    shutil.copytree(work / "inputs", cwd)
    result_path = work / f"iter{index}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    started = time.monotonic()
    try:
        code = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), workload, str(int(traced)), str(result_path)],
            cwd=cwd, env=env, stdout=subprocess.DEVNULL, timeout=timeout,
        ).returncode
    except subprocess.TimeoutExpired:
        code = "timeout"
    record = {"traced": traced, "wall_s": time.monotonic() - started, "problems": {}}
    if code != 0 or not result_path.is_file():
        record["result"] = None
        record["problems"] = {n: f"worker exit {code}" for n in inputs.call_names(workload)}
        return record, cwd
    with open(result_path, "r", encoding="utf-8") as fh:
        record["result"] = json.load(fh)
    outcomes = {o["name"]: o for o in record["result"]["outcomes"]}
    for name in inputs.call_names(workload):
        outcome = outcomes.get(name)
        if outcome is None or not outcome["ok"]:
            record["problems"][name] = f"exit {outcome and outcome['code']}"
    return record, cwd


def read_configs(inputs_dir, workload):
    configs = {}
    for config_file, _ in inputs.experiment_calls(workload).values():
        with open(inputs_dir / config_file, "r", encoding="utf-8") as fh:
            configs[config_file] = json.load(fh)
    return configs


def check_outputs(record, cwd, workload, configs, reference, first):
    """Output checks of each experiment call; fills ``first`` on first use."""
    for name, (config_file, out_dir) in inputs.experiment_calls(workload).items():
        if name in record["problems"]:
            continue
        config = configs[config_file]
        errors = checks.consistency_errors(cwd / out_dir, config)
        if not errors:
            found = checks.fingerprint(cwd / out_dir, config)
            first.setdefault(name, found)
            if found["files"] != first[name]["files"]:
                errors.append("outputs differ from the run's first iteration")
            if reference and name in reference:
                errors += checks.reference_errors(found, reference[name])
        if errors:
            record["problems"][name] = "; ".join(errors)


def end_to_end(records, attempted, failed):
    results = [r["result"] for r in records if not r["traced"] and r["result"]]
    rates = [r["replicates"] / r["replicate_s"] for r in results if r["replicate_s"] > 0]
    values = {
        "run_s": [r["run_s"] for r in results],
        "setup_s": [r["setup_s"] for r in results],
        "replicates_per_s": rates,
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
    }
    metrics = {m: (statistics.median(v), len(v)) for m, v in values.items() if v}
    metrics["pass_frac"] = (1.0 - failed / attempted, attempted)
    return metrics


def per_layer(records):
    traced = [r["result"] for r in records if r["traced"] and r["result"]]
    plain = [r["result"]["run_s"] for r in records if not r["traced"] and r["result"]]
    if not traced or not plain:
        return {}, []
    summary, unsteady = tracing.summarize(traced)
    metrics = {m: (v, len(traced)) for m, v in summary.items()}
    traced_run = statistics.median(r["run_s"] for r in traced)
    untraced_run = statistics.median(plain)
    metrics["trace.run_s"] = (traced_run, len(traced))
    metrics["trace.untraced_run_s"] = (untraced_run, len(plain))
    metrics["trace.overhead_s"] = (traced_run - untraced_run, min(len(traced), len(plain)))
    return metrics, unsteady


def run_workload(root, workload, seed, seconds, trace):
    """Run one workload; returns (summary lines, result dict)."""
    work = root / ".bench_work" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    inputs.generate(workload, seed, work / "inputs")
    configs = read_configs(work / "inputs", workload)
    reference = checks.load_reference(workload, seed)

    records, first = [], {}
    started = time.monotonic()
    while True:
        traced = trace and len(records) % 2 == 1
        timeout = max(BUDGET_S - (time.monotonic() - started), 1.0)
        record, cwd = run_iteration(root, work, len(records), workload, traced, timeout)
        if record["result"] is not None:
            check_outputs(record, cwd, workload, configs, reference, first)
        shutil.rmtree(cwd, ignore_errors=True)
        records.append(record)
        elapsed = time.monotonic() - started
        done = elapsed >= seconds and len(records) >= MIN_ITERATIONS
        if done or elapsed + record["wall_s"] > BUDGET_S:
            break

    attempted = len(records) * len(inputs.call_names(workload))
    failed = sum(len(r["problems"]) for r in records)
    metrics, unsteady = per_layer(records) if trace else ({}, [])
    if not trace:
        metrics = end_to_end(records, attempted, failed)
    blas = next((r["result"]["blas"] for r in records if r["result"]), [])
    result = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": failed == 0 and not unsteady,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": unit_of(m), "samples": n} for m, (v, n) in metrics.items()},
        "unsteady_counts": unsteady,
        "reference": reference is not None,
        "provenance": provenance(root, seed, blas),
        "iterations": records,
    }
    results = root / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    result_path = results / f"{workload}-seed{seed}-trace{int(trace)}.json"
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    shutil.rmtree(work, ignore_errors=True)

    lines = [f"== {workload}  seed {seed}  trace {int(trace)}  {len(records)} iterations"]
    for m, entry in sorted(result["metrics"].items()):
        lines.append(f"{m:40s} {entry['value']:14.6g} {entry['unit']:6s} (n={entry['samples']})")
    lines.append(f"{'failed_frac':40s} {failed / attempted:14.6g} ratio  ({failed} of {attempted} calls)")
    for index, record in enumerate(records):
        for name, problem in record["problems"].items():
            lines.append(f"FAILED iteration {index} {name}: {problem}")
    if unsteady:
        lines.append(f"FAILED counts that did not repeat: {', '.join(unsteady)}")
    lines.append(
        "output check: " + (f"reference fingerprints for seed {seed}" if reference
                            else f"no reference for seed {seed}; consistency checks only")
    )
    lines.append(f"provenance: {json.dumps(result['provenance'], sort_keys=True)}")
    lines.append(f"result file: {result_path.relative_to(root)}")
    return lines, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "manifold_match" / "__init__.py").is_file():
        print(f"error: no package source at {root / 'src' / 'manifold_match'}; "
              "run from the repository root", file=sys.stderr)
        return 2

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in chosen:
        lines, result = run_workload(root, workload, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        results.append(result)
    for r in results:
        expected = per_layer_names() if args.trace else list(END_TO_END_UNITS)
        missing = [m for m in expected if m not in r["metrics"]]
        if missing:
            print(f"error: {r['workload']}: no measurement of {', '.join(missing)}",
                  file=sys.stderr)
            return 1
    if len(results) == 1:
        metrics = {m: {"value": e["value"], "unit": e["unit"]} for m, e in results[0]["metrics"].items()}
    else:
        metrics = {
            f"{r['workload']}.{m}": {"value": e["value"], "unit": e["unit"]}
            for r in results for m, e in r["metrics"].items()
        }
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
