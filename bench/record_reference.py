"""Record reference fingerprints of the experiment outputs for given seeds.

Run from the repository root, on the commit whose outputs are the reference:

    python3 bench/record_reference.py --workload ladder --seeds 0-19

Each seed runs one untraced iteration of the workload; its experiment calls
must pass the consistency checks, and their fingerprints are merged into
``bench/reference/<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import checks
import inputs
import run


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seeds", required=True, help="e.g. 0-19 or 1,5,7")
    args = parser.parse_args(argv)
    root = Path.cwd()
    path = checks.REFERENCE_DIR / f"{args.workload}.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    for seed in parse_seeds(args.seeds):
        work = root / ".bench_work" / f"record-{args.workload}-seed{seed}"
        shutil.rmtree(work, ignore_errors=True)
        inputs.generate(args.workload, seed, work / "inputs")
        record, cwd = run.run_iteration(root, work, 0, args.workload, False, run.BUDGET_S)
        fingerprints = {}
        if record["result"] is not None:
            configs = run.read_configs(work / "inputs", args.workload)
            run.check_outputs(record, cwd, args.workload, configs, None, fingerprints)
        if record["problems"]:
            print(f"seed {seed}: {record['problems']}", file=sys.stderr)
            return 1
        shutil.rmtree(work)
        table[str(seed)] = fingerprints
        print(f"seed {seed}: recorded", flush=True)
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    # One line per seed keeps the file diffable when seeds are added.
    lines = [f"{json.dumps(k)}: {json.dumps(table[k], sort_keys=True)}" for k in sorted(table, key=int)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
