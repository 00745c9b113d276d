"""Output checks on the experiment contract files.

Every experiment call's ``curves_*.csv``, ``table.csv`` and ``replicates.log``
must be internally consistent: the curves means are the means of the logged
replicate accuracies, and the table repeats the curves at four decimals.
Where ``reference/<workload>.json`` holds fingerprints for the run's seed,
the files must also match them byte for byte, or else every cell mean may
move by less than the reference's bootstrap standard error (the rounding
rule for an equivalent solver). Anything else fails the call.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

CURVES_HEADER = "fraction,combination,mean_accuracy,std_error,item_std_error"
LOG_HEADER = "method\tcombination\tfeature\tfraction\treplicate\taccuracy"


def contract_files(out_dir, config):
    out = Path(out_dir)
    return {
        "curves": out / f"curves_{config['method']}_{config['feature']}.csv",
        "table": out / "table.csv",
        "replicates": out / "replicates.log",
    }


def _lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def read_cells(curves_path):
    """(fraction, combination) -> (mean, std_error), in file order."""
    lines = _lines(curves_path)
    if not lines or lines[0] != CURVES_HEADER:
        raise ValueError(f"{curves_path.name}: unexpected header")
    cells = {}
    for line in lines[1:]:
        fraction, combo, mean, se, _ = line.split(",")
        cells[(float(fraction), combo)] = (float(mean), float(se))
    return cells


def fingerprint(out_dir, config):
    """SHA-256 of each contract file plus the cell means and SEs."""
    files = contract_files(out_dir, config)
    return {
        "files": {k: hashlib.sha256(p.read_bytes()).hexdigest() for k, p in files.items()},
        "cells": [[f, c, m, s] for (f, c), (m, s) in read_cells(files["curves"]).items()],
    }


def consistency_errors(out_dir, config):
    """What is wrong with one experiment call's outputs; empty when nothing."""
    files = contract_files(out_dir, config)
    missing = [p.name for p in files.values() if not p.is_file()]
    if missing:
        return [f"missing {', '.join(missing)}"]
    try:
        cells = read_cells(files["curves"])
        log = _lines(files["replicates"])
        table = _lines(files["table"])
        if not log or log[0] != LOG_HEADER:
            raise ValueError("replicates.log: unexpected header")
        accuracies = {}
        for line in log[1:]:
            _, combo, _, fraction, rep, acc = line.split("\t")
            accuracies.setdefault((float(fraction), combo), []).append((int(rep), float(acc)))
    except ValueError as exc:
        return [f"unreadable output: {exc}"]
    errors = []
    combos = list(config["combinations"])
    fractions = sorted({f for f, _ in cells})
    if sorted(cells) != sorted((f, c) for f in fractions for c in combos):
        errors.append("curves cells do not cover fractions x combinations")
    if sorted(accuracies) != sorted(cells):
        errors.append("replicates.log cells differ from curves cells")
    for key, (mean, se) in cells.items():
        reps = accuracies.get(key, [])
        values = [a for _, a in reps]
        if [r for r, _ in reps] != list(range(config["replicates"])):
            errors.append(f"cell {key}: replicate indices {[r for r, _ in reps]}")
        elif not all(0.0 <= a <= 1.0 for a in values):
            errors.append(f"cell {key}: accuracy outside [0, 1]")
        elif not math.isclose(mean, sum(values) / len(values), rel_tol=1e-12, abs_tol=1e-12):
            errors.append(f"cell {key}: curves mean {mean!r} is not the logged mean")
        elif se < 0 or (len(set(values)) == 1 and se != 0.0):
            errors.append(f"cell {key}: bad standard error {se!r}")

    heads = ",".join(f"S={f * 100:g}%" for f in fractions)
    expected = [f"method,combination,feature,{heads}"] + [
        f"{config['method']},{c},{config['feature']},"
        + ",".join(f"{cells[(f, c)][0]:.4f}±{cells[(f, c)][1]:.4f}" for f in fractions)
        for c in combos
    ]
    if table != expected:
        errors.append("table.csv does not repeat the curves")
    return errors


def load_reference(workload, seed):
    """Reference fingerprints of the seed's experiment calls, or None."""
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh).get(str(seed))


def reference_errors(found, reference):
    """Empty when ``found`` matches ``reference`` byte for byte or within the
    rounding rule: each cell mean moved by less than the reference SE."""
    if found["files"] == reference["files"]:
        return []
    ref_cells = {(f, c): (m, s) for f, c, m, s in reference["cells"]}
    cells = {(f, c): m for f, c, m, _ in found["cells"]}
    if sorted(cells) != sorted(ref_cells):
        return ["cells differ from the reference"]
    return [
        f"cell {key}: mean {cells[key]!r} vs reference {mean!r} (se {se!r})"
        for key, (mean, se) in ref_cells.items()
        if cells[key] != mean and not abs(cells[key] - mean) < se
    ]
