"""Tests of the benchmark harness itself (not of the package).

Kept out of the package's test collection by name; run from the repository
root with

    python3 -m pytest -q bench/tests/check_bench.py
"""

import filecmp
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _tree(root):
    return sorted(p.relative_to(root) for p in Path(root).rglob("*") if p.is_file())


def test_inputs_are_deterministic_in_the_seed(tmp_path):
    inputs.generate("ladder", 3, tmp_path / "a")
    inputs.generate("ladder", 3, tmp_path / "b")
    inputs.generate("ladder", 4, tmp_path / "c")
    files = _tree(tmp_path / "a")
    assert files == _tree(tmp_path / "b")
    assert all(filecmp.cmp(tmp_path / "a" / f, tmp_path / "b" / f, shallow=False) for f in files)
    features = Path("corpus/domain0/features.tsv")
    assert not filecmp.cmp(tmp_path / "a" / features, tmp_path / "c" / features, shallow=False)


def test_metric_names_and_units_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert sorted(end_to_end) == sorted(run.END_TO_END_UNITS)
    assert sorted(per_layer) == sorted(run.per_layer_names())
    for name, unit in {**end_to_end, **per_layer}.items():
        assert NAME.match(name), name
        assert unit == run.unit_of(name), name
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_self_time_is_duration_minus_children_and_never_negative():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["d", 2.0, 3.0, 1],
        ["c", 5.0, 7.0, 0],
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 1.0, 2.0]

    tracer = tracing.Tracer(shared_dim=1)

    def leaf(x):
        return sum(range(x))

    wrapped_leaf = tracer.wrap(leaf)

    def parent(x):
        return wrapped_leaf(x) + wrapped_leaf(2 * x)

    tracer.wrap(parent)(20000)
    own = tracing.self_times(tracer.spans)
    for index, (_, start, end, _) in enumerate(tracer.spans):
        children = sum(e - s for _, s, e, p in tracer.spans if p == index)
        assert own[index] == pytest.approx(end - start - children, abs=1e-12)
        assert own[index] >= 0.0
    assert [p for *_, p in tracer.spans] == [-1, 0, 0]


def test_traced_run_restores_every_wrapped_attribute():
    import worker

    before = {m.__name__: dict(vars(m)) for m in worker.MODULES}
    patches = tracing.Patches()
    tracing.Tracer(shared_dim=15).install(worker.MODULES, patches)
    worker.Boundaries().install(patches)
    assert worker.experiment.mds_fit is not before["manifold_match.experiment"]["mds_fit"]
    assert worker.cli.main is not before["manifold_match.cli"]["main"]
    patches.restore()
    for module in worker.MODULES:
        after = vars(module)
        assert after.keys() == before[module.__name__].keys()
        for attr, value in before[module.__name__].items():
            assert after[attr] is value, f"{module.__name__}.{attr}"


def test_a_call_forced_to_fail_counts_in_failed_frac(tmp_path, monkeypatch):
    (tmp_path / "src").symlink_to(ROOT / "src")
    generate = inputs.generate

    def generate_broken(workload, seed, root):
        generate(workload, seed, root)
        config = json.loads((root / "config.json").read_text())
        config["kappa"] = 0  # rejected by config validation: the call exits 2
        (root / "config.json").write_text(json.dumps(config))

    monkeypatch.setattr(inputs, "generate", generate_broken)
    _, result = run.run_workload(tmp_path, "ladder", 1, 0.0, False)
    iterations = result["iterations"]
    assert (result["attempted"], result["failed"]) == (len(iterations), len(iterations))
    assert result["correct"] is False
    assert result["metrics"]["pass_frac"]["value"] == 0.0
    assert all(it["problems"] == {"experiment": "exit 2"} for it in iterations)


def _write_outputs(out, cells, replicates, config):
    out.mkdir()
    files = checks.contract_files(out, config)
    fractions = sorted({f for f, _ in cells})
    curves = [checks.CURVES_HEADER]
    log = [checks.LOG_HEADER]
    for f in fractions:
        for c in config["combinations"]:
            mean = sum(replicates[(f, c)]) / len(replicates[(f, c)])
            curves.append(f"{f!r},{c},{mean!r},{cells[(f, c)]!r},0.01")
            log += [f"gcca\t{c}\tsynthetic\t{f!r}\t{r}\t{a!r}"
                    for r, a in enumerate(replicates[(f, c)])]
    heads = ",".join(f"S={f * 100:g}%" for f in fractions)
    table = [f"method,combination,feature,{heads}"] + [
        f"gcca,{c},synthetic," + ",".join(
            f"{sum(replicates[(f, c)]) / len(replicates[(f, c)]):.4f}±{cells[(f, c)]:.4f}" for f in fractions)
        for c in config["combinations"]
    ]
    for key, lines in (("curves", curves), ("replicates", log), ("table", table)):
        files[key].write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_output_check_applies_the_rounding_rule(tmp_path):
    config = {"method": "gcca", "feature": "synthetic", "combinations": ["GF->GE"], "replicates": 2}
    ses = {(0.5, "GF->GE"): 0.05, (1.0, "GF->GE"): 0.0}
    reference_reps = {(0.5, "GF->GE"): [0.5, 0.7], (1.0, "GF->GE"): [0.8, 0.8]}
    _write_outputs(tmp_path / "ref", ses, reference_reps, config)
    assert checks.consistency_errors(tmp_path / "ref", config) == []
    reference = checks.fingerprint(tmp_path / "ref", config)
    assert checks.reference_errors(reference, reference) == []

    within = {(0.5, "GF->GE"): [0.52, 0.7], (1.0, "GF->GE"): [0.8, 0.8]}
    _write_outputs(tmp_path / "within", ses, within, config)
    found = checks.fingerprint(tmp_path / "within", config)
    assert found["files"] != reference["files"]
    assert checks.reference_errors(found, reference) == []

    # At S=100% the reference SE is 0, so any move fails.
    moved = {(0.5, "GF->GE"): [0.5, 0.7], (1.0, "GF->GE"): [0.8, 0.9]}
    _write_outputs(tmp_path / "moved", ses, moved, config)
    assert checks.consistency_errors(tmp_path / "moved", config) == []
    errors = checks.reference_errors(checks.fingerprint(tmp_path / "moved", config), reference)
    assert len(errors) == 1 and "(1.0, 'GF->GE')" in errors[0]

    table = checks.contract_files(tmp_path / "ref", config)["table"]
    table.write_text(table.read_text(encoding="utf-8").replace("0.6000", "0.6001"), encoding="utf-8")
    assert checks.consistency_errors(tmp_path / "ref", config) == ["table.csv does not repeat the curves"]
