"""One short pass per workload through the real runner, perfbench/run.py.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys

import pytest

from conftest import BENCH

BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run_benchmark(tmp_path, workload, trace):
    result_file = tmp_path / f"{workload}-{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--result-file", str(result_file)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    return last, json.loads(result_file.read_text())


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def test_untraced_run_prints_every_end_to_end_metric(tmp_path):
    last, result = run_benchmark(tmp_path, "norm-queries", 0)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert units(last["metrics"]) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] == 2 * 39  # two passes
    assert result["failed_ratio"]["value"] == 0.0
    assert result["environment"]["blas_threads"] >= 1


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_pass_reports_layers_and_separation(tmp_path, workload):
    last, result = run_benchmark(tmp_path, workload, 1)
    assert units(last["metrics"]) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert units(result["end_to_end"]) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert result["traced_identical"] and last["correct"]
    layers = {name: m["value"] for name, m in last["metrics"].items()}
    assert layers["trace.overhead_ratio"] > 0
    if workload == "field-verdicts":
        assert layers["invariants.quermass_calls"] == 0
        assert layers["manifold.christoffel_calls"] > 0
        assert layers["manifold.field_nodes"] == 12 * 33 * 33 + 4 * 9 ** 3  # field and berwald jobs
    else:
        assert layers["manifold.christoffel_calls"] == 0
        assert layers["invariants.quermass_calls"] > 0
