"""Self-tests for the benchmark harness (smoke-sized; a few seconds each).

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer as tracer_module  # noqa: E402
import workloads  # noqa: E402


def _small(name: str):
    workload = workloads.WORKLOADS[name]
    if isinstance(workload, workloads.ServeWorkload):
        return workload
    return replace(workload, queries=12, intervals=3)


@pytest.mark.parametrize("name", ["plan_cost", "actual_rows"])
def test_generate_smoke(name):
    workload = _small(name)
    requests = workloads.generate_requests(workload, seed=3, count=2)
    measured = workloads.run_generate_pass(workload, requests)
    assert len(measured["outcomes"]) == 2
    assert all(o["error"] is None and o["generated"] > 0 for o in measured["outcomes"])
    assert workloads.check_reference(workload, requests, measured["outcomes"]) == 0


def test_serve_smoke(tmp_path):
    workload = workloads.WORKLOADS["serve_small_jobs"]
    payloads = workloads.serve_payloads(workload, seed=3, count=4)
    measured = workloads.run_serve_pass(workload, payloads, tmp_path / "serve")
    assert measured["failed"] == 0
    assert len(measured["done"]) == 4
    assert all(len(r["result"]["fingerprint"]) == 64 for r in measured["done"])


def test_inputs_are_a_function_of_the_seed():
    workload = _small("plan_cost")
    first = workloads.generate_requests(workload, seed=5, count=3)
    again = workloads.generate_requests(workload, seed=5, count=3)
    other = workloads.generate_requests(workload, seed=6, count=3)
    assert [r.config for r in first] == [r.config for r in again]
    assert [r.distribution for r in first] == [r.distribution for r in again]
    assert [r.config.seed for r in first] != [r.config.seed for r in other]


def test_self_times_plus_unattributed_equal_traced_wall():
    workload = _small("plan_cost")
    attempted, failed, metrics, _ = workloads.trace_generate(workload, 7, count=4)
    assert attempted == 2 and failed == 0  # traced fingerprints repeat
    self_total = sum(
        metrics[f"{layer}.self_s"][0] for layer in tracer_module.REPORTED_LAYERS
    )
    wall = metrics["traced_wall_s"][0]
    assert self_total + metrics["unattributed_s"][0] == pytest.approx(wall, rel=1e-9)
    assert metrics["core.pipeline.calls"][0] >= 2
    assert metrics["datasets.build.calls"][0] == 1
    assert 0.0 <= metrics["unattributed_s"][0] < 0.05 * wall
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}


def test_wrappers_are_restored_by_identity():
    hooks = tracer_module.layer_hooks()
    originals = [(h.owner, h.attr, vars(h.owner)[h.attr]) for h in hooks]
    with tracer_module.tracing(hooks):
        assert all(vars(owner)[attr] is not fn for owner, attr, fn in originals)
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)


def test_restored_after_an_exception():
    hooks = tracer_module.layer_hooks()
    originals = [(h.owner, h.attr, vars(h.owner)[h.attr]) for h in hooks]
    with pytest.raises(RuntimeError):
        with tracer_module.tracing(hooks):
            raise RuntimeError("boom")
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)


def test_nested_spans_split_self_time():
    tracer = tracer_module.Tracer()
    inner = tracer.wrap(lambda: sum(range(20000)), "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer")
    outer()
    layers = tracer.layers()
    assert layers["inner"].calls == 3 and layers["outer"].calls == 1
    assert layers["outer"].self_s + layers["inner"].self_s == pytest.approx(
        layers["outer"].total_s
    )
    assert tracer.root_seconds() == pytest.approx(layers["outer"].total_s)


def test_fails_without_the_program(tmp_path):
    bare = tmp_path / "checkout"
    shutil.copytree(HERE, bare / "perfbench")
    shutil.copy(HERE.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan_cost",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    for layer in tracer_module.REPORTED_LAYERS:
        assert {f"{layer}.calls", f"{layer}.self_s"} <= per_layer
