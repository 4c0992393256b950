"""Shared fixtures for the resilience suite: a tiny pipeline that runs in
tenths of a second but exercises every stage, and lock holders that live
in another process."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.fuzz.runner import build_fuzz_database
from repro.workload import CostDistribution, TemplateSpec


@pytest.fixture(scope="session")
def chaos_db():
    return build_fuzz_database(0)


@pytest.fixture(scope="session")
def tiny_specs():
    return [
        TemplateSpec(spec_id="a", num_joins=1, num_aggregations=1),
        TemplateSpec(spec_id="b", num_joins=0, require_order_by=True),
    ]


@pytest.fixture(scope="session")
def tiny_distribution():
    return CostDistribution.uniform(0.0, 200.0, 16, 4)


@pytest.fixture
def spawn_holder():
    """Start ``python -c code *args`` and return the process once it has
    printed ``ready`` (after taking its lock).  The code should then sleep,
    so that the test decides when it dies; any process still alive at
    teardown is SIGKILLed."""
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    processes = []

    def spawn(code: str, *args) -> subprocess.Popen:
        process = subprocess.Popen(
            [sys.executable, "-c", code, *map(str, args)],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        processes.append(process)
        line = process.stdout.readline()
        assert line == "ready\n", f"holder did not start: {line!r}"
        return process

    yield spawn
    for process in processes:
        if process.poll() is None:
            process.kill()
        process.wait(timeout=30)
        process.stdout.close()
