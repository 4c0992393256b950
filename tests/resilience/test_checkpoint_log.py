"""The checkpoint delta log is exact: every save folds back to its state.

After every save, a fresh manager's ``load()`` must have the same
canonical JSON as the state that was passed in.  Canonical JSON tells
``1``, ``1.0`` and ``True`` apart, and ``0.0`` from ``-0.0``, so these
checks hold the manager's delta to strict type equality.
"""

import enum

import numpy as np
import pytest

from repro.core import BarberConfig, SQLBarber
from repro.datasets.registry import build_database
from repro.resilience import CheckpointManager, canonical_json
from repro.resilience.clock import SimulatedClock
from repro.serve import Job, JobRequest, JobRunner
from repro.workload import CostDistribution, TemplateSpec

class Level(enum.IntEnum):
    HIGH = 2


SCALARS = [
    0, 1, -1, 2**53 + 1, 1.0, 0.1, 0.0, -0.0, 1e-300, float("nan"),
    float("inf"), True, False, None, "", "a", "1", "é",
    np.int64(3), np.float64(-0.0), np.bool_(True), np.str_("a"), Level.HIGH,
]


def random_value(rng, depth=0):
    roll = rng.random()
    if depth < 3 and roll < 0.2:
        keys = rng.choice(8, size=int(rng.integers(0, 5)), replace=False)
        return {f"k{k}": random_value(rng, depth + 1) for k in keys}
    if depth < 3 and roll < 0.4:
        items = [random_value(rng, depth + 1) for _ in range(rng.integers(0, 5))]
        return tuple(items) if roll < 0.25 else items
    return SCALARS[int(rng.integers(len(SCALARS)))]


def retyped(value, rng):
    """The same number under another type, or a sign/NaN twin."""
    if isinstance(value, bool):
        return int(value) if rng.random() < 0.5 else float(value)
    if isinstance(value, int):
        return float(value) if rng.random() < 0.5 else bool(value)
    if isinstance(value, float):
        if value == 0.0:
            return -value  # 0.0 <-> -0.0
        if value != value or abs(value) == float("inf"):
            return 0.0
        if rng.random() < 0.3:
            return float("nan")
        return int(value) if value.is_integer() else -value
    return random_value(rng)


def edited(value, rng):
    """A copy of *value* with one random edit somewhere inside it."""
    if isinstance(value, dict) and value and rng.random() < 0.6:
        key = sorted(value)[int(rng.integers(len(value)))]
        return {**value, key: edited(value[key], rng)}
    if isinstance(value, (list, tuple)) and value and rng.random() < 0.6:
        index = int(rng.integers(len(value)))
        items = list(value)
        items[index] = edited(items[index], rng)
        return items
    if isinstance(value, dict):
        out = dict(value)
        if out and rng.random() < 0.4:
            del out[sorted(out)[int(rng.integers(len(out)))]]
        else:
            out[f"k{int(rng.integers(8))}"] = random_value(rng, 2)
        return out
    if isinstance(value, (list, tuple)):
        items = list(value)
        roll = rng.random()
        if roll < 0.25:
            items.append(random_value(rng, 2))
        elif roll < 0.45 and items:
            del items[int(rng.integers(len(items))) :]  # shrink
        elif roll < 0.65:
            items.insert(int(rng.integers(len(items) + 1)), random_value(rng, 2))
        elif items:
            items[int(rng.integers(len(items)))] = random_value(rng, 1)
        return items
    return retyped(value, rng)


def assert_loads_back(manager, state):
    loaded = CheckpointManager(manager.directory, manager.run_key).load()
    assert canonical_json(loaded) == canonical_json(state)


class TestDeltaExactness:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_edit_sequences_fold_back_exactly(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        body, extra = random_value(rng), {}
        manager = CheckpointManager(tmp_path, run_key="k")
        for step in range(40):
            body = edited(body, rng)
            extra = edited(extra, rng)  # top-level keys come and go
            state = {**extra, "stage": f"s{step}", "body": body}
            manager.save(state)
            assert_loads_back(manager, state)
            if step % 13 == 12:
                # Resume mid-sequence: the next delta must be taken against
                # the loaded state, not against a fresh log.
                manager.close()
                manager = CheckpointManager(tmp_path, run_key="k")
                assert canonical_json(manager.load()) == canonical_json(state)
        manager.close()

    @pytest.mark.parametrize(
        "before, after",
        [
            (1, 1.0), (1.0, True), (True, 1), (0.0, -0.0), (-0.0, 0.0),
            (float("nan"), 0.0), (0.0, float("nan")), (0, False), ("1", 1),
            ([1, 2], (1, 2.0)), ({"a": 1}, {"a": 1, "b": None}),
            ([{"x": [1]}], [{"x": [1.0]}]), ([[0.0]], [[-0.0]]),
        ],
    )
    def test_type_strict_single_edits(self, before, after, tmp_path):
        manager = CheckpointManager(tmp_path, run_key="k")
        for value in (before, after, before):
            state = {"stage": "x", "v": value, "keep": [1, 2, 3]}
            manager.save(state)
            assert_loads_back(manager, state)
        manager.close()

    def test_saved_state_is_insulated_from_caller_mutation(self, tmp_path):
        manager = CheckpointManager(tmp_path, run_key="k")
        state = {"stage": "x", "items": [{"a": 1}]}
        manager.save(state)
        state["items"][0]["a"] = 2  # the caller reuses its objects
        manager.save(state)
        assert_loads_back(manager, state)
        loaded = CheckpointManager(tmp_path, run_key="k")
        resumed = loaded.load()
        # A resumer grows what it loaded in place, then saves it: the
        # delta must still carry the new item.
        resumed["items"].append({"a": 3})
        loaded.save(resumed)
        assert_loads_back(loaded, {"stage": "x", "items": [{"a": 2}, {"a": 3}]})


@pytest.fixture
def checked_saves(monkeypatch):
    """Wrap every ``CheckpointManager.save`` to verify it folds back."""
    saves = []
    original = CheckpointManager.save

    def save(self, state):
        path = original(self, state)
        assert_loads_back(self, state)
        saves.append((len(canonical_json(state)), path.stat().st_size))
        return path

    monkeypatch.setattr(CheckpointManager, "save", save)
    return saves


class TestPipelineSavesFoldBack:
    def test_serve_sized_job(self, tmp_path, checked_saves):
        job = Job(
            job_id="job-0001",
            request=JobRequest(
                tenant="t", seed=7, specs=({"num_joins": 1},),
                queries=8, intervals=2,
            ),
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        outcome = JobRunner(clock=SimulatedClock()).run(job)
        assert outcome.error is None
        assert len(checked_saves) >= 4

    def test_larger_run_and_its_log_size(self, tmp_path, checked_saves):
        db = build_database("tpch", scale=0.002)
        specs = [
            TemplateSpec(spec_id=f"s{i}", num_joins=joins)
            for i, joins in enumerate([0, 1, 2, 0, 1, 2])
        ]
        distribution = CostDistribution.uniform(0.0, 5000.0, 400, 10)
        barber = SQLBarber(
            db, config=BarberConfig(seed=3, checkpoint_every_templates=1)
        )
        result = barber.generate_workload(
            specs, distribution, checkpoint_dir=str(tmp_path)
        )
        assert result.complete
        assert len(checked_saves) == 10
        # Rewriting the whole state on every save wrote about 320 kB here;
        # the log holds each part once, plus what the deltas replace.
        final_state_size, log_size = checked_saves[-1]
        assert log_size < 2 * final_state_size
