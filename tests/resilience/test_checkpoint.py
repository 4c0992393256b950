"""Checkpoint serialization and the CheckpointManager's safety checks."""

import json

import numpy as np
import pytest

from repro.core.check_rewrite import AttemptStatus, RewriteTrace
from repro.llm import UsageMeter
from repro.resilience import (
    CheckpointError,
    CheckpointManager,
    canonical_json,
    content_hash,
    run_key,
    to_jsonable,
)
from repro.resilience.checkpoint import (
    _EXECUTION_ONLY_CONFIG_FIELDS,
    restore_usage,
    template_from_state,
    template_to_state,
    trace_from_state,
    trace_to_state,
    usage_from_state,
    usage_to_state,
)
from repro.resilience.records import decode_record, encode_record
from repro.workload import SqlTemplate


class TestJsonable:
    def test_numpy_scalars_become_python(self):
        converted = to_jsonable(
            {"i": np.int64(3), "f": np.float64(1.5), "b": np.bool_(True)}
        )
        assert converted == {"i": 3, "f": 1.5, "b": True}
        assert type(converted["i"]) is int
        assert type(converted["f"]) is float
        assert type(converted["b"]) is bool

    def test_arrays_sets_and_tuples(self):
        converted = to_jsonable(
            {"a": np.array([1, 2]), "s": {3, 1, 2}, "t": (4, 5)}
        )
        assert converted == {"a": [1, 2], "s": [1, 2, 3], "t": [4, 5]}

    def test_unserializable_raises_type_error(self):
        with pytest.raises(TypeError, match="object"):
            to_jsonable({"bad": object()})

    def test_canonical_json_is_key_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
        assert content_hash({"b": 1, "a": 2}) == content_hash({"a": 2, "b": 1})
        assert content_hash({"a": 1}) != content_hash({"a": 2})


class TestStateRoundtrips:
    def test_template(self):
        template = SqlTemplate(
            template_id="t1",
            sql="SELECT user_id FROM users WHERE user_id = {v}",
            spec_id="s",
            parent_id="t0",
        )
        back = template_from_state(template_to_state(template))
        assert back.template_id == template.template_id
        assert back.sql == template.sql
        assert back.spec_id == template.spec_id
        assert back.parent_id == template.parent_id

    def test_trace(self):
        trace = RewriteTrace(
            spec_id="s",
            attempts=[
                AttemptStatus(spec_ok=False, syntax_ok=True),
                AttemptStatus(spec_ok=True, syntax_ok=True),
            ],
            rewrites=1,
            final_sql="SELECT 1",
            final_ok=True,
        )
        back = trace_from_state(to_jsonable(trace_to_state(trace)))
        assert back.spec_id == "s"
        assert [(a.spec_ok, a.syntax_ok) for a in back.attempts] == [
            (False, True),
            (True, True),
        ]
        assert back.rewrites == 1
        assert back.final_ok is True

    def test_usage(self):
        meter = UsageMeter()
        meter.record(100, 50, "generate_template")
        meter.record(30, 20, "refine_template")
        back = usage_from_state(usage_to_state(meter))
        assert back.snapshot() == meter.snapshot()

    def test_restore_usage_overwrites_in_place(self):
        source = UsageMeter()
        source.record(10, 5, "t")
        target = UsageMeter()
        target.record(999, 999, "junk")
        restore_usage(target, usage_to_state(source))
        assert target.snapshot() == source.snapshot()


class TestRunKey:
    #: A valid non-default value for every execution-only config field.
    EXECUTION_ONLY_VALUES = {
        "max_tokens": 5000,
        "max_cost_dollars": 1.0,
        "checkpoint_every_templates": 99,
        "time_budget_seconds": 30.0,
        "profile": True,
    }

    def _key(self, config):
        from repro.workload import CostDistribution, TemplateSpec

        specs = [TemplateSpec(spec_id="a", num_joins=1)]
        dist = CostDistribution.uniform(0.0, 100.0, 8, 4)
        return run_key(specs, dist, config, "db")

    def test_execution_only_fields_do_not_change_the_key(self):
        from repro.core import BarberConfig

        values = self.EXECUTION_ONLY_VALUES
        assert set(values) == _EXECUTION_ONLY_CONFIG_FIELDS
        default = BarberConfig(seed=1)
        base = self._key(default)
        for name, value in values.items():
            assert getattr(default, name) != value, name
            assert self._key(BarberConfig(seed=1, **{name: value})) == base, name
        assert self._key(BarberConfig(seed=1, **values)) == base

    def test_execution_only_fields_are_config_fields(self):
        # A stale name in the set would silently exclude nothing.
        from dataclasses import fields

        from repro.core import BarberConfig

        names = {f.name for f in fields(BarberConfig)}
        assert _EXECUTION_ONLY_CONFIG_FIELDS <= names

    def test_seed_and_content_fields_do_change_the_key(self):
        from repro.core import BarberConfig

        assert self._key(BarberConfig(seed=1)) != self._key(BarberConfig(seed=2))
        assert self._key(BarberConfig(seed=1)) != self._key(
            BarberConfig(seed=1, max_rewrite_iterations=9)
        )


class TestManager:
    def test_save_load_roundtrip(self, tmp_path):
        manager = CheckpointManager(tmp_path, run_key="k1")
        state = {"stage": "templates", "templates": [{"sql": "SELECT 1"}]}
        path = manager.save(state)
        assert path == manager.path
        assert manager.saves == 1
        assert CheckpointManager(tmp_path, run_key="k1").load() == state

    def test_missing_checkpoint_loads_none(self, tmp_path):
        assert CheckpointManager(tmp_path, run_key="k1").load() is None

    def test_save_is_atomic_no_tmp_left_behind(self, tmp_path):
        # Each save is one appended line on the one log file: no temp file
        # is ever written, and earlier lines are never rewritten.
        manager = CheckpointManager(tmp_path, run_key="k1")
        manager.save({"stage": "templates"})
        first = manager.path.read_bytes()
        manager.save({"stage": "profile"})
        manager.close()
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.jsonl"]
        log = manager.path.read_bytes()
        assert log.startswith(first)
        assert log.count(b"\n") == 2 and log.endswith(b"\n")

    def test_foreign_run_key_rejected(self, tmp_path):
        CheckpointManager(tmp_path, run_key="k1").save({"stage": "x"})
        with pytest.raises(CheckpointError, match="different run"):
            CheckpointManager(tmp_path, run_key="k2").load()

    def test_corrupted_content_rejected(self, tmp_path):
        manager = CheckpointManager(tmp_path, run_key="k1")
        manager.save({"stage": "templates", "value": 1})
        manager.close()
        log = manager.path.read_bytes()
        tampered = log.replace(b'"value":1', b'"value":2')  # checksum now stale
        assert tampered != log
        manager.path.write_bytes(tampered)
        with pytest.raises(CheckpointError, match="corrupt record at line 0"):
            manager.load()

    def test_unparsable_file_rejected(self, tmp_path):
        manager = CheckpointManager(tmp_path, run_key="k1")
        manager.path.write_text("{ not json\n")
        with pytest.raises(CheckpointError, match="corrupt record"):
            manager.load()

    def test_wrong_format_version_rejected(self, tmp_path):
        manager = CheckpointManager(tmp_path, run_key="k1")
        manager.save({"stage": "x"})
        manager.close()
        # A well-formed record (valid checksum) from another format.
        record = decode_record(manager.path.read_bytes().rstrip(b"\n"))
        record["d"]["format_version"] = 999
        manager.path.write_bytes(
            encode_record(record["n"], record["t"], record["at"], record["d"])
        )
        with pytest.raises(CheckpointError, match="format version 999"):
            manager.load()

    def test_on_save_fires_after_durable_write(self, tmp_path):
        seen = []

        def hook(manager, payload):
            # The record must already be fully written when the hook runs:
            # it is the log's last line, and the log folds to the state.
            last = manager.path.read_bytes().splitlines()[-1]
            record = decode_record(last)
            assert record["n"] == manager.saves - 1
            assert dict(record["d"], state=payload["state"]) == payload
            loaded = CheckpointManager(tmp_path, run_key="k1").load()
            assert loaded == payload["state"]
            seen.append(loaded["stage"])

        manager = CheckpointManager(tmp_path, run_key="k1", on_save=hook)
        manager.save({"stage": "templates"})
        manager.save({"stage": "profile"})
        assert seen == ["templates", "profile"]


class TestLogDamage:
    """The damage path: a torn tail is dropped, anything else refuses."""

    STATES = [
        {"stage": "templates", "templates": ["a"]},
        {"stage": "profile", "templates": ["a", "b"]},
        {"stage": "profiled", "templates": ["a", "b", "c"]},
    ]

    def _log(self, tmp_path):
        manager = CheckpointManager(tmp_path, run_key="k1")
        for state in self.STATES:
            manager.save(state)
        manager.close()
        return manager.path

    def test_torn_final_record_loads_the_previous_state(self, tmp_path):
        path = self._log(tmp_path)
        path.write_bytes(path.read_bytes()[:-12])
        assert CheckpointManager(tmp_path, run_key="k1").load() == self.STATES[1]

    def test_resuming_twice_after_a_tear_cuts_the_torn_bytes(self, tmp_path):
        path = self._log(tmp_path)
        path.write_bytes(path.read_bytes()[:-12])
        first = CheckpointManager(tmp_path, run_key="k1")
        assert first.load() == self.STATES[1]
        redone = dict(self.STATES[2], redone=True)
        first.save(redone)
        first.close()
        # Had the torn bytes stayed, the appended record would sit behind
        # a corrupt line and the second resume would refuse the log.
        second = CheckpointManager(tmp_path, run_key="k1")
        assert second.load() == redone
        second.save(self.STATES[0])
        second.close()
        assert CheckpointManager(tmp_path, run_key="k1").load() == self.STATES[0]
        assert len(path.read_bytes().splitlines()) == 4

    def test_record_that_only_lost_its_newline_is_kept(self, tmp_path):
        path = self._log(tmp_path)
        path.write_bytes(path.read_bytes()[:-1])
        manager = CheckpointManager(tmp_path, run_key="k1")
        assert manager.load() == self.STATES[2]
        manager.save(self.STATES[0])
        manager.close()
        assert CheckpointManager(tmp_path, run_key="k1").load() == self.STATES[0]

    def test_torn_only_record_loads_none_and_the_next_save_restarts(
        self, tmp_path
    ):
        manager = CheckpointManager(tmp_path, run_key="k1")
        manager.save(self.STATES[0])
        manager.close()
        manager.path.write_bytes(manager.path.read_bytes()[:-12])
        fresh = CheckpointManager(tmp_path, run_key="k1")
        assert fresh.load() is None
        fresh.save(self.STATES[1])
        fresh.close()
        assert CheckpointManager(tmp_path, run_key="k1").load() == self.STATES[1]

    def test_bit_flip_in_a_middle_record_is_refused(self, tmp_path):
        path = self._log(tmp_path)
        raw = bytearray(path.read_bytes())
        middle = raw.index(b"\n") + 10  # inside the second of three records
        raw[middle] ^= 0x04
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="corrupt record at line 1"):
            CheckpointManager(tmp_path, run_key="k1").load()

    def test_leftover_format_1_checkpoint_is_refused(self, tmp_path):
        (tmp_path / "checkpoint.json").write_text(
            json.dumps({"format_version": 1, "run_key": "k1", "state": {}})
        )
        with pytest.raises(CheckpointError, match="format version 1"):
            CheckpointManager(tmp_path, run_key="k1").load()

    def test_fresh_save_starts_the_log_over(self, tmp_path):
        self._log(tmp_path)
        manager = CheckpointManager(tmp_path, run_key="k2")
        manager.save({"stage": "other"})
        manager.close()
        assert len(manager.path.read_bytes().splitlines()) == 1
        assert CheckpointManager(tmp_path, run_key="k2").load() == {
            "stage": "other"
        }
