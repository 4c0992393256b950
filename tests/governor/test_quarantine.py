"""Template quarantine: strikes accumulate, the runaway sits out the run."""

import pytest

from repro.core import BarberConfig
from repro.core.profiler import TemplateProfiler
from repro.governor import QuarantineRecord, TemplateGuard, GovernorLimits
from repro.obs import Telemetry, use_telemetry
from repro.workload import SqlTemplate


def governed_config(**overrides):
    base = dict(
        seed=3,
        row_budget=5_000,
        query_timeout_seconds=2.0,
        governor_cost_per_row_seconds=1e-4,
        governor_clock="simulated",
        quarantine_after=2,
    )
    base.update(overrides)
    return BarberConfig(**base)


class TestTemplateGuard:
    def test_three_strikes_quarantines(self):
        guard = TemplateGuard("t", GovernorLimits(row_budget=1), quarantine_after=3)
        error = ValueError("over budget")
        assert guard.strike(error, {"x": 1}) is False
        assert guard.strike(error, {"x": 2}) is False
        assert guard.strike(error, {"x": 3}) is True
        assert guard.quarantined
        record = guard.record()
        assert record.strikes == 3
        assert record.offending_bindings == [{"x": 1}, {"x": 2}, {"x": 3}]
        assert "over budget" in record.reason

    def test_record_roundtrip(self):
        record = QuarantineRecord(
            template_id="t", reason="RowBudgetExceeded: nope", strikes=2,
            offending_bindings=[{"age": 40}], stage="refine",
        )
        assert QuarantineRecord.from_dict(record.to_dict()) == record


class TestProfilerQuarantine:
    def _profiler(self, gov_db, **overrides):
        return TemplateProfiler(
            gov_db, governed_config(**overrides), cost_metric="actual_rows"
        )

    def test_runaway_quarantined_with_bindings(self, gov_db, planted_templates):
        runaway = planted_templates[-1]
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            profile = self._profiler(gov_db).profile(runaway)
        assert profile.quarantined
        assert profile.resource_strikes == 2
        assert len(profile.offending_bindings) == 2
        assert "age" in profile.offending_bindings[0]
        assert profile.quarantine_reason
        assert not profile.is_usable
        metrics = telemetry.metrics
        assert metrics.total("governor.strikes") == 2
        assert metrics.total("governor.quarantines") == 1

    def test_healthy_template_untouched(self, gov_db, planted_templates):
        profile = self._profiler(gov_db).profile(planted_templates[0])
        assert not profile.quarantined
        assert profile.resource_strikes == 0
        assert profile.is_usable
        assert profile.observations

    def test_quarantine_is_deterministic(self, gov_db, planted_templates):
        runaway = planted_templates[-1]
        first = self._profiler(gov_db).profile(runaway)
        second = self._profiler(gov_db).profile(runaway)
        assert first.offending_bindings == second.offending_bindings
        assert first.quarantine_reason == second.quarantine_reason

    def test_ungoverned_config_mints_no_guard(self, gov_db, planted_templates):
        profiler = TemplateProfiler(
            gov_db, BarberConfig(seed=3), cost_metric="actual_rows"
        )
        assert profiler._guard_for(planted_templates[0]) is None

    def test_quarantine_after_is_honoured(self, gov_db, planted_templates):
        profile = self._profiler(
            gov_db, quarantine_after=4
        ).profile(planted_templates[-1])
        assert profile.quarantined
        assert profile.resource_strikes == 4


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"query_timeout_seconds": 0.0}, "query_timeout_seconds"),
            ({"memory_budget_mb": -1.0}, "memory_budget_mb"),
            ({"row_budget": 0}, "row_budget"),
            ({"max_cost_dollars": 0.0}, "max_cost_dollars"),
            ({"quarantine_after": 0}, "quarantine_after"),
            ({"governor_cost_per_row_seconds": -1e-6}, "cost_per_row"),
            ({"governor_clock": "sundial"}, "governor_clock"),
            ({"workload_mix": (1.0, 0.0, 0.0)}, "workload_mix"),
            ({"workload_mix": (0.5, -0.5, 0.5, 0.5)}, "workload_mix"),
            ({"checkpoint_every_templates": 0}, "checkpoint_every_templates"),
            ({"max_tokens": -10}, "max_tokens"),
            ({"time_budget_seconds": 0}, "time_budget_seconds"),
        ],
    )
    def test_nonsensical_limits_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            BarberConfig(**kwargs)

    def test_limit_errors_suggest_none(self):
        with pytest.raises(ValueError, match="use None to disable"):
            BarberConfig(row_budget=-1)

    def test_none_disables_cleanly(self):
        config = BarberConfig(
            query_timeout_seconds=None, memory_budget_mb=None, row_budget=None
        )
        assert config.quarantine_after == 3

    def test_valid_governed_config_accepted(self):
        config = governed_config()
        assert config.row_budget == 5_000
