"""The chaos campaign itself: deterministic, and its bar actually holds."""

import pytest

from repro.resilience import (
    ChaosReport,
    ChaosRunner,
    InjectedCrash,
    run_chaos_campaign,
)
from repro.serve import RestartChaosReport, ServeChaosReport


class TestInjectedCrash:
    def test_not_catchable_as_exception(self):
        # A simulated SIGKILL must sail through `except Exception` blocks.
        assert not issubclass(InjectedCrash, Exception)
        assert issubclass(InjectedCrash, BaseException)
        with pytest.raises(InjectedCrash):
            try:
                raise InjectedCrash("boom")
            except Exception:  # must NOT catch it
                pytest.fail("InjectedCrash was swallowed by `except Exception`")


class TestCampaign:
    @pytest.fixture(scope="class")
    def report(self):
        # 8 runs = each scenario (storm/kill/budget/engine) exercised twice.
        return run_chaos_campaign(seed=1, runs=8, intensity=0.4)

    def test_campaign_passes(self, report):
        assert report.ok, report.to_json()
        assert report.failures == []
        assert report.mismatches == []

    def test_every_scenario_ran(self, report):
        assert report.scenarios == {
            "storm": 2, "kill": 2, "budget": 2, "engine": 2,
        }

    def test_all_runs_accounted_for(self, report):
        assert report.completed + report.aborted >= report.runs

    def test_storms_actually_injected_faults(self, report):
        assert report.transport_faults_injected > 0
        assert report.retry_attempts > 0

    def test_engine_runs_quarantined_and_identical(self, report):
        # Both engine runs fingerprinted identically across their double
        # invocation, injected engine faults, and benched the runaway.
        assert report.engine_runs_identical == 2
        assert report.engine_faults_injected > 0
        assert report.quarantines > 0

    def test_report_is_byte_identical_across_repeats(self, report):
        again = run_chaos_campaign(seed=1, runs=8, intensity=0.4)
        assert again.to_json() == report.to_json()

    def test_report_json_has_no_environment_leakage(self, report):
        text = report.to_json()
        assert "/tmp" not in text and "repro-chaos-" not in text

    def test_different_seed_different_campaign(self, report):
        other = run_chaos_campaign(seed=2, runs=8, intensity=0.4)
        assert other.ok
        assert other.to_json() != report.to_json()


class TestRunnerPlanning:
    def test_plans_are_deterministic_and_scenario_cycled(self):
        runner = ChaosRunner(seed=3, runs=8)
        plans = [runner.plan(i) for i in range(8)]
        again = [runner.plan(i) for i in range(8)]
        assert plans == again
        assert [p.scenario for p in plans] == [
            "storm", "kill", "budget", "engine",
            "storm", "kill", "budget", "engine",
        ]

    def test_scenario_filter_pins_every_run(self):
        runner = ChaosRunner(seed=3, runs=4, scenario="engine")
        assert [runner.plan(i).scenario for i in range(4)] == ["engine"] * 4

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos scenario"):
            ChaosRunner(seed=3, runs=1, scenario="volcano")

    def test_intensity_scales_the_storm(self):
        calm = ChaosRunner(seed=3, runs=1, intensity=0.1).plan(0)
        wild = ChaosRunner(seed=3, runs=1, intensity=1.0).plan(0)
        assert wild.storm.timeout_rate > calm.storm.timeout_rate
        assert (
            wild.engine_faults.slow_operator_rate
            > calm.engine_faults.slow_operator_rate
        )


class TestReportShape:
    """The generic ``to_dict`` emits exactly each report's documented keys:
    every dataclass field plus ``ok`` (and ``scenario`` for the service
    reports) — no properties such as ``ServeChaosReport.aborted``."""

    BASE = {"seed", "runs", "intensity", "mismatches", "failures", "ok"}

    @pytest.mark.parametrize(
        "report, keys",
        [
            (
                ChaosReport(seed=1, runs=2, intensity=0.3, database="fuzz"),
                BASE | {
                    "database", "scenarios", "completed", "aborted",
                    "kills_fired", "resumed_identical",
                    "transport_faults_injected", "retry_attempts",
                    "quarantines", "engine_faults_injected",
                    "engine_runs_identical", "scenario_filter",
                },
            ),
            (
                ServeChaosReport(seed=1, runs=2, intensity=0.3),
                BASE | {
                    "scenario", "submitted", "accepted", "rejections",
                    "completed", "failed", "expired", "queued_at_drain",
                    "kills_fired", "resumed_identical", "poisoned",
                    "quarantined_specs", "quarantine_rejections",
                    "drained_runs", "lost_jobs",
                },
            ),
            (
                RestartChaosReport(seed=1, runs=2, intensity=0.3),
                BASE | {
                    "scenario", "submitted", "accepted", "rejections",
                    "sweep_points", "recovery_pairs", "pairs_identical",
                    "idempotent_recoveries", "clean_shutdowns",
                    "completions_checked", "fingerprints_identical",
                    "resumed_from_checkpoint", "faults", "lost_jobs",
                },
            ),
        ],
        ids=["chaos", "serve", "restart"],
    )
    def test_to_dict_keys(self, report, keys):
        assert set(report.to_dict()) == keys
