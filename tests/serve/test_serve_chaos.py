"""The serve chaos campaign: deterministic, exhaustive, zero lost jobs.

Seed 10 is the CI seed: at runs=4 it exercises every disruption class —
worker kills with verified resumes, queue-full storms, a deadline expiry,
poisoned specs through to quarantine rejection, and a mid-campaign drain.
"""

from repro.resilience import run_chaos_campaign
from repro.serve import ServeChaosRunner


class TestDeterminism:
    def test_two_campaigns_are_byte_identical(self):
        first = run_chaos_campaign(scenario="serve", seed=10, runs=2)
        second = run_chaos_campaign(scenario="serve", seed=10, runs=2)
        assert first.to_json() == second.to_json()

    def test_different_seeds_differ(self):
        assert (
            run_chaos_campaign(scenario="serve", seed=10, runs=1).to_json()
            != run_chaos_campaign(scenario="serve", seed=11, runs=1).to_json()
        )

    def test_no_wall_clock_or_paths_in_report(self):
        report = run_chaos_campaign(scenario="serve", seed=10, runs=1)
        text = report.to_json()
        assert "/tmp" not in text
        assert "time" not in report.to_dict()


class TestInvariants:
    def test_ci_seed_covers_every_disruption_class(self):
        report = run_chaos_campaign(scenario="serve", seed=10, runs=4)
        assert report.ok, report.to_json()
        assert report.lost_jobs == []
        assert report.mismatches == []
        assert report.kills_fired > 0
        assert report.kills_fired == report.resumed_identical
        assert report.expired > 0
        assert report.poisoned > 0
        assert report.quarantine_rejections > 0
        assert report.drained_runs > 0
        assert report.rejections.get("queue_full", 0) > 0

    def test_every_submission_got_an_explicit_answer(self):
        report = run_chaos_campaign(scenario="serve", seed=10, runs=2)
        answered = report.accepted + sum(report.rejections.values())
        assert answered == report.submitted

    def test_cli_compat_surface(self):
        """The outcome counters and the JSON report the CLI prints."""
        report = run_chaos_campaign(scenario="serve", seed=10, runs=1)
        assert isinstance(report.aborted, int)
        assert isinstance(report.completed, int)
        assert isinstance(report.failures, list)
        assert report.to_json().endswith("\n")


class TestDispatch:
    def test_runner_is_plain_object(self):
        runner = ServeChaosRunner(seed=1, runs=1, intensity=0.5)
        assert runner.intensity == 0.5
