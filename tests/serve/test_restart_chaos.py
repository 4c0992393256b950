"""The restart chaos campaign: kill the whole service, lose nothing.

Each sweep point truncates the journal to the exact bytes that existed
at one lifecycle transition — recovery from every prefix must produce
byte-identical state twice, resume checkpointed jobs to bit-identical
fingerprints, and quarantine (never crash on) injected journal damage.
"""

from repro.resilience import run_chaos_campaign
from repro.serve import Job, JobRequest, RestartChaosRunner
from repro.serve.chaos import _twin_fingerprint


class TestDeterminism:
    def test_two_campaigns_are_byte_identical(self):
        first = run_chaos_campaign(scenario="restart", seed=0, runs=1)
        second = run_chaos_campaign(scenario="restart", seed=0, runs=1)
        assert first.to_json() == second.to_json()

    def test_different_seeds_differ(self):
        assert (
            run_chaos_campaign(scenario="restart", seed=0, runs=1).to_json()
            != run_chaos_campaign(scenario="restart", seed=1, runs=1).to_json()
        )

    def test_no_wall_clock_or_paths_in_report(self):
        report = run_chaos_campaign(scenario="restart", seed=0, runs=1)
        text = report.to_json()
        assert "/tmp" not in text
        assert "repro-restart-chaos" not in text


class TestInvariants:
    def test_every_journaled_transition_recovers_identically(self):
        report = run_chaos_campaign(scenario="restart", seed=0, runs=2)
        assert report.ok, report.to_json()
        assert report.failures == []
        assert report.mismatches == []
        assert report.lost_jobs == []
        # The sweep visited every append, recovered each point twice,
        # and the two recoveries never disagreed.
        assert report.sweep_points > 0
        assert report.recovery_pairs >= report.sweep_points
        assert report.pairs_identical == report.recovery_pairs
        # Full recoveries ran jobs to completion against known-good
        # fingerprints (uninterrupted twins), bit-identically.
        assert report.completions_checked > 0
        assert report.fingerprints_identical == report.completions_checked
        assert report.resumed_from_checkpoint > 0
        # Recovering a recovered store changes nothing.
        assert report.idempotent_recoveries > 0

    def test_fault_injection_quarantines_every_kind(self):
        report = run_chaos_campaign(scenario="restart", seed=0, runs=2)
        assert set(report.faults) == {
            "torn_tail", "truncated_segment", "bit_flip"
        }
        for kind, counts in report.faults.items():
            assert counts["injected"] > 0, kind
            # Detectable damage lands in quarantine; none of it may
            # surface as a recovery failure (checked via report.ok).
            assert counts["quarantined"] > 0, kind

    def test_drained_runs_report_clean_shutdown(self):
        # Seed 0's plans include at least one run that drains fully.
        report = run_chaos_campaign(scenario="restart", seed=0, runs=2)
        assert report.clean_shutdowns > 0

    def test_every_submission_got_an_explicit_answer(self):
        report = run_chaos_campaign(scenario="restart", seed=0, runs=1)
        answered = report.accepted + sum(report.rejections.values())
        assert answered == report.submitted


class TestDispatch:
    def test_runner_is_plain_object(self):
        runner = RestartChaosRunner(seed=1, runs=1, intensity=0.5)
        assert runner.intensity == 0.5


class TestTwinCache:
    """Uninterrupted-twin fingerprints are cached per request and ceiling."""

    @staticmethod
    def _job(tenant: str) -> Job:
        payload = {
            "tenant": tenant,
            "seed": 5,
            "specs": [{"num_joins": 1}],
            "queries": 8,
            "intervals": 2,
        }
        return Job(
            job_id=f"job-{tenant}", request=JobRequest.from_payload(payload)
        )

    def test_tenants_sharing_a_spec_key_get_their_own_twin(self):
        acme, globex = self._job("acme"), self._job("globex")
        # Same work by spec_key, but the tenant names the specs, so the
        # two uninterrupted runs fingerprint differently.
        assert acme.request.spec_key() == globex.request.spec_key()
        twins: dict = {}
        first = _twin_fingerprint(acme, None, twins)
        second = _twin_fingerprint(globex, None, twins)
        assert second == _twin_fingerprint(globex, None, {})
        assert first != second

    def test_token_ceiling_is_part_of_the_key(self):
        acme = self._job("acme")
        twins: dict = {}
        unbounded = _twin_fingerprint(acme, None, twins)
        capped = _twin_fingerprint(acme, 1000, twins)
        assert capped == _twin_fingerprint(acme, 1000, {})
        assert capped != unbounded
