"""ServeCore: the lock-guarded job state machine, on a simulated clock."""

import pytest

from repro.resilience.clock import SimulatedClock
from repro.serve import JobState, ServeConfig, ServeCore, TenantQuota


def payload(**overrides):
    body = {
        "tenant": "acme",
        "specs": [{"num_joins": 1}],
        "queries": 8,
        "intervals": 2,
    }
    body.update(overrides)
    return body


@pytest.fixture
def core(tmp_path):
    return ServeCore(
        ServeConfig(
            workers=2,
            max_queue_depth=4,
            checkpoint_root=str(tmp_path / "ckpts"),
            poison_quarantine_after=2,
            max_attempts=3,
        ),
        clock=SimulatedClock(),
    )


class TestSubmit:
    def test_accepts_and_assigns_monotonic_ids(self, core):
        status1, body1 = core.submit(payload())
        status2, body2 = core.submit(payload())
        assert (status1, status2) == (202, 202)
        assert body1["job_id"] == "job-0001"
        assert body2["job_id"] == "job-0002"

    def test_malformed_payload_is_400_not_exception(self, core):
        status, body = core.submit({"tenant": ""})
        assert status == 400
        assert body["error"] == "bad_request"
        status, body = core.submit("not a dict")
        assert status == 400

    def test_queue_full_is_explicit_429_with_retry_hint(self, core):
        for _ in range(4):
            assert core.submit(payload())[0] == 202
        status, body = core.submit(payload())
        assert status == 429
        assert body["code"] == "queue_full"
        assert body["retry_after_seconds"] > 0

    def test_every_rejection_is_counted(self, core):
        core.submit({"tenant": ""})
        for _ in range(5):
            core.submit(payload())
        stats = core.stats()
        assert stats["rejections"]["bad_request"] == 1
        assert stats["rejections"]["queue_full"] == 1

    def test_checkpoint_dir_is_per_job(self, core):
        _, body = core.submit(payload())
        job = core.job(body["job_id"])
        assert job.checkpoint_dir.endswith(body["job_id"])


class TestClaim:
    def test_priority_order_then_fifo(self, core):
        core.submit(payload(priority=1))
        core.submit(payload(priority=9))
        core.submit(payload(priority=9))
        assert core.claim("w").job_id == "job-0002"
        assert core.claim("w").job_id == "job-0003"

    def test_expired_queued_job_is_shed_not_run(self, core):
        core.submit(payload(deadline_seconds=1.0))
        core.clock.advance(2.0)
        assert core.claim("w") is None
        job = core.job("job-0001")
        assert job.state == JobState.EXPIRED
        assert "deadline expired" in job.error

    def test_tenant_concurrency_quota_defers_but_keeps_job(self, core):
        core.admission.default_quota = TenantQuota(max_concurrent_jobs=1)
        core.accounts.clear()
        core.submit(payload())
        core.submit(payload())
        first = core.claim("w1")
        assert first is not None
        assert core.claim("w2") is None  # deferred, not lost
        core.finish(first, {"error": None, "result": {}})
        assert core.claim("w2").job_id == "job-0002"

    def test_budget_ceiling_frozen_at_first_claim(self, core):
        core.admission.default_quota = TenantQuota(max_tokens=1000)
        core.accounts.clear()
        core.submit(payload(max_tokens=5000))
        job = core.claim("w")
        assert job.effective_max_tokens == 1000
        # Later spend must not move the frozen ceiling.
        core.requeue_after_crash(job, {"tokens": 400})
        job = core.claim("w")
        assert job.effective_max_tokens == 1000


class TestLifecycle:
    def test_finish_completes_and_bills(self, core):
        core.submit(payload())
        job = core.claim("w")
        core.finish(
            job, {"error": None, "tokens": 50, "dollars": 0.5, "result": {"queries": 8}}
        )
        assert job.state == JobState.COMPLETED
        account = core.accounts["acme"]
        assert account.tokens_spent == 50
        assert account.running == 0
        assert account.jobs_completed == 1

    def test_failed_attempt_still_bills(self, core):
        core.submit(payload())
        job = core.claim("w")
        core.finish(job, {"error": "boom", "tokens": 30})
        assert job.state == JobState.FAILED
        assert core.accounts["acme"].tokens_spent == 30

    def test_crash_requeues_flagged_for_resume(self, core):
        core.submit(payload())
        job = core.claim("w")
        core.requeue_after_crash(job)
        assert job.state == JobState.QUEUED
        assert job.resume is True
        again = core.claim("w2")
        assert again.job_id == job.job_id
        assert again.attempts == 2

    def test_repeated_crashes_fail_and_strike_spec(self, core):
        core.submit(payload())
        for _ in range(3):
            job = core.claim("w")
            core.requeue_after_crash(job)
        assert job.state == JobState.FAILED
        assert "gave up after 3 attempts" in job.error
        assert core.spec_strikes  # the poison-pill spec took a strike

    def test_poison_outcomes_quarantine_the_spec(self, core):
        spec = payload(cost_min=500.0, cost_max=100.0)
        for _ in range(2):
            _, body = core.submit(spec)
            job = core.claim("w")
            core.finish(job, {"error": "poisoned spec: ...", "poison": True})
        status, body = core.submit(spec)
        assert status == 422
        assert body["code"] == "spec_quarantined"
        # A different spec pack is unaffected.
        assert core.submit(payload(seed=99))[0] == 202

    def test_terminal_jobs_cannot_transition(self, core):
        core.submit(payload())
        job = core.claim("w")
        core.finish(job, {"error": None, "result": {}})
        with pytest.raises(ValueError, match="terminal"):
            job.transition(JobState.RUNNING, 0.0)


class TestRefusedTransitions:
    @pytest.mark.parametrize("max_attempts", [1, 3])  # gave_up / requeued
    def test_refused_call_changes_nothing(self, tmp_path, max_attempts):
        config = ServeConfig(
            checkpoint_root=str(tmp_path / "ckpts"),
            state_dir=str(tmp_path / "state"),
            journal_fsync="off",
            max_attempts=max_attempts,
        )
        core = ServeCore(config, SimulatedClock(), ServeCore.open_store(config))
        core.submit(payload())
        job = core.claim("w")
        core.finish(job, {"result": {}, "tokens": 10})

        def observed():
            journal = b"".join(
                path.read_bytes()
                for path in sorted((tmp_path / "state").glob("journal-*"))
            )
            return core.state_snapshot(), core.stats(), journal

        before = observed()
        for method, outcome in (
            (core.finish, {"error": "late", "tokens": 7}),
            (core.checkpoint_for_drain, {"tokens": 5}),
            (core.requeue_after_crash, {"tokens": 3}),
        ):
            with pytest.raises(ValueError, match="terminal"):
                method(job, outcome)
            assert observed() == before, method.__name__
        core.close()

        recovered = ServeCore.recover(config, SimulatedClock())
        assert recovered.accounts["acme"].tokens_spent == 10
        recovered.close()


class TestDrain:
    def test_drain_stops_admission(self, core):
        core.submit(payload())
        summary = core.drain()
        assert summary["queued"] == 1
        status, body = core.submit(payload())
        assert status == 503
        assert body["code"] == "draining"

    def test_checkpoint_for_drain_marks_resumable(self, core):
        core.submit(payload())
        job = core.claim("w")
        core.checkpoint_for_drain(job, {"tokens": 10})
        assert job.state == JobState.CHECKPOINTED
        assert job.resume is True
        assert core.accounts["acme"].tokens_spent == 10


class TestAudit:
    def test_no_lost_jobs_through_the_full_lifecycle(self, core):
        core.submit(payload())
        core.submit(payload(priority=9))
        assert core.audit_lost_jobs() == []
        job = core.claim("w")
        assert core.audit_lost_jobs() == []
        core.requeue_after_crash(job)
        assert core.audit_lost_jobs() == []
        job = core.claim("w")
        core.finish(job, {"error": None, "result": {}})
        job2 = core.claim("w")
        core.checkpoint_for_drain(job2)
        assert core.audit_lost_jobs() == []

    def test_audit_catches_a_vanished_job(self, core):
        core.submit(payload())
        job = core.claim("w")
        # Corrupt the state machine behind the core's back.
        job.state = JobState.QUEUED
        assert core.audit_lost_jobs() == [job.job_id]

    def test_stats_snapshot_shape(self, core):
        core.submit(payload())
        stats = core.stats()
        assert stats["queue_depth"] == 1
        assert stats["jobs"] == {"queued": 1}
        assert "acme" in stats["tenants"]


class TestJobChangeHook:
    def test_called_after_every_transition_of_a_job(self, core):
        seen = []
        # The hook runs with the lock held: it reads the table directly.
        core.on_job_change = lambda job_id: seen.append(
            (job_id, core.jobs[job_id].state)
        )
        core.submit({"tenant": ""})  # refused: no job moves
        core.submit(payload())
        job = core.claim("w")
        core.finish(job, {"result": {"fingerprint": "f" * 64}})
        assert seen == [
            ("job-0001", JobState.QUEUED),
            ("job-0001", JobState.RUNNING),
            ("job-0001", JobState.COMPLETED),
        ]
