"""Service recovery: a fresh process carries the dead one's exact state."""

import random

import pytest

from repro.resilience.clock import SimulatedClock
from repro.serve import (
    DrainRequested,
    JobRunner,
    ServeConfig,
    ServeCore,
    TenantQuota,
)
from repro.serve.jobs import Job, JobState


def make_config(tmp_path, **overrides):
    settings = dict(
        workers=2,
        max_queue_depth=32,
        checkpoint_root=str(tmp_path / "ckpts"),
        state_dir=str(tmp_path / "state"),
        journal_fsync="off",
        default_quota=TenantQuota(
            max_concurrent_jobs=8, max_queued_jobs=32
        ),
    )
    settings.update(overrides)
    return ServeConfig(**settings)


def payload(**overrides):
    body = {
        "tenant": "acme",
        "specs": [{"num_joins": 1}],
        "queries": 8,
        "intervals": 2,
        "seed": 3,
    }
    body.update(overrides)
    return body


def submit_ok(core, **overrides):
    status, body = core.submit(payload(**overrides))
    assert status == 202, body
    return body["job_id"]


def drain_to_checkpoint(core, runner_clock):
    """Claim one job and drain it at its first checkpoint save."""
    job = core.claim("w0")
    assert job is not None

    def on_point(point):
        if point.startswith("checkpoint_save:"):
            raise DrainRequested(point)

    runner = JobRunner(clock=runner_clock, on_point=on_point)
    with pytest.raises(DrainRequested):
        runner.run(job, resume=job.resume, max_tokens=None)
    core.checkpoint_for_drain(job, {"tokens": 10, "dollars": 0.01})
    return job


class TestQueueOrder:
    def test_priority_fifo_order_survives_restart(self, tmp_path):
        config = make_config(tmp_path)
        core = ServeCore(config, SimulatedClock(), ServeCore.open_store(config))
        ids = {
            "low": submit_ok(core, priority=1, seed=1),
            "mid_first": submit_ok(core, priority=5, seed=2),
            "mid_second": submit_ok(core, priority=5, seed=4),
            "high": submit_ok(core, priority=9, seed=5),
        }
        core.close()

        recovered = ServeCore.recover(config, SimulatedClock())
        try:
            claim_order = [
                recovered.claim(f"w{n}").job_id for n in range(4)
            ]
            assert claim_order == [
                ids["high"], ids["mid_first"], ids["mid_second"], ids["low"]
            ]
            assert recovered.audit_lost_jobs() == []
        finally:
            recovered.close()


class TestRunningJobs:
    def test_running_job_is_requeued_for_resume(self, tmp_path):
        config = make_config(tmp_path)
        core = ServeCore(config, SimulatedClock(), ServeCore.open_store(config))
        job_id = submit_ok(core)
        assert core.claim("w0").job_id == job_id  # dies RUNNING
        core.close()

        recovered = ServeCore.recover(config, SimulatedClock())
        try:
            job = recovered.job(job_id)
            assert job.state == JobState.QUEUED
            assert job.resume is True
            assert job.attempts == 1  # the lost attempt still counts
            assert recovered.recovery["requeued_running"] == 1
            assert recovered.audit_lost_jobs() == []
            account = recovered.accounts["acme"]
            assert (account.queued, account.running) == (1, 0)
        finally:
            recovered.close()

    def test_budget_freeze_survives_the_crash(self, tmp_path):
        config = make_config(
            tmp_path,
            quotas={"acme": TenantQuota(max_tokens=500, max_queued_jobs=8)},
        )
        core = ServeCore(config, SimulatedClock(), ServeCore.open_store(config))
        job_id = submit_ok(core, max_tokens=900)
        frozen = core.claim("w0").effective_max_tokens
        assert frozen == 500  # min(request cap, tenant remaining)
        core.close()

        recovered = ServeCore.recover(config, SimulatedClock())
        try:
            job = recovered.job(job_id)
            assert job.budget_frozen is True
            assert job.effective_max_tokens == frozen
        finally:
            recovered.close()

    def test_service_killing_job_poisons_out(self, tmp_path):
        config = make_config(
            tmp_path, max_attempts=1, poison_quarantine_after=1
        )
        core = ServeCore(config, SimulatedClock(), ServeCore.open_store(config))
        job_id = submit_ok(core)
        job = core.claim("w0")
        spec_key = job.request.spec_key()
        core.close()

        recovered = ServeCore.recover(config, SimulatedClock())
        try:
            job = recovered.job(job_id)
            assert job.state == JobState.FAILED
            assert "gave up" in job.error
            assert recovered.spec_strikes[spec_key] == 1
            assert spec_key in recovered.quarantined_specs
            # The quarantine now refuses the same spec from anyone.
            status, body = recovered.submit(payload(tenant="rival"))
            assert (status, body["code"]) == (422, "spec_quarantined")
            assert recovered.audit_lost_jobs() == []
        finally:
            recovered.close()


class TestCheckpointedJobs:
    def test_resume_fingerprint_matches_uninterrupted_run(self, tmp_path):
        config = make_config(tmp_path)
        clock = SimulatedClock()
        core = ServeCore(config, clock, ServeCore.open_store(config))
        job_id = submit_ok(core)
        drain_to_checkpoint(core, clock)
        assert core.job(job_id).state == JobState.CHECKPOINTED
        core.close()

        recovered = ServeCore.recover(config, SimulatedClock())
        try:
            assert recovered.recovery["resumed_checkpointed"] == 1
            job = recovered.claim("w0")
            assert job.job_id == job_id and job.resume is True
            outcome = JobRunner(clock=recovered.clock).run(
                job,
                resume=True,
                max_tokens=job.effective_max_tokens,
            )
            recovered.finish(job, outcome.to_core())
            assert job.state == JobState.COMPLETED

            baseline = JobRunner().run(
                Job(
                    job_id="baseline",
                    request=job.request,
                    checkpoint_dir=str(tmp_path / "twin-ckpt"),
                )
            )
            assert (
                job.result["fingerprint"]
                == baseline.result["fingerprint"]
            )
        finally:
            recovered.close()


class TestLedgers:
    def test_billing_strikes_and_rejections_reconstructed(self, tmp_path):
        config = make_config(
            tmp_path,
            poison_quarantine_after=1,
            quotas={"bob": TenantQuota(max_queued_jobs=1)},
        )
        core = ServeCore(config, SimulatedClock(), ServeCore.open_store(config))
        done = submit_ok(core, seed=1)
        core.finish(
            core.claim("w0"),
            {"result": {"fingerprint": "f" * 64}, "tokens": 40,
             "dollars": 0.25},
        )
        poisoned = submit_ok(core, seed=2, cost_min=50.0, cost_max=1.0)
        core.finish(
            core.claim("w1"),
            {"error": "poisoned spec: inverted cost range", "poison": True,
             "tokens": 5, "dollars": 0.01},
        )
        submit_ok(core, tenant="bob")
        status, body = core.submit(payload(tenant="bob"))
        assert (status, body["code"]) == (429, "tenant_queue_full")
        core.submit({"tenant": ""})  # 400, journaled as a rejection too
        expected = {
            key: core.state_snapshot()[key]
            for key in ("accounts", "spec_strikes", "quarantined_specs",
                        "rejections")
        }
        core.close()

        recovered = ServeCore.recover(config, SimulatedClock())
        try:
            snapshot = recovered.state_snapshot()
            for key, value in expected.items():
                assert snapshot[key] == value, key
            assert recovered.job(done).state == JobState.COMPLETED
            assert recovered.job(done).result["fingerprint"] == "f" * 64
            assert recovered.job(poisoned).state == JobState.FAILED
            assert recovered.audit_lost_jobs() == []
        finally:
            recovered.close()


class TestCleanShutdown:
    def test_drained_record_marks_clean_shutdown(self, tmp_path):
        config = make_config(tmp_path)
        core = ServeCore(config, SimulatedClock(), ServeCore.open_store(config))
        submit_ok(core)
        core.drain()
        core.mark_drained()
        core.close()

        recovered = ServeCore.recover(config, SimulatedClock())
        try:
            assert recovered.recovery["clean_shutdown"] is True
            assert recovered.recovery["was_draining"] is True
            # The new lifetime accepts work again.
            assert recovered.draining is False and recovered.drained is False
            submit_ok(recovered, seed=9)
        finally:
            recovered.close()

    def test_crash_without_drained_record_is_not_clean(self, tmp_path):
        config = make_config(tmp_path)
        core = ServeCore(config, SimulatedClock(), ServeCore.open_store(config))
        submit_ok(core)
        core.drain()  # died mid-drain: no terminal record
        core.close()

        recovered = ServeCore.recover(config, SimulatedClock())
        try:
            assert recovered.recovery["was_draining"] is True
            assert recovered.recovery["clean_shutdown"] is False
        finally:
            recovered.close()


class TestClockRebasing:
    def test_deadline_keeps_remaining_budget(self, tmp_path):
        config = make_config(tmp_path)
        clock = SimulatedClock()
        core = ServeCore(config, clock, ServeCore.open_store(config))
        clock.advance(5.0)
        job_id = submit_ok(core, deadline_seconds=10.0)
        assert core.job(job_id).deadline_at == 15.0
        core.close()

        # The new process clock starts at zero: the journal's last event
        # (the submission, at t=5) anchors the shift, so the job keeps
        # its full 10s remaining.
        recovered = ServeCore.recover(config, SimulatedClock())
        try:
            assert recovered.job(job_id).deadline_at == pytest.approx(10.0)
            recovered.clock.advance(10.5)
            assert recovered.claim("w0") is None
            assert recovered.job(job_id).state == JobState.EXPIRED
            assert recovered.audit_lost_jobs() == []
        finally:
            recovered.close()


class TestDamageTolerance:
    def test_orphan_record_is_quarantined_not_fatal(self, tmp_path):
        config = make_config(tmp_path)
        core = ServeCore(config, SimulatedClock(), ServeCore.open_store(config))
        submit_ok(core)
        # A record whose submission was lost to (simulated) damage.
        core.store.append(
            "finished",
            {"job_id": "job-9999", "state": "completed", "tokens": 1},
        )
        core.close()

        recovered = ServeCore.recover(config, SimulatedClock())
        try:
            counts = recovered.recovery["quarantined_counts"]
            assert counts.get("unreplayable_record") == 1
            assert "job-9999" not in recovered.jobs
            assert recovered.audit_lost_jobs() == []
            assert recovered.stats()["recovery"]["quarantined_counts"] == counts
        finally:
            recovered.close()


class TestIdempotence:
    def test_second_recovery_is_byte_identical(self, tmp_path):
        from repro.resilience.checkpoint import canonical_json

        config = make_config(tmp_path)
        clock = SimulatedClock()
        core = ServeCore(config, clock, ServeCore.open_store(config))
        for seed in range(3):
            submit_ok(core, seed=seed, priority=seed * 3)
        core.claim("w0")  # one job dies RUNNING
        drain_to_checkpoint(core, clock)  # one dies CHECKPOINTED
        core.close()

        first = ServeCore.recover(config, SimulatedClock())
        state_one = canonical_json(first.state_snapshot())
        first.close()
        second = ServeCore.recover(config, SimulatedClock())
        state_two = canonical_json(second.state_snapshot())
        second.close()
        assert state_one == state_two


class TestLiveEqualsRecovered:
    """Recovery replays the live transitions, so it rebuilds the live state."""

    @staticmethod
    def drive(seed, root):
        """A seeded operation sequence on a journaled core; returns the
        config, the final clock time and the live state."""
        rng = random.Random(seed)
        clock = SimulatedClock()
        config = make_config(
            root,
            max_queue_depth=6,
            max_attempts=2,
            poison_quarantine_after=2,
            default_quota=TenantQuota(
                max_concurrent_jobs=2,
                max_queued_jobs=4,
                requests_per_window=3,
                window_seconds=10.0,
            ),
        )
        core = ServeCore(config, clock, ServeCore.open_store(config))
        running = []
        for _ in range(rng.randint(8, 40)):
            roll = rng.random()
            if roll < 0.35:
                overrides = {
                    "tenant": rng.choice(("acme", "globex")),
                    "seed": rng.randint(0, 3),
                }
                if rng.random() < 0.3:
                    overrides["deadline_seconds"] = rng.uniform(0.5, 6.0)
                core.submit(payload(**overrides))
            elif roll < 0.55:
                job = core.claim(f"w{len(running)}")
                if job is not None:
                    running.append(job)
            elif roll < 0.8 and running:
                job = running.pop(rng.randrange(len(running)))
                spend = {
                    "tokens": rng.randint(0, 50),
                    "dollars": rng.randint(0, 9) / 100,
                }
                ending = rng.choice(("completed", "poison", "crash"))
                if ending == "completed":
                    core.finish(job, {"result": {"queries": 8}, **spend})
                elif ending == "poison":
                    core.finish(
                        job, {"error": "poisoned spec", "poison": True, **spend}
                    )
                else:
                    core.requeue_after_crash(job, spend)
            else:
                clock.advance(rng.uniform(0.0, 4.0))
        for job in running:
            core.finish(job, {"result": {"queries": 8}})
        core.submit({"tenant": ""})  # one journaled record at the final time
        live = core.state_snapshot()
        core.close()
        return config, clock.now(), live

    def test_recovered_state_equals_live_state(self, tmp_path):
        for seed in range(200):
            config, now, live = self.drive(seed, tmp_path / f"seq-{seed}")
            recovered = ServeCore.recover(config, SimulatedClock(now))
            try:
                assert recovered.state_snapshot() == live, seed
                assert recovered.audit_lost_jobs() == []
            finally:
                recovered.close()
