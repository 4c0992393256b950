"""Time-windowed rate limiting: deterministic buckets, exact hints."""

import pytest

from repro.resilience.clock import SimulatedClock
from repro.serve import (
    CONSUMING_REJECTION_CODES,
    RateLimiter,
    ServeConfig,
    ServeCore,
    TenantQuota,
)


def quota(**overrides):
    settings = dict(requests_per_window=2, window_seconds=10.0)
    settings.update(overrides)
    return TenantQuota(**settings)


def make_core(tmp_path=None, clock=None, **config_overrides):
    settings = dict(
        workers=2,
        max_queue_depth=32,
        default_quota=quota(max_queued_jobs=32, max_concurrent_jobs=8),
        checkpoint_root=str(tmp_path / "ckpts") if tmp_path else "ckpts",
        state_dir=str(tmp_path / "state") if tmp_path else None,
        journal_fsync="off",
    )
    settings.update(config_overrides)
    config = ServeConfig(**settings)
    clock = clock or SimulatedClock()
    store = ServeCore.open_store(config) if tmp_path else None
    return ServeCore(config, clock, store)


def payload(**overrides):
    body = {"tenant": "acme", "specs": [{"num_joins": 1}], "seed": 3}
    body.update(overrides)
    return body


def take(limiter, tenant, q, now):
    """One request against the bucket, as the core makes it: a
    non-consuming check, then a consumed token when the check passed."""
    wait = limiter.check(tenant, q, now)
    if wait is None:
        limiter.consume(tenant, q, now)
    return wait


class TestBucketMath:
    def test_unarmed_quota_never_limits(self):
        limiter = RateLimiter()
        for step in range(100):
            assert take(limiter, "t", TenantQuota(), float(step)) is None

    def test_exact_retry_after_on_empty_bucket(self):
        limiter = RateLimiter()
        q = quota()  # 2 per 10s -> 0.2 tokens/s
        assert take(limiter, "t", q, 0.0) is None
        assert take(limiter, "t", q, 0.0) is None
        # Bucket empty: one full token is 1 / 0.2 = 5 seconds away.
        assert take(limiter, "t", q, 0.0) == 5.0

    def test_refill_is_linear_in_elapsed_time(self):
        limiter = RateLimiter()
        q = quota()
        take(limiter, "t", q, 0.0)
        take(limiter, "t", q, 0.0)
        assert take(limiter, "t", q, 2.5) == pytest.approx(2.5)
        assert take(limiter, "t", q, 5.0) is None  # one token back
        assert take(limiter, "t", q, 5.0) == 5.0

    def test_burst_overrides_capacity(self):
        limiter = RateLimiter()
        q = quota(burst=5)
        for _ in range(5):
            assert take(limiter, "t", q, 0.0) is None
        assert take(limiter, "t", q, 0.0) == 5.0

    def test_capacity_never_exceeds_burst(self):
        limiter = RateLimiter()
        q = quota()
        take(limiter, "t", q, 0.0)
        # A long quiet period refills to capacity, not beyond.
        for _ in range(2):
            assert take(limiter, "t", q, 1000.0) is None
        assert take(limiter, "t", q, 1000.0) == 5.0

    def test_tenants_have_independent_buckets(self):
        limiter = RateLimiter()
        q = quota()
        take(limiter, "a", q, 0.0)
        take(limiter, "a", q, 0.0)
        assert take(limiter, "a", q, 0.0) is not None
        assert take(limiter, "b", q, 0.0) is None

    def test_state_roundtrip_and_shift(self):
        limiter = RateLimiter()
        q = quota()
        take(limiter, "t", q, 7.0)
        twin = RateLimiter()
        twin.restore(limiter.state())
        twin.shift(-7.0)
        # Same elapsed time since the consumption -> same verdicts.
        assert take(limiter, "t", q, 7.0) is None
        assert take(twin, "t", q, 0.0) is None
        assert take(limiter, "t", q, 7.0) == take(twin, "t", q, 0.0) == 5.0


class TestCoreIntegration:
    def test_third_submission_in_window_gets_429(self, tmp_path):
        core = make_core(tmp_path)
        for seed in range(2):
            status, _body = core.submit(payload(seed=seed))
            assert status == 202
        status, body = core.submit(payload(seed=9))
        core.close()
        assert status == 429
        assert body["code"] == "rate_limited"
        assert body["retry_after_seconds"] == 5.0
        assert "2 requests per 10s window" in body["reason"]

    def test_window_passes_and_tenant_is_welcome_again(self, tmp_path):
        clock = SimulatedClock()
        core = make_core(tmp_path, clock=clock)
        for seed in range(2):
            core.submit(payload(seed=seed))
        assert core.submit(payload(seed=8))[0] == 429
        clock.advance(5.0)
        assert core.submit(payload(seed=9))[0] == 202
        core.close()

    def test_rate_check_runs_before_queue_capacity(self, tmp_path):
        core = make_core(tmp_path, max_queue_depth=0)
        status, body = core.submit(payload(seed=1))
        assert (status, body["code"]) == (429, "queue_full")
        # queue_full consumed the second-to-last token...
        status, body = core.submit(payload(seed=2))
        assert (status, body["code"]) == (429, "queue_full")
        # ...so the bucket, not the queue, rejects the third attempt.
        status, body = core.submit(payload(seed=3))
        assert (status, body["code"]) == (429, "rate_limited")
        core.close()

    def test_rate_limited_rejection_consumes_no_token(self):
        core = make_core()
        for seed in range(2):
            core.submit(payload(seed=seed))
        before = core.admission.limiter.state()["acme"]
        core.submit(payload(seed=8))  # 429 rate_limited
        assert core.admission.limiter.state()["acme"] == before
        assert "rate_limited" not in CONSUMING_REJECTION_CODES

    def test_verdict_sequence_is_deterministic(self):
        def run():
            clock = SimulatedClock()
            core = make_core(clock=clock)
            seen = []
            for step in range(8):
                status, body = core.submit(payload(seed=step))
                seen.append((status, body.get("retry_after_seconds")))
                clock.advance(1.5)
            return seen

        assert run() == run()


class TestReplay:
    def test_bucket_state_survives_restart(self, tmp_path):
        clock = SimulatedClock()
        core = make_core(tmp_path, clock=clock)
        for seed in range(2):
            core.submit(payload(seed=seed))
        assert core.submit(payload(seed=8))[0] == 429
        core.close()

        config = core.config
        recovered = ServeCore.recover(config, SimulatedClock())
        try:
            # Same instant (rebased): still throttled, same exact hint.
            status, body = recovered.submit(payload(seed=9))
            assert (status, body["code"]) == (429, "rate_limited")
            assert body["retry_after_seconds"] == 5.0
            recovered.clock.advance(5.0)
            assert recovered.submit(payload(seed=10))[0] == 202
        finally:
            recovered.close()

    def test_recovered_core_agrees_with_surviving_twin(self, tmp_path):
        """Crash vs. no crash must yield identical future verdicts."""
        timeline = [0.0, 0.4, 0.9, 3.0, 6.5]
        probes = [7.0, 8.0, 12.0, 13.0]

        def drive(core, clock):
            for step, at in enumerate(timeline):
                clock.advance(at - clock.now())
                core.submit(payload(seed=step))

        survivor_clock = SimulatedClock()
        survivor = make_core(clock=survivor_clock)
        drive(survivor, survivor_clock)

        crash_clock = SimulatedClock()
        crashed = make_core(tmp_path, clock=crash_clock)
        drive(crashed, crash_clock)
        crashed.close()
        recovered = ServeCore.recover(
            crashed.config, SimulatedClock(start=crash_clock.now())
        )
        try:
            for at in probes:
                survivor_clock.advance(at - survivor_clock.now())
                recovered.clock.advance(at - recovered.clock.now())
                expected = survivor.submit(payload(seed=int(at)))
                actual = recovered.submit(payload(seed=int(at)))
                assert actual[0] == expected[0], at
                assert (
                    actual[1].get("retry_after_seconds")
                    == expected[1].get("retry_after_seconds")
                ), at
        finally:
            recovered.close()
