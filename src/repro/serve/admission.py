"""Admission control: who gets into the queue, and who gets a 429.

The same arithmetic the resource governor applies to queries —
hard ceilings checked *before* spending, explicit refusals instead of
silent degradation — applied to tenants.  Each tenant carries a
:class:`TenantQuota` (concurrent jobs, queued jobs, lifetime token and
dollar budgets); a :class:`TenantAccount` tracks what the tenant has
consumed; and :class:`AdmissionController.admit` renders the verdict for
one submission against the account, the global queue, and the service
state.

Refusals are always explicit and machine-readable: a :class:`Rejection`
carries an HTTP-style status, a stable ``code``, a human reason, and —
when waiting could help — a deterministic ``retry_after_seconds`` derived
from queue depth and nominal job duration.  Nothing is ever silently
dropped; the serve chaos campaign audits that every submission produced
either a job or a rejection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Rejection codes issued *after* a passed rate-limit check — their
#: request consumes a rate token, exactly like an accepted submission.
CONSUMING_REJECTION_CODES = frozenset(
    {"queue_full", "tenant_queue_full", "tokens_exhausted",
     "dollars_exhausted"}
)


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant ceilings.  None = unlimited.

    ``requests_per_window`` arms time-windowed rate limiting: a token
    bucket refilled at ``requests_per_window / window_seconds`` tokens
    per second up to ``burst`` capacity (default: one window's worth).
    Unlike the lifetime token/dollar budgets — which only ever run *out*
    — the bucket recovers with time, so a tenant is throttled per
    window, not cut off forever.
    """

    max_concurrent_jobs: int = 2
    max_queued_jobs: int = 8
    max_tokens: int | None = None
    max_cost_dollars: float | None = None
    requests_per_window: int | None = None
    window_seconds: float = 60.0
    burst: int | None = None

    def bucket_capacity(self) -> float:
        if self.requests_per_window is None:
            return 0.0
        return float(
            self.burst if self.burst is not None else self.requests_per_window
        )

    def refill_rate(self) -> float:
        """Tokens per second (0 when rate limiting is unarmed)."""
        if self.requests_per_window is None:
            return 0.0
        return self.requests_per_window / max(self.window_seconds, 1e-9)


class RateLimiter:
    """Deterministic per-tenant token buckets on the core's clock.

    Pure arithmetic over the ``now`` values it is handed — no wall-clock
    reads — so under :class:`~repro.resilience.clock.SimulatedClock` the
    verdict sequence (and every ``retry_after_seconds`` hint) is a pure
    function of the submission timeline.  A bucket changes in two ways
    only: :meth:`check` refills it to ``now`` and reads it, and
    :meth:`consume` takes a token.  The serve core's one transition
    applier calls ``consume`` for every request that passed the check
    and re-runs a refused check's refill, live and on journal replay
    alike, so a recovered bucket is the live one.
    """

    def __init__(self):
        #: tenant -> [tokens, last_refill_at]
        self.buckets: dict[str, list[float]] = {}

    def _refill(self, tenant: str, quota: TenantQuota, now: float) -> list:
        capacity = quota.bucket_capacity()
        bucket = self.buckets.get(tenant)
        if bucket is None:
            bucket = [capacity, now]
            self.buckets[tenant] = bucket
        elapsed = max(now - bucket[1], 0.0)
        bucket[0] = min(capacity, bucket[0] + elapsed * quota.refill_rate())
        bucket[1] = now
        return bucket

    def check(
        self, tenant: str, quota: TenantQuota, now: float
    ) -> float | None:
        """Refill to *now* without consuming: None = a token is there,
        else exact seconds until the next token exists."""
        if quota.requests_per_window is None:
            return None
        bucket = self._refill(tenant, quota, now)
        if bucket[0] >= 1.0:
            return None
        return round((1.0 - bucket[0]) / quota.refill_rate(), 6)

    def consume(self, tenant: str, quota: TenantQuota, now: float) -> None:
        """Take one token at *now* — the only write that lowers a bucket."""
        if quota.requests_per_window is None:
            return
        bucket = self._refill(tenant, quota, now)
        bucket[0] = max(bucket[0] - 1.0, 0.0)

    def state(self) -> dict:
        return {
            tenant: [round(b[0], 9), b[1]]
            for tenant, b in sorted(self.buckets.items())
        }

    def restore(self, state: dict) -> None:
        self.buckets = {
            tenant: [float(b[0]), float(b[1])]
            for tenant, b in state.items()
        }

    def shift(self, delta: float) -> None:
        """Rebase refill times onto a new process's clock origin."""
        for bucket in self.buckets.values():
            bucket[1] += delta


@dataclass
class TenantAccount:
    """What one tenant currently holds and has historically spent.

    Token/dollar spend accumulates over the service lifetime from every
    finished attempt (completed, failed, or checkpointed — the LLM billed
    them all), mirroring how the budget guard meters a single run.
    """

    tenant: str
    quota: TenantQuota
    queued: int = 0
    running: int = 0
    tokens_spent: int = 0
    dollars_spent: float = 0.0
    jobs_submitted: int = 0
    jobs_completed: int = 0

    def remaining_tokens(self) -> int | None:
        if self.quota.max_tokens is None:
            return None
        return max(0, self.quota.max_tokens - self.tokens_spent)

    def remaining_dollars(self) -> float | None:
        if self.quota.max_cost_dollars is None:
            return None
        return max(0.0, self.quota.max_cost_dollars - self.dollars_spent)

    def to_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "queued": self.queued,
            "running": self.running,
            "tokens_spent": self.tokens_spent,
            "dollars_spent": round(self.dollars_spent, 6),
            "jobs_submitted": self.jobs_submitted,
            "jobs_completed": self.jobs_completed,
        }


@dataclass(frozen=True)
class Rejection:
    """An explicit refusal: status, stable code, reason, optional hint."""

    status: int  # HTTP-style: 429, 503, 422
    code: str
    reason: str
    retry_after_seconds: float | None = None

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "code": self.code,
            "reason": self.reason,
            "retry_after_seconds": self.retry_after_seconds,
        }


@dataclass
class AdmissionController:
    """Render admit/reject verdicts for submissions.

    Stateless over jobs — it reads the account and queue depth it is
    handed, so the serve core stays the single owner of mutable state.
    """

    max_queue_depth: int = 32
    workers: int = 2
    nominal_job_seconds: float = 2.0
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    quotas: dict = field(default_factory=dict)  # tenant -> TenantQuota
    limiter: RateLimiter = field(default_factory=RateLimiter)

    def quota_for(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default_quota)

    def retry_after(self, queue_depth: int) -> float:
        """Deterministic back-off hint: how long until a slot should free.

        One queue drain is roughly ``depth / workers`` nominal job times;
        clients that honor the hint arrive when capacity plausibly exists
        instead of hammering a full queue.
        """
        drains = math.ceil(max(queue_depth, 1) / max(self.workers, 1))
        return round(self.nominal_job_seconds * drains, 3)

    def admit(
        self,
        account: TenantAccount,
        queue_depth: int,
        *,
        draining: bool = False,
        spec_quarantined: bool = False,
        now: float | None = None,
    ) -> Rejection | None:
        """None = admitted; otherwise the explicit rejection to return.

        Rendering a verdict consumes nothing: the rate check only refills
        and reads the bucket.  Check order decides who pays a rate token
        — draining and quarantine verdicts are free, a rate-limited one
        is free too, and everything past a passed rate check (acceptance
        or a :data:`CONSUMING_REJECTION_CODES` rejection) costs one,
        which the core takes when it applies the verdict.  *now* is the
        core clock's time; without it the rate check is skipped (legacy
        callers, rate limiting unarmed).
        """
        if draining:
            # No retry hint on purpose: drain ends in process exit, not
            # in freed capacity, so there is no honest number to give.
            # Clients should retry after the service restarts (the
            # durable job store carries all accepted work across).
            return Rejection(
                status=503,
                code="draining",
                reason=(
                    "service is draining toward shutdown; retry after "
                    "it restarts — accepted jobs are journaled and "
                    "survive the restart"
                ),
            )
        if spec_quarantined:
            return Rejection(
                status=422,
                code="spec_quarantined",
                reason=(
                    "this spec pack repeatedly crashed workers and is "
                    "quarantined; change the spec before resubmitting"
                ),
            )
        quota = account.quota
        if now is not None:
            wait = self.limiter.check(account.tenant, quota, now)
            if wait is not None:
                return Rejection(
                    status=429,
                    code="rate_limited",
                    reason=(
                        f"tenant {account.tenant!r} exceeded "
                        f"{quota.requests_per_window} requests per "
                        f"{quota.window_seconds:g}s window"
                    ),
                    retry_after_seconds=wait,
                )
        if queue_depth >= self.max_queue_depth:
            return Rejection(
                status=429,
                code="queue_full",
                reason=(
                    f"global queue is full "
                    f"({queue_depth}/{self.max_queue_depth})"
                ),
                retry_after_seconds=self.retry_after(queue_depth),
            )
        if account.queued >= quota.max_queued_jobs:
            return Rejection(
                status=429,
                code="tenant_queue_full",
                reason=(
                    f"tenant {account.tenant!r} already has "
                    f"{account.queued} queued jobs "
                    f"(quota {quota.max_queued_jobs})"
                ),
                retry_after_seconds=self.retry_after(account.queued),
            )
        remaining_tokens = account.remaining_tokens()
        if remaining_tokens is not None and remaining_tokens <= 0:
            return Rejection(
                status=429,
                code="tokens_exhausted",
                reason=(
                    f"tenant {account.tenant!r} spent "
                    f"{account.tokens_spent} tokens of a "
                    f"{quota.max_tokens} budget"
                ),
            )
        remaining_dollars = account.remaining_dollars()
        if remaining_dollars is not None and remaining_dollars <= 0.0:
            return Rejection(
                status=429,
                code="dollars_exhausted",
                reason=(
                    f"tenant {account.tenant!r} spent "
                    f"${account.dollars_spent:.4f} of a "
                    f"${quota.max_cost_dollars:.4f} budget"
                ),
            )
        return None
