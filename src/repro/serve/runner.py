"""Executing one job: SQLBarber behind a crash/drain/deadline boundary.

:class:`JobRunner` turns a claimed :class:`~repro.serve.jobs.Job` into a
:class:`JobOutcome`.  The contract with the core:

* **Checkpointing is always on** — every job runs with a per-job
  checkpoint directory (locked via the checkpoint layer's
  :class:`~repro.resilience.lock.DirectoryLock`) and
  ``checkpoint_every_templates=1``, so the most a crash can lose is one
  template's work.
* **Deadline propagation** — the request's deadline becomes an absolute
  time on the runner's clock, enforced at three layers: the LLM client
  refuses calls (and backoffs) past it, the pipeline's time budget is the
  remaining seconds, and the engine governor gets the request's per-query
  timeout (fixed at submission so the checkpoint run key is stable across
  resumes).
* **Crash semantics** — a :class:`WorkerKilled` escaping ``run`` models a
  worker dying mid-job (chaos and the drain sweep raise it from the
  checkpoint-save hook and from named kill points between pipeline
  phases).  It is a ``BaseException``: nothing in the runner may swallow
  it, exactly like a real SIGKILL.
* **Poison detection** — a job that fails *before the pipeline produces a
  result* (bad distribution, unbuildable specs) is flagged ``poison``;
  the core's quarantine ledger counts these per spec_key.
* **One router** — :meth:`JobRunner.attempt` is the one place an
  attempt's ending becomes a core transition: an outcome is finished, a
  :class:`DrainRequested` checkpoints the job, and a
  :class:`WorkerKilled` requeues it for resume.

Budget exhaustion and deadline expiry inside the pipeline are *graceful*
outcomes (the pipeline returns an aborted-but-valid partial result); the
runner reports them as completed-with-abort rather than failures, exactly
like the one-shot CLI does.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

from repro.core import BarberConfig, SQLBarber
from repro.llm import SimulatedLLM
from repro.obs import Telemetry
from repro.resilience import (
    CircuitBreakerPolicy,
    ResilientLLMClient,
    RetryPolicy,
)
from repro.resilience.clock import Clock, SystemClock

from .jobs import Job


class WorkerKilled(BaseException):
    """A worker died (simulated).  Not an Exception: may not be caught
    by anything between the kill point and the worker loop."""


class DrainRequested(BaseException):
    """Graceful drain: the in-flight job just checkpointed; stop here.

    Raised from the checkpoint-save hook *after* the save hit disk, so
    the job is resumable by construction."""


#: Named points where the drain sweep kills the runner, in execution
#: order.  Checkpoint saves add one dynamic point per save on top.
KILL_POINTS = (
    "claimed",
    "db_built",
    "client_built",
    "pipeline_done",
    "outcome_built",
)


@dataclass
class JobOutcome:
    """What one execution attempt produced."""

    error: str | None = None
    poison: bool = False
    tokens: int = 0
    dollars: float = 0.0
    result: dict | None = None

    def to_core(self) -> dict:
        return {
            "error": self.error,
            "poison": self.poison,
            "tokens": self.tokens,
            "dollars": self.dollars,
            "result": self.result,
        }


class JobRunner:
    """Run jobs through SQLBarber with serving-grade guard rails.

    *on_point* — ``f(point_name)`` called at every named kill point and
    ``f("checkpoint_save:<n>")`` after every durable checkpoint save; the
    chaos harness and the drain sweep raise :class:`WorkerKilled` /
    :class:`DrainRequested` from it.  *db_builder* defaults to a fresh
    fuzz database per job (workers are threads; sharing one engine
    instance across concurrent jobs is not worth proving safe).
    """

    def __init__(
        self,
        clock: Clock | None = None,
        on_point: Callable[[str], None] | None = None,
        db_builder: Callable[[int], object] | None = None,
        telemetry_factory: Callable[[], Telemetry] | None = None,
    ):
        self.clock = clock if clock is not None else SystemClock()
        self.on_point = on_point
        if db_builder is None:
            from repro.fuzz.runner import build_fuzz_database

            db_builder = build_fuzz_database
        self.db_builder = db_builder
        self.telemetry_factory = telemetry_factory

    def _point(self, name: str) -> None:
        if self.on_point is not None:
            self.on_point(name)

    def attempt(self, core, job: Job) -> JobOutcome | None:
        """Run one claimed attempt of *job* and record its ending on *core*.

        An outcome finishes the job and is returned.  A drain checkpoints
        the job and a worker death requeues it for resume; both return
        None, and the worker should stop as the real thing would.
        """
        try:
            outcome = self.run(
                job, resume=job.resume, max_tokens=job.effective_max_tokens
            )
        except DrainRequested:
            core.checkpoint_for_drain(job)
            return None
        except WorkerKilled:
            core.requeue_after_crash(job)
            return None
        core.finish(job, outcome.to_core())
        return outcome

    def run(
        self,
        job: Job,
        *,
        resume: bool = False,
        max_tokens: int | None = None,
    ) -> JobOutcome:
        """Execute one attempt.  Never raises for *job* problems — those
        come back as a failed/poisoned outcome; only :class:`WorkerKilled`
        and :class:`DrainRequested` escape (plus genuine runner bugs)."""
        request = job.request
        self._point("claimed")
        try:
            specs = request.build_specs()
            distribution = request.build_distribution()
        except (ValueError, TypeError, KeyError) as error:
            # The canonical poisoned spec: validated shallowly at
            # admission, deterministic failure at execution.
            return JobOutcome(
                error=f"poisoned spec: {type(error).__name__}: {error}",
                poison=True,
            )
        db = self.db_builder(request.seed)
        self._point("db_built")

        client = ResilientLLMClient(
            SimulatedLLM(seed=request.seed),
            retry=RetryPolicy(max_attempts=4, base_delay_seconds=0.01),
            breaker=CircuitBreakerPolicy(failure_threshold=8),
            clock=self.clock,
            jitter_seed=request.seed + 1,
            deadline=job.deadline_at,
            max_tokens=max_tokens,
            max_cost_dollars=request.max_cost_dollars,
        )
        config = BarberConfig(
            seed=request.seed,
            checkpoint_every_templates=1,
            max_tokens=max_tokens,
            max_cost_dollars=request.max_cost_dollars,
            # Fixed at submission (part of the request, not of remaining
            # time), so the checkpoint run key survives a resume.
            query_timeout_seconds=request.query_timeout_seconds,
        )
        self._point("client_built")

        time_budget = None
        if job.deadline_at is not None:
            time_budget = max(job.deadline_at - self.clock.now(), 0.001)

        def on_save(manager, payload) -> None:
            self._point(f"checkpoint_save:{manager.saves}")

        barber = SQLBarber(db, llm=client, config=config)
        try:
            result = barber.generate_workload(
                specs,
                distribution,
                time_budget_seconds=time_budget,
                telemetry=(
                    self.telemetry_factory()
                    if self.telemetry_factory is not None
                    else None
                ),
                checkpoint_dir=job.checkpoint_dir,
                resume=resume,
                on_checkpoint_save=on_save,
            )
        except Exception as error:
            # The pipeline converts expected trouble (budget, deadline,
            # retry exhaustion) into aborted results; an escaping
            # exception is a spec the pipeline itself cannot survive.
            return JobOutcome(
                error=f"{type(error).__name__}: {error}",
                poison=True,
                tokens=int(client.usage.total_tokens),
                dollars=float(client.usage.cost_usd(client.pricing)),
            )
        self._point("pipeline_done")

        fingerprint = hashlib.sha256(
            result.fingerprint_json().encode("utf-8")
        ).hexdigest()
        outcome = JobOutcome(
            tokens=int(client.usage.total_tokens),
            dollars=float(client.usage.cost_usd(client.pricing)),
            result={
                "fingerprint": fingerprint,
                "queries": len(result.workload),
                "complete": result.complete,
                "aborted": result.aborted,
                "abort_reason": result.abort_reason,
                "quarantined_templates": len(result.quarantined),
            },
        )
        self._point("outcome_built")
        return outcome
