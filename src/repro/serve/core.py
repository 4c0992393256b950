"""The serve core: a deterministic, lock-guarded job state machine.

:class:`ServeCore` owns every piece of mutable service state — the
priority queue, the job table, tenant accounts, the poisoned-spec
quarantine ledger, and the drain flag — behind one mutex.  It is
deliberately synchronous and transport-free: the asyncio HTTP layer, the
thread worker pool, the load harness, and the chaos campaigns all drive
the same core, so the chaos invariants (explicit verdicts, zero lost
jobs) hold verbatim for the real server.

Time comes from a pluggable :class:`~repro.resilience.clock.Clock`;
under :class:`~repro.resilience.clock.SimulatedClock` every deadline
expiry and retry-after hint is a pure function of the submission
sequence, which is what makes the serve chaos reports byte-identical
across runs.

**One state machine.**  Every lifecycle transition is one record —
``submitted``, ``rejected``, ``claimed``, ``expired``, ``finished``,
``gave_up``, ``requeued``, ``checkpointed``, ``resumed``, ``drain``,
``drained``, ``recovered`` — and :meth:`ServeCore._apply` is the one
code path that applies a record.  The public methods only *decide* (the
admission verdict, the heap pop, the deadline check, the token-ceiling
freeze, give-up vs. requeue) and hand the decided record to
``_commit``, which applies it and then, with a
:class:`~repro.serve.store.JobStore` attached, journals it stamped with
the decision's time — all under the core lock.  A job's state move is
the first write, so a transition the state machine refuses (a terminal
job cannot move) raises having changed and journaled nothing.

**Durability.**  The journal is therefore a serialized history of the
state machine, and :meth:`ServeCore.recover` replays it into a fresh
process through the same ``_apply`` — recovery runs the live code, not
a copy of it; replay only forces the state moves.  Then:

* queued jobs re-enter the priority heap in their original
  priority-FIFO order (the heap sequence number is journaled);
* jobs that were RUNNING at the moment of death go back through the
  existing :meth:`requeue_after_crash` strike path, so a job that keeps
  killing whole *services* poisons out exactly like one that kills
  workers;
* CHECKPOINTED jobs are resurrected to QUEUED with ``resume=True`` (a
  ``resumed`` record) — their checkpoint dirs carry the progress, and
  the checkpoint layer's contract makes the finished fingerprint
  bit-identical to an uninterrupted run;
* tenant ledgers (token/dollar spend, lifetime counts), spec-quarantine
  strikes, rejection counters, and rate-limiter buckets come out of the
  replayed records exactly as the live records left them.

Recovery is damage-tolerant: whatever the store quarantined (torn
tails, bit flips, truncated segments) plus any record that no longer
applies (e.g. one referencing a job whose submission record was lost)
lands in ``core.recovery`` — a machine-readable report surfaced through
``stats()`` and the serve summary — and ``audit_lost_jobs()`` must come
back empty afterwards, exactly as it must after any storm.
"""

from __future__ import annotations

import heapq
import threading
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs import current as current_telemetry
from repro.resilience.clock import Clock, SystemClock

from .admission import (
    CONSUMING_REJECTION_CODES,
    AdmissionController,
    TenantAccount,
    TenantQuota,
)
from .jobs import BadRequest, Job, JobRequest, JobState
from .store import JobStore


@dataclass(frozen=True)
class ServeConfig:
    """Service-level tunables (the request-level ones ride in JobRequest)."""

    workers: int = 2
    max_queue_depth: int = 32
    nominal_job_seconds: float = 2.0
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    quotas: dict = field(default_factory=dict)  # tenant -> TenantQuota
    #: Worker-crashing failures one spec_key survives before quarantine.
    poison_quarantine_after: int = 2
    #: Attempts (original + resumes) one job gets before it fails for good.
    max_attempts: int = 3
    checkpoint_root: str = "serve-checkpoints"
    #: Directory for the durable job journal; None = ephemeral service
    #: (accepted work dies with the process, the pre-journal behavior).
    state_dir: str | None = None
    #: "always" | "rotate" | "off" — see :mod:`repro.serve.store`.
    journal_fsync: str = "rotate"
    segment_max_records: int = 512
    compact_after_segments: int = 4


#: The state each job record moves its job to (``finished`` names its own).
_MOVES = {
    "claimed": JobState.RUNNING,
    "expired": JobState.EXPIRED,
    "gave_up": JobState.FAILED,
    "requeued": JobState.QUEUED,
    "resumed": JobState.QUEUED,
    "checkpointed": JobState.CHECKPOINTED,
}


def _spend(outcome: dict | None) -> dict:
    """The record fields that bill one attempt's spend to its tenant."""
    outcome = outcome or {}
    return {
        "tokens": int(outcome.get("tokens", 0)),
        "dollars": float(outcome.get("dollars", 0.0)),
    }


class ServeCore:
    """Admission → queue → dispatch → completion, under one lock."""

    def __init__(
        self,
        config: ServeConfig,
        clock: Clock | None = None,
        store: JobStore | None = None,
    ):
        self.config = config
        self.clock = clock if clock is not None else SystemClock()
        self.admission = AdmissionController(
            max_queue_depth=config.max_queue_depth,
            workers=config.workers,
            nominal_job_seconds=config.nominal_job_seconds,
            default_quota=config.default_quota,
            quotas=dict(config.quotas),
        )
        self._lock = threading.Lock()
        self._next_seq = 1
        self._heap: list = []  # (-priority, seq, job_id)
        self.jobs: dict[str, Job] = {}
        self.accounts: dict[str, TenantAccount] = {}
        self.draining = False
        #: Set when a drain ran to completion in *this* process lifetime
        #: (journaled as a terminal ``drained`` record).
        self.drained = False
        #: spec_key -> worker-crash count; keys past the threshold are
        #: quarantined for every tenant (the governor's strike ledger,
        #: applied to specs instead of templates).
        self.spec_strikes: dict[str, int] = {}
        self.quarantined_specs: set[str] = set()
        self.rejections: dict[str, int] = {}  # code -> count
        self.store = store
        #: Machine-readable recovery report (None unless built by recover()).
        self.recovery: dict | None = None
        #: Called as ``f(job_id)`` after every live transition of a job,
        #: with the lock held, so it must not block.  The HTTP layer
        #: answers its long polls from it.
        self.on_job_change: Callable[[str], None] | None = None
        if store is not None:
            store.snapshot_provider = self._snapshot

    @classmethod
    def open_store(cls, config: ServeConfig, **store_kwargs) -> JobStore:
        """The config's journal store (state_dir must be set)."""
        if not config.state_dir:
            raise ValueError("ServeConfig.state_dir is not set")
        return JobStore(
            Path(config.state_dir),
            fsync_policy=config.journal_fsync,
            segment_max_records=config.segment_max_records,
            compact_after_segments=config.compact_after_segments,
            **store_kwargs,
        )

    # -- submission -------------------------------------------------------------------

    def submit(self, payload) -> tuple[int, dict]:
        """One submission → (HTTP-style status, response body).

        Every outcome is explicit: 202 with a job id, 400 for a malformed
        payload, or the admission controller's rejection verbatim.  An
        accepted submission is journaled before the 202 leaves this
        method — the ACK *is* the durability contract.
        """
        try:
            request = JobRequest.from_payload(payload)
        except BadRequest as error:
            with self._lock:
                self._commit(
                    "rejected",
                    self.clock.now(),
                    {"tenant": None, "code": "bad_request"},
                )
                self._count("serve.rejected", code="bad_request")
            return 400, {"error": "bad_request", "reason": str(error)}
        with self._lock:
            now = self.clock.now()
            verdict = self.admission.admit(
                self._account(request.tenant),
                queue_depth=len(self._heap),
                draining=self.draining,
                spec_quarantined=request.spec_key() in self.quarantined_specs,
                now=now,
            )
            if verdict is not None:
                self._commit(
                    "rejected",
                    now,
                    {"tenant": request.tenant, "code": verdict.code},
                )
                self._count("serve.rejected", code=verdict.code)
                return verdict.status, verdict.to_dict()
            job_id = f"job-{self._next_seq:04d}"
            self._commit(
                "submitted",
                now,
                {
                    "job_id": job_id,
                    "heap_seq": self._next_seq,
                    "payload": request.to_payload(),
                    "deadline_at": (
                        now + request.deadline_seconds
                        if request.deadline_seconds is not None
                        else None
                    ),
                    "checkpoint_dir": str(
                        Path(self.config.checkpoint_root) / job_id
                    ),
                },
            )
            self._count("serve.submitted", tenant=request.tenant)
            return 202, {
                "job_id": job_id,
                "state": JobState.QUEUED,
                "queue_depth": len(self._heap),
            }

    # -- dispatch ---------------------------------------------------------------------

    def claim(self, worker: str) -> Job | None:
        """Hand the highest-priority runnable job to *worker*.

        Load shedding happens here: a queued job whose deadline already
        lapsed is moved to EXPIRED (an explicit terminal state, visible in
        the job table) instead of burning a worker slot on a result nobody
        is waiting for.  Jobs whose tenant is at its concurrency quota are
        skipped this round but stay queued.
        """
        with self._lock:
            now = self.clock.now()
            deferred: list = []
            claimed: Job | None = None
            while self._heap:
                entry = heapq.heappop(self._heap)
                job = self.jobs[entry[2]]
                if job.deadline_at is not None and now >= job.deadline_at:
                    self._commit(
                        "expired",
                        now,
                        {
                            "job_id": job.job_id,
                            "error": (
                                f"deadline expired after "
                                f"{now - job.submitted_at:.3f}s in queue"
                            ),
                        },
                    )
                    self._count("serve.expired", tenant=job.request.tenant)
                    continue
                account = self._account(job.request.tenant)
                if account.running >= account.quota.max_concurrent_jobs:
                    deferred.append(entry)
                    continue
                claimed = job
                break
            for entry in deferred:
                heapq.heappush(self._heap, entry)
            if claimed is None:
                return None
            ceiling = claimed.effective_max_tokens
            if not claimed.budget_frozen:
                # Freeze the token ceiling at first dispatch: a resume must
                # run under the budget the original attempt had, or the
                # abort point moves and bit-identical resume breaks.  (The
                # ceiling is execution-only in the checkpoint run key, so
                # the checkpoint itself loads either way.)
                ceilings = [
                    c
                    for c in (
                        claimed.request.max_tokens,
                        account.remaining_tokens(),
                    )
                    if c is not None
                ]
                ceiling = min(ceilings) if ceilings else None
            self._commit(
                "claimed",
                now,
                {
                    "job_id": claimed.job_id,
                    "worker": worker,
                    "attempts": claimed.attempts + 1,
                    "started_at": (
                        claimed.started_at
                        if claimed.started_at is not None
                        else now
                    ),
                    "effective_max_tokens": ceiling,
                },
            )
            self._count("serve.claimed", tenant=claimed.request.tenant)
            return claimed

    # -- completion -------------------------------------------------------------------

    def finish(self, job: Job, outcome: dict) -> None:
        """Record a finished attempt: COMPLETED, or FAILED with a reason.

        Every attempt bills — completed, failed, crashed, or drained —
        because the LLM metered all of them; this is the same
        spend-is-spend rule the budget guard applies within a run.
        """
        failed = bool(outcome.get("error"))
        with self._lock:
            self._commit(
                "finished",
                self.clock.now(),
                {
                    "job_id": job.job_id,
                    "state": JobState.FAILED if failed else JobState.COMPLETED,
                    "error": str(outcome["error"]) if failed else job.error,
                    "result": job.result if failed else outcome.get("result"),
                    "poison": bool(outcome.get("poison")),
                    **_spend(outcome),
                },
            )
            self._count(
                "serve.failed" if failed else "serve.completed",
                tenant=job.request.tenant,
            )

    def requeue_after_crash(self, job: Job, outcome: dict | None = None) -> None:
        """A worker died mid-job: put the job back, flagged for resume.

        The job's checkpoint directory holds its progress; the next claim
        resumes from it and — by the checkpoint layer's contract —
        fingerprints bit-identically to an uninterrupted run.  Past
        ``max_attempts`` the job fails instead: a job that kills every
        worker that touches it is a poison pill, and its spec_key takes a
        quarantine strike.  Service recovery routes every job that was
        RUNNING at process death through this same path.
        """
        with self._lock:
            if job.attempts >= self.config.max_attempts:
                self._commit(
                    "gave_up",
                    self.clock.now(),
                    {
                        "job_id": job.job_id,
                        "error": (
                            f"gave up after {job.attempts} attempts "
                            f"(worker died each time)"
                        ),
                        **_spend(outcome),
                    },
                )
                self._count("serve.poisoned", tenant=job.request.tenant)
                return
            self._commit(
                "requeued",
                self.clock.now(),
                {
                    "job_id": job.job_id,
                    "heap_seq": self._next_seq,
                    **_spend(outcome),
                },
            )
            self._count("serve.requeued", tenant=job.request.tenant)

    def checkpoint_for_drain(self, job: Job, outcome: dict | None = None) -> None:
        """Drain landed mid-job: progress is on disk, mark it resumable."""
        with self._lock:
            self._commit(
                "checkpointed",
                self.clock.now(),
                {"job_id": job.job_id, **_spend(outcome)},
            )
            self._count("serve.checkpointed", tenant=job.request.tenant)

    def _strike(self, spec_key: str) -> None:
        strikes = self.spec_strikes.get(spec_key, 0) + 1
        self.spec_strikes[spec_key] = strikes
        if strikes >= self.config.poison_quarantine_after:
            self.quarantined_specs.add(spec_key)
            self._count("serve.spec_quarantined")

    # -- drain ------------------------------------------------------------------------

    def drain(self) -> dict:
        """Stop admitting; report what is in flight and what is queued.

        Queued jobs stay queued — journaled, fully described by their
        requests, and recovered by the next process.  Running jobs are the
        workers' responsibility: the drain event makes each one checkpoint
        at its next save point and hand the job to
        :meth:`checkpoint_for_drain`.
        """
        with self._lock:
            self._commit("drain", self.clock.now(), {})
            self._count("serve.drain")
            return {
                "draining": True,
                "queued": sum(
                    1
                    for j in self.jobs.values()
                    if j.state == JobState.QUEUED
                ),
                "running": sum(
                    1
                    for j in self.jobs.values()
                    if j.state == JobState.RUNNING
                ),
            }

    def mark_drained(self) -> None:
        """Drain ran to completion: journal the terminal ``drained`` record.

        Called once the worker pool has quiesced (every in-flight job is
        CHECKPOINTED or terminal).  The record tells the *next* process
        lifetime that this one ended cleanly — recovery reports
        ``clean_shutdown`` instead of treating the state dir as a crash.
        """
        with self._lock:
            if self.drained or not self.draining:
                return
            self._commit("drained", self.clock.now(), {})
            self._count("serve.drained")

    # -- introspection ------------------------------------------------------------------

    def job(self, job_id: str) -> Job | None:
        with self._lock:
            return self.jobs.get(job_id)

    def jobs_snapshot(self) -> list[dict]:
        with self._lock:
            return [
                self.jobs[job_id].to_dict() for job_id in sorted(self.jobs)
            ]

    def stats(self) -> dict:
        with self._lock:
            states: dict[str, int] = {}
            for job in self.jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            stats = {
                "draining": self.draining,
                "drained": self.drained,
                "durable": self.store is not None,
                "queue_depth": len(self._heap),
                "jobs": dict(sorted(states.items())),
                "rejections": dict(sorted(self.rejections.items())),
                "quarantined_specs": len(self.quarantined_specs),
                "tenants": {
                    name: self.accounts[name].to_dict()
                    for name in sorted(self.accounts)
                },
            }
            if self.recovery is not None:
                stats["recovery"] = self.recovery
            return stats

    def audit_lost_jobs(self) -> list[str]:
        """Job ids in no accountable state — must always be empty.

        Accountable = terminal, queued, or running.  The serve chaos
        campaign calls this after every storm — and after every recovery —
        because a non-empty answer is the one unforgivable serving bug
        (work accepted, then vanished).
        """
        with self._lock:
            queued_ids = {entry[2] for entry in self._heap}
            lost = []
            for job_id, job in sorted(self.jobs.items()):
                if job.state in JobState.TERMINAL:
                    continue
                if job.state == JobState.QUEUED and job_id in queued_ids:
                    continue
                if job.state == JobState.RUNNING and job.worker is not None:
                    continue
                lost.append(job_id)
            return lost

    def close(self) -> None:
        """Release the journal (fsync + directory lock).  Idempotent."""
        if self.store is not None:
            self.store.close()

    # -- durable state ------------------------------------------------------------------

    def state_snapshot(self) -> dict:
        """The full durable state, canonical-JSON-able.

        This is both the compaction payload and the restart chaos
        scenario's equality witness: two recoveries of the same journal
        must produce byte-identical snapshots.
        """
        with self._lock:
            return self._snapshot()

    def _snapshot(self) -> dict:
        """Lock already held (or core not yet shared)."""
        return {
            "next_seq": self._next_seq,
            "draining": self.draining,
            "drained": self.drained,
            "last_at": self.clock.now(),
            "jobs": {
                job_id: self.jobs[job_id].to_state()
                for job_id in sorted(self.jobs)
            },
            "accounts": {
                name: {
                    "tokens_spent": account.tokens_spent,
                    "dollars_spent": account.dollars_spent,
                    "jobs_submitted": account.jobs_submitted,
                    "jobs_completed": account.jobs_completed,
                }
                for name, account in sorted(self.accounts.items())
            },
            "spec_strikes": dict(sorted(self.spec_strikes.items())),
            "quarantined_specs": sorted(self.quarantined_specs),
            "rejections": dict(sorted(self.rejections.items())),
            "limiter": self.admission.limiter.state(),
        }

    # -- recovery -----------------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        config: ServeConfig,
        clock: Clock | None = None,
        *,
        on_append=None,
        track_appends: bool = False,
    ) -> "ServeCore":
        """A fresh core carrying the journaled state of a dead one.

        Opens ``config.state_dir`` (acquiring its lock: a dead previous
        holder's lock died with its process, a live one raises
        :class:`~repro.resilience.lock.LockHeld`), loads the newest valid
        snapshot, replays newer journal segments through the live
        :meth:`_apply`, then repairs what death interrupted: tenant
        queued/running counts and the priority heap are rebuilt from
        final job states, RUNNING jobs are requeued through the
        crash-strike path, and CHECKPOINTED jobs are resumed as QUEUED (a
        ``resumed`` commit).  Never raises for journal damage — see
        ``core.recovery`` for what was quarantined.
        """
        store = cls.open_store(
            config, on_append=on_append, track_appends=track_appends
        )
        snapshot, records, quarantined = store.recover()
        core = cls(config, clock=clock, store=store)
        core._rebuild(snapshot, records, quarantined)
        return core

    def _rebuild(
        self, snapshot: dict | None, records: list, quarantined: list
    ) -> None:
        report = {
            "snapshot_loaded": snapshot is not None,
            "records_replayed": 0,
            "quarantined": list(quarantined),
            "requeued_running": 0,
            "resumed_checkpointed": 0,
            "was_draining": False,
            "clean_shutdown": False,
        }
        last_at = 0.0
        if snapshot is not None:
            last_at = max(last_at, self._restore_snapshot(snapshot))
        for record in records:
            try:
                problem = self._apply(
                    record["t"], float(record["at"]), record["d"], replay=True
                )
            except Exception as error:  # damaged data must never crash recovery
                problem = f"{type(error).__name__}: {error}"
            if problem is not None:
                report["quarantined"].append(
                    {
                        "kind": "unreplayable_record",
                        "where": f"{record.get('t')}#{record.get('n')}",
                        "detail": problem,
                    }
                )
                continue
            report["records_replayed"] += 1
            last_at = max(last_at, float(record.get("at", 0.0)))
        report["was_draining"] = self.draining
        report["clean_shutdown"] = self.drained
        self._fix_up(report, last_at)
        counts = {
            kind: sum(
                1 for q in report["quarantined"] if q["kind"] == kind
            )
            for kind in sorted(
                {q["kind"] for q in report["quarantined"]}
            )
        }
        report["quarantined_counts"] = counts
        self.recovery = report
        telemetry = current_telemetry()
        if telemetry.enabled:
            telemetry.count("serve.store.recovered")
            telemetry.count(
                "serve.store.records_replayed",
                value=report["records_replayed"],
            )
            for kind, count in counts.items():
                telemetry.count(
                    "serve.store.quarantined", kind=kind, value=count
                )
        self._commit(
            "recovered",
            self.clock.now(),
            {
                "records_replayed": report["records_replayed"],
                "quarantined": counts,
                "requeued_running": report["requeued_running"],
                "resumed_checkpointed": report["resumed_checkpointed"],
            },
        )

    def _restore_snapshot(self, state: dict) -> float:
        self._next_seq = int(state["next_seq"])
        self.draining = bool(state["draining"])
        self.drained = bool(state["drained"])
        self.jobs = {
            job_id: Job.from_state(job_state)
            for job_id, job_state in state["jobs"].items()
        }
        for name, ledger in state["accounts"].items():
            account = self._account(name)
            account.tokens_spent = int(ledger["tokens_spent"])
            account.dollars_spent = float(ledger["dollars_spent"])
            account.jobs_submitted = int(ledger["jobs_submitted"])
            account.jobs_completed = int(ledger["jobs_completed"])
        self.spec_strikes = {
            k: int(v) for k, v in state["spec_strikes"].items()
        }
        self.quarantined_specs = set(state["quarantined_specs"])
        self.rejections = {k: int(v) for k, v in state["rejections"].items()}
        self.admission.limiter.restore(state.get("limiter", {}))
        return float(state.get("last_at", 0.0))

    def _fix_up(self, report: dict, last_at: float) -> None:
        """Repair what process death interrupted (after replay)."""
        # Rebuild queue/running accounting and the heap from final states.
        for account in self.accounts.values():
            account.queued = 0
            account.running = 0
        self._heap = []
        for job_id in sorted(self.jobs):
            job = self.jobs[job_id]
            account = self._account(job.request.tenant)
            if job.state == JobState.QUEUED:
                account.queued += 1
                heapq.heappush(
                    self._heap,
                    (-job.request.priority, job.heap_seq, job.job_id),
                )
            elif job.state == JobState.RUNNING:
                account.running += 1
        # Rebase forward-looking times onto this process's clock: the old
        # clock died with the old process (monotonic clocks do not span
        # restarts), so each pending deadline keeps its *remaining*
        # budget relative to the journal's last event.
        shift = self.clock.now() - last_at
        if shift != 0.0:
            for job in self.jobs.values():
                if (
                    job.deadline_at is not None
                    and job.state not in JobState.TERMINAL
                ):
                    job.deadline_at += shift
            self.admission.limiter.shift(shift)
        # A fresh process accepts work again, whatever the old one was doing.
        self.draining = False
        self.drained = False
        # RUNNING jobs lost their worker with the process: the existing
        # crash path decides requeue-for-resume vs. poison-strike.
        for job_id in sorted(self.jobs):
            job = self.jobs[job_id]
            if job.state == JobState.RUNNING:
                self.requeue_after_crash(job)
                report["requeued_running"] += 1
        # CHECKPOINTED jobs were terminal only for the dead lifetime:
        # their checkpoints resume bit-identically, so put them back.
        for job_id in sorted(self.jobs):
            job = self.jobs[job_id]
            if job.state == JobState.CHECKPOINTED:
                self._commit(
                    "resumed",
                    self.clock.now(),
                    {"job_id": job.job_id, "heap_seq": self._next_seq},
                )
                self._count(
                    "serve.resumed_checkpointed", tenant=job.request.tenant
                )
                report["resumed_checkpointed"] += 1

    # -- the one transition applier ----------------------------------------------------

    def _commit(self, rtype: str, at: float, data: dict) -> None:
        """Apply one decided transition, then journal it (lock held).

        Apply first: the store compacts inside ``append``, and the
        snapshot it folds must already hold the record being appended.
        """
        self._apply(rtype, at, data, replay=False)
        if self.store is not None:
            self.store.append(rtype, data, at=at)
        job_id = data.get("job_id")
        if job_id is not None and self.on_job_change is not None:
            self.on_job_change(str(job_id))

    def _apply(
        self, rtype: str, at: float, data: dict, replay: bool
    ) -> str | None:
        """Apply one transition record — live through :meth:`_commit`,
        and for every journal record :meth:`_rebuild` replays.

        The only writer of job fields, tenant ledgers, strikes, rejection
        counts, the drain flags, and limiter tokens.  *replay* only forces
        the state move: a journaled record already happened, so replay
        never refuses it.  The state move comes first, so a refused live
        transition raises having written nothing.  A string return
        reports a replayed record that no longer applies.
        """
        if rtype == "rejected":
            code = str(data["code"])
            self.rejections[code] = self.rejections.get(code, 0) + 1
            tenant = data.get("tenant")
            if tenant is not None:
                account = self._account(tenant)
                limiter = self.admission.limiter
                if code == "rate_limited":
                    # Redo the refill the refused check made (a no-op live).
                    limiter.check(tenant, account.quota, at)
                elif code in CONSUMING_REJECTION_CODES:
                    limiter.consume(tenant, account.quota, at)
            return None
        if rtype == "submitted":
            request = JobRequest.from_payload(data["payload"])
            job = Job(
                job_id=str(data["job_id"]),
                request=request,
                submitted_at=at,
                deadline_at=data.get("deadline_at"),
                checkpoint_dir=data.get("checkpoint_dir"),
                events=[(JobState.QUEUED, at)],
            )
            self.jobs[job.job_id] = job
            account = self._account(request.tenant)
            account.jobs_submitted += 1
            self.admission.limiter.consume(request.tenant, account.quota, at)
            self._enqueue(job, account, int(data["heap_seq"]))
            return None
        if rtype == "drain":
            self.draining = True
            return None
        if rtype == "drained":
            self.drained = True
            return None
        if rtype == "recovered":
            return None
        job = self.jobs.get(str(data.get("job_id")))
        if job is None:
            return (
                f"references job {data.get('job_id')!r} whose submission "
                f"record was lost"
            )
        state = str(data["state"]) if rtype == "finished" else _MOVES.get(rtype)
        if state is None:
            return f"unknown record type {rtype!r}"
        # A resume moves a CHECKPOINTED job, terminal only for the
        # lifetime that checkpointed it.
        job.transition(state, at, force=replay or rtype == "resumed")
        account = self._account(job.request.tenant)
        if rtype == "claimed":
            job.worker = str(data["worker"])
            job.attempts = int(data["attempts"])
            job.started_at = data.get("started_at", at)
            job.effective_max_tokens = data.get("effective_max_tokens")
            job.budget_frozen = True
            account.queued -= 1
            account.running += 1
            return None
        if rtype == "expired":
            job.finished_at = at
            job.error = data.get("error")
            account.queued -= 1
            return None
        # The rest end an attempt (``resumed``: a checkpointed lifetime),
        # billing what it spent.
        job.worker = None
        if rtype != "resumed":
            account.running -= 1
        account.tokens_spent += int(data.get("tokens", 0))
        account.dollars_spent += float(data.get("dollars", 0.0))
        if job.state == JobState.QUEUED:
            job.resume = True
            job.finished_at = None
            self._enqueue(job, account, int(data["heap_seq"]))
            return None
        job.finished_at = at
        if rtype == "checkpointed":
            job.resume = True
            return None
        job.error = data.get("error")
        if rtype == "finished":
            job.result = data.get("result")
            if job.state == JobState.COMPLETED:
                account.jobs_completed += 1
        if rtype == "gave_up" or data.get("poison"):
            self._strike(job.request.spec_key())
        return None

    def _enqueue(self, job: Job, account: TenantAccount, seq: int) -> None:
        job.heap_seq = seq
        self._next_seq = max(self._next_seq, seq + 1)
        heapq.heappush(self._heap, (-job.request.priority, seq, job.job_id))
        account.queued += 1

    # -- internals ----------------------------------------------------------------------

    def _account(self, tenant: str) -> TenantAccount:
        account = self.accounts.get(tenant)
        if account is None:
            account = TenantAccount(
                tenant=tenant, quota=self.admission.quota_for(tenant)
            )
            self.accounts[tenant] = account
        return account

    def _count(self, name: str, **attrs) -> None:
        telemetry = current_telemetry()
        if telemetry.enabled:
            telemetry.count(name, **attrs)
