"""Service chaos: the job service under worker kills and process restarts.

The pipeline campaigns (:mod:`repro.resilience.chaos`) attack one run;
the two scenarios here attack the *service*.  Both drive a seeded plan
of tenants and jobs through a real :class:`~repro.serve.core.ServeCore`
and :class:`~repro.serve.runner.JobRunner` — inline, single-threaded, on
a :class:`~repro.resilience.clock.SimulatedClock` — and share the job
plan, the payload builder, the submission tally, the kill-at-save
attempt and the uninterrupted-twin fingerprint.

``serve`` (:class:`ServeChaosRunner`) kills *workers* while four
disruption classes play out:

* **worker kills** — :class:`WorkerKilled` raised after a planned
  checkpoint save; the core requeues, the next claim resumes, and the
  resumed job's fingerprint must equal an uninterrupted twin's.
* **queue-full storms** — a submission burst past the bounded queue;
  every overflow must come back as an explicit 429 with a retry-after
  hint, never a silent drop.
* **deadline expiries** — slow (simulated) workers age the queue past
  some jobs' deadlines; those must be shed as EXPIRED at dispatch.
* **poisoned specs** — payloads that validate shallowly but
  deterministically fail in the worker; repeats must trip the spec
  quarantine and subsequent submissions must be rejected 422.

Some runs instead drain mid-campaign (kills and drain are separate runs —
the resumed-twin audit needs every killed job to actually resume),
proving queued work survives a shutdown as accountable state.  The
lost-job audit must come back empty after every run.

``restart`` (:class:`RestartChaosRunner`) kills the *process*.  The
campaign runs a durable core (journaling every transition through a
:class:`~repro.serve.store.JobStore`) while the store records the exact
on-disk journal size after every single append.  The sweep then
simulates SIGKILL at *every* one of those transition points by
materializing a copy of the state directory truncated to that point's
byte sizes — the precise bytes a dead process would have left — and
recovering a fresh core from it.  At every point:

* recovery never raises, and ``audit_lost_jobs()`` is empty;
* two independent recoveries of the same bytes produce **byte-identical**
  state snapshots (canonical JSON compared as strings);
* at selected points the recovered service is run to completion and
  every completed job's fingerprint must equal the uninterrupted
  baseline's (or, for jobs the baseline never finished — e.g. drain
  checkpoints — an uninterrupted twin run's);
* at the final point, recovering the *recovered* directory again must
  reproduce the same state (recovery is idempotent), and a campaign that
  ended in a graceful drain must be reported as a clean shutdown.

A second phase feeds each run's journal to the seeded
:class:`~repro.serve.store.StoreFaultModel` — torn tail, truncated
segment, bit flip — and asserts recovery still completes with the damage
quarantined into the machine-readable report, never a crash or a silent
drop.

Both scenarios run through :func:`repro.resilience.chaos.run_campaign`,
so each report is a pure function of ``(seed, runs, intensity)``: no
timestamps, no paths — byte-identical JSON across invocations, which is
what the CI smokes ``cmp``.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from repro.resilience.chaos import CampaignReport, run_campaign
from repro.resilience.clock import SimulatedClock
from repro.resilience.records import canonical_json

from .admission import TenantQuota
from .core import ServeConfig, ServeCore
from .jobs import Job, JobState
from .runner import DrainRequested, JobOutcome, JobRunner, WorkerKilled
from .store import StoreFaultModel

#: Spec shapes rotated across jobs (aliases exercised on purpose).
_SPEC_SHAPES = (
    {"num_joins": 1, "num_aggregations": 1},
    {"num_joins": 0, "order_by": True},
    {"num_tables": 2},
)

_TENANTS = ("acme", "globex", "initech")


@dataclass
class ServeChaosReport(CampaignReport):
    """Deterministic summary of one serve chaos campaign."""

    scenario: ClassVar[str] = "serve"

    submitted: int = 0
    accepted: int = 0
    rejections: dict = field(default_factory=dict)  # code -> count
    completed: int = 0
    failed: int = 0
    expired: int = 0
    queued_at_drain: int = 0
    kills_fired: int = 0
    resumed_identical: int = 0
    poisoned: int = 0
    quarantined_specs: int = 0
    quarantine_rejections: int = 0
    drained_runs: int = 0
    lost_jobs: list = field(default_factory=list)

    @property
    def aborted(self) -> int:
        """Jobs that ended in a non-completed terminal state (failed or
        expired) — explicit outcomes, not losses."""
        return self.failed + self.expired

    @property
    def ok(self) -> bool:
        return (
            super().ok
            and not self.lost_jobs
            and self.kills_fired == self.resumed_identical
        )


@dataclass
class RestartChaosReport(CampaignReport):
    """Deterministic summary of one restart chaos campaign."""

    scenario: ClassVar[str] = "restart"

    submitted: int = 0
    accepted: int = 0
    rejections: dict = field(default_factory=dict)  # code -> count
    sweep_points: int = 0
    recovery_pairs: int = 0
    pairs_identical: int = 0
    idempotent_recoveries: int = 0
    clean_shutdowns: int = 0
    completions_checked: int = 0
    fingerprints_identical: int = 0
    resumed_from_checkpoint: int = 0
    faults: dict = field(default_factory=dict)  # kind -> counts
    lost_jobs: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            super().ok
            and not self.lost_jobs
            and self.sweep_points > 0
            and self.pairs_identical == self.recovery_pairs
            and self.fingerprints_identical == self.completions_checked
        )


# -- the shared plan and job mechanics ------------------------------------------------


@dataclass(frozen=True)
class _JobPlan:
    tenant: str
    priority: int
    seed: int
    shape: int
    poison: bool
    kill_at_save: int | None
    deadline_seconds: float | None
    service_seconds: float  # simulated wall time one execution "takes"


@dataclass(frozen=True)
class _RunPlan:
    scenario: str
    index: int
    max_queue_depth: int
    jobs: tuple
    storm_extra: int  # extra submissions past capacity in the burst
    drain_after: int | None  # executions before a drain, or None


def _draw_job(
    rng,
    *,
    poison: bool,
    kill_at_save: int | None,
    deadline_seconds: float | None,
    max_service_seconds: float,
) -> _JobPlan:
    """The draws every job plan ends with, in their fixed order."""
    return _JobPlan(
        tenant=_TENANTS[int(rng.integers(0, len(_TENANTS)))],
        priority=int(rng.integers(0, 10)),
        seed=int(rng.integers(1, 2**16)),
        shape=int(rng.integers(0, len(_SPEC_SHAPES))),
        poison=poison,
        kill_at_save=kill_at_save,
        deadline_seconds=deadline_seconds,
        service_seconds=float(rng.uniform(0.2, max_service_seconds)),
    )


def _payload(plan: _JobPlan) -> dict:
    payload = {
        "tenant": plan.tenant,
        "priority": plan.priority,
        "seed": plan.seed,
        "specs": [dict(_SPEC_SHAPES[plan.shape])],
        "queries": 8,
        "intervals": 2,
    }
    if plan.poison:
        # Shallow validation passes; distribution construction in the
        # worker fails deterministically.
        payload["cost_min"] = 500.0
        payload["cost_max"] = 100.0
    if plan.deadline_seconds is not None:
        payload["deadline_seconds"] = plan.deadline_seconds
    return payload


def _config(plan: _RunPlan, checkpoint_root: str, **restart) -> ServeConfig:
    """The service both scenarios attack; *restart* adds the restart
    scenario's journal and rate-limit settings."""
    return ServeConfig(
        workers=2,
        max_queue_depth=plan.max_queue_depth,
        # Generous tenant quotas: the storms target the *global* queue;
        # tenant-quota math has its own unit coverage.
        default_quota=TenantQuota(max_concurrent_jobs=2, max_queued_jobs=32),
        poison_quarantine_after=2,
        checkpoint_root=checkpoint_root,
        **restart,
    )


def _submit(
    core, job_plan: _JobPlan, report, run_index: int
) -> tuple[int, dict]:
    """Submit one planned job and tally its explicit answer.

    Returns ``(status, body)``.  A full-queue 429 without a retry-after
    hint is a failure.
    """
    report.submitted += 1
    status, body = core.submit(_payload(job_plan))
    if status == 202:
        report.accepted += 1
        return status, body
    code = body.get("code", body.get("error", "unknown"))
    report.rejections[code] = report.rejections.get(code, 0) + 1
    if (
        status == 429
        and code in ("queue_full", "tenant_queue_full")
        and body.get("retry_after_seconds") is None
    ):
        report.failures.append(
            {"run": run_index, "error": f"429 {code} without retry-after"}
        )
    return status, body


def _submit_storm(plan: _RunPlan, core, report) -> dict:
    """The full burst up front: every planned job, then ``storm_extra``
    resubmissions of the first ones past queue capacity.  Returns the
    accepted jobs' plans by job id."""
    burst = list(plan.jobs) + [
        plan.jobs[extra % len(plan.jobs)] for extra in range(plan.storm_extra)
    ]
    job_plans = {}
    for job_plan in burst:
        status, body = _submit(core, job_plan, report, plan.index)
        if status == 202:
            job_plans[body["job_id"]] = job_plan
    return job_plans


def _attempt(core, job: Job, job_plan: _JobPlan | None) -> JobOutcome | None:
    """One inline execution attempt, recorded on *core*; the first one dies
    right after the plan's kill-at-save checkpoint.  None when that kill
    fired (the job is then requeued for resume)."""
    kill_at = (
        job_plan.kill_at_save
        if job_plan is not None and job.attempts == 1
        else None
    )

    def on_point(point: str) -> None:
        if kill_at is not None and point == f"checkpoint_save:{kill_at}":
            raise WorkerKilled(f"chaos kill at {point}")

    return JobRunner(clock=core.clock, on_point=on_point).attempt(core, job)


def _twin_fingerprint(job: Job, max_tokens: int | None, twins: dict) -> str:
    """The same request run uninterrupted (no checkpoint dir, fresh clock —
    nothing about the service's history may leak in).

    Cached in *twins* by the whole request — its tenant names the specs —
    and the token ceiling, since storm payloads repeat.
    """
    key = (canonical_json(job.request.to_payload()), max_tokens)
    if key not in twins:
        twin = Job(job_id=f"{job.job_id}-twin", request=job.request)
        outcome = JobRunner(clock=SimulatedClock()).run(
            twin, max_tokens=max_tokens
        )
        twins[key] = (
            outcome.result["fingerprint"]
            if outcome.result and not outcome.error
            else f"twin-failed: {outcome.error}"
        )
    return twins[key]


# -- serve: worker kills, storms, deadlines, poison -----------------------------------


class ServeChaosRunner:
    """Drive seeded storms through a real core + runner, inline.

    Inline and single-threaded on purpose: the worker-thread plumbing has
    its own tests; chaos wants a deterministic interleaving so two runs
    with the same seed produce byte-identical reports.
    """

    def __init__(self, seed: int = 0, runs: int = 4, intensity: float = 0.3):
        self.seed = seed
        self.runs = runs
        self.intensity = float(intensity)

    def run(self) -> ServeChaosReport:
        return run_campaign(
            self,
            ServeChaosReport(
                seed=self.seed, runs=self.runs, intensity=self.intensity
            ),
        )

    def plan(self, index: int) -> _RunPlan:
        rng = np.random.default_rng([self.seed, index])
        num_jobs = int(rng.integers(5, 9))
        drain_after = (
            int(rng.integers(1, max(num_jobs // 2, 2)))
            if rng.random() < 0.25
            else None
        )
        jobs = []
        for _ in range(num_jobs):
            poison = bool(rng.random() < 0.15 * (1 + self.intensity))
            # Kills only in non-drain runs: a drain truncates execution,
            # and the audit demands every fired kill leads to a verified
            # resume.  The rng draw happens regardless so the rest of the
            # plan is unaffected by the drain coin-flip.
            kill_drawn = (
                int(rng.integers(1, 8))
                if (not poison and rng.random() < 0.35)
                else None
            )
            # Kills and deadlines are mutually exclusive per job: the
            # resumed-twin comparison needs a deadline-free execution.
            deadline = (
                float(rng.uniform(0.5, 4.0))
                if (kill_drawn is None and not poison and rng.random() < 0.3)
                else None
            )
            jobs.append(
                _draw_job(
                    rng,
                    poison=poison,
                    kill_at_save=kill_drawn if drain_after is None else None,
                    deadline_seconds=deadline,
                    max_service_seconds=1.5,
                )
            )
        return _RunPlan(
            scenario="serve",
            index=index,
            max_queue_depth=int(rng.integers(4, 8)),
            jobs=tuple(jobs),
            storm_extra=int(rng.integers(3, 7)),
            drain_after=drain_after,
        )

    def one_run(self, plan: _RunPlan, report: ServeChaosReport) -> None:
        workdir = tempfile.mkdtemp(prefix="repro-serve-chaos-")
        core = ServeCore(_config(plan, workdir), clock=SimulatedClock())
        try:
            job_plans = _submit_storm(plan, core, report)
            self._execute_all(plan, core, report, job_plans)
            self._poison_aftermath(plan, core, report)
            report.lost_jobs.extend(
                f"run{plan.index}:{job_id}" for job_id in core.audit_lost_jobs()
            )
            report.quarantined_specs += len(core.quarantined_specs)
            for job in core.jobs.values():
                if job.state == JobState.COMPLETED:
                    report.completed += 1
                elif job.state == JobState.FAILED:
                    report.failed += 1
                    if "poisoned spec" in (job.error or ""):
                        report.poisoned += 1
                elif job.state == JobState.EXPIRED:
                    report.expired += 1
                elif job.state == JobState.QUEUED:
                    report.queued_at_drain += 1
                elif job.state == JobState.RUNNING:
                    report.failures.append(
                        {
                            "run": plan.index,
                            "error": f"{job.job_id} still RUNNING at audit",
                        }
                    )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def _execute_all(self, plan, core, report, job_plans) -> None:
        """Inline worker loop: claim → attempt (maybe killed), slow
        workers aging the queue between executions."""
        twins: dict = {}
        executions = 0
        while (job := core.claim("chaos-worker")) is not None:
            job_plan = job_plans.get(job.job_id)
            resumed = job.resume
            outcome = _attempt(core, job, job_plan)
            if outcome is None:
                report.kills_fired += 1
            elif resumed and not outcome.error:
                # The job survived a kill: its fingerprint must match an
                # uninterrupted twin run under identical knobs.
                twin = _twin_fingerprint(job, job.effective_max_tokens, twins)
                if twin == outcome.result["fingerprint"]:
                    report.resumed_identical += 1
                else:
                    report.mismatches.append(
                        {"run": plan.index, "job": job.job_id}
                    )
            executions += 1
            # Slow worker: the queue ages while this job "ran".
            core.clock.advance(
                job_plan.service_seconds if job_plan is not None else 0.5
            )
            if executions == plan.drain_after:
                core.drain()
                report.drained_runs += 1
                # Post-drain submissions must be explicitly refused.
                status, _body = _submit(core, plan.jobs[0], report, plan.index)
                if status != 503:
                    report.failures.append(
                        {
                            "run": plan.index,
                            "error": f"drain admitted a job (status {status})",
                        }
                    )
                # Workers stop claiming: queued jobs stay queued — still
                # accountable, which the post-run audit verifies.
                break

    def _poison_aftermath(self, plan, core, report) -> None:
        """Resubmit every poisoned payload: quarantined specs must now be
        refused at admission with 422."""
        if core.draining:
            return  # drain rejections already proven above
        for job_plan in plan.jobs:
            if not job_plan.poison:
                continue
            status, body = _submit(core, job_plan, report, plan.index)
            if status == 202:
                # Not yet quarantined (fewer strikes than the threshold) —
                # legitimate; run the job out so the audit stays clean.
                while (claimed := core.claim("chaos-worker")) is not None:
                    JobRunner(clock=core.clock).attempt(core, claimed)
            elif body.get("code") == "spec_quarantined":
                report.quarantine_rejections += 1


# -- restart: kill the whole service at every journaled transition --------------------


class RestartChaosRunner:
    """Kill-the-whole-service sweep over a seeded durable campaign."""

    #: Run the recovered service to completion at every Nth sweep point
    #: (plus always the final one) — full re-execution at every point
    #: would re-run the pipeline hundreds of times for no extra coverage.
    FULL_RECOVERY_STRIDE = 9

    def __init__(self, seed: int = 0, runs: int = 3, intensity: float = 0.3):
        self.seed = seed
        self.runs = runs
        self.intensity = float(intensity)

    def run(self) -> RestartChaosReport:
        return run_campaign(
            self,
            RestartChaosReport(
                seed=self.seed, runs=self.runs, intensity=self.intensity
            ),
        )

    def plan(self, index: int) -> _RunPlan:
        rng = np.random.default_rng([self.seed, 0xBE57A27, index])
        num_jobs = int(rng.integers(4, 8))
        drain_after = (
            int(rng.integers(1, max(num_jobs // 2, 2)))
            if rng.random() < 0.5
            else None
        )
        jobs = []
        for _ in range(num_jobs):
            poison = bool(rng.random() < 0.15 * (1 + self.intensity))
            kill = (
                int(rng.integers(1, 5))
                if (not poison and rng.random() < 0.3 * (1 + self.intensity))
                else None
            )
            jobs.append(
                _draw_job(
                    rng,
                    poison=poison,
                    kill_at_save=kill,
                    deadline_seconds=None,
                    max_service_seconds=1.0,
                )
            )
        return _RunPlan(
            scenario="restart",
            index=index,
            max_queue_depth=int(rng.integers(5, 9)),
            jobs=tuple(jobs),
            storm_extra=int(rng.integers(2, 5)),
            drain_after=drain_after,
        )

    def _config(
        self, plan: _RunPlan, state_dir: str, checkpoint_root: str
    ) -> ServeConfig:
        return _config(
            plan,
            checkpoint_root,
            quotas={
                # One tenant runs rate-limited so the journal carries
                # rate_limited rejections and live bucket state — both
                # must survive recovery like everything else.
                _TENANTS[0]: TenantQuota(
                    max_concurrent_jobs=2,
                    max_queued_jobs=32,
                    requests_per_window=4,
                    window_seconds=30.0,
                ),
            },
            state_dir=state_dir,
            journal_fsync="off",  # same-process file reads; speed
            segment_max_records=6,  # force rotation + seals into the sweep
            compact_after_segments=0,  # keep every segment: the sweep
            # truncates them to reconstruct each transition point
        )

    def one_run(self, plan: _RunPlan, report: RestartChaosReport) -> None:
        scratch = Path(tempfile.mkdtemp(prefix="repro-restart-chaos-"))
        try:
            state_dir = scratch / "state"
            checkpoint_root = str(scratch / "checkpoints")
            baseline, append_log, drained = self._run_baseline(
                plan, str(state_dir), checkpoint_root, report
            )
            twins: dict = {}
            for point, sizes in enumerate(append_log):
                final = point == len(append_log) - 1
                copies = [scratch / f"p{point}-a", scratch / f"p{point}-b"]
                for copy in copies:
                    self._materialize(state_dir, sizes, copy)
                try:
                    self._sweep_point(
                        plan,
                        copies,
                        checkpoint_root,
                        baseline,
                        report,
                        twins,
                        point=point,
                        full=final or point % self.FULL_RECOVERY_STRIDE == 0,
                        final=final,
                        drained=drained,
                    )
                finally:
                    for copy in copies:
                        shutil.rmtree(copy, ignore_errors=True)
                report.sweep_points += 1
            self._fault_phase(
                plan, state_dir, checkpoint_root, report, scratch
            )
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    # -- the baseline campaign ----------------------------------------------------------

    def _run_baseline(
        self, plan: _RunPlan, state_dir: str, checkpoint_root: str, report
    ) -> tuple[dict, list, bool]:
        """Drive the campaign to its natural end, journaling everything.

        Returns ``(baseline, append_log, drained)`` — per-job plans and
        uninterrupted fingerprints, the per-append byte-size log the
        sweep truncates to, and whether the run ended in a graceful drain.
        """
        config = self._config(plan, state_dir, checkpoint_root)
        store = ServeCore.open_store(config, track_appends=True)
        core = ServeCore(config, clock=SimulatedClock(), store=store)
        baseline: dict = {
            "fingerprints": {},
            "job_plans": _submit_storm(plan, core, report),
        }
        drained = False
        executions = 0
        while (job := core.claim("restart-worker")) is not None:
            job_plan = baseline["job_plans"].get(job.job_id)
            _attempt(core, job, job_plan)
            if job.state == JobState.COMPLETED and job.result:
                baseline["fingerprints"][job.job_id] = job.result["fingerprint"]
            executions += 1
            core.clock.advance(
                job_plan.service_seconds if job_plan is not None else 0.5
            )
            if executions == plan.drain_after:
                core.drain()
                _submit(core, plan.jobs[0], report, plan.index)
                self._drain_checkpoint_one(core)
                core.mark_drained()
                drained = True
                break
        core.close()
        return baseline, list(store.append_log), drained

    @staticmethod
    def _drain_checkpoint_one(core) -> None:
        """Mimic one worker checkpointing out under drain, so drained
        journals carry a CHECKPOINTED job for recovery to resume."""
        job = core.claim("restart-worker")
        if job is None:
            return

        def on_point(point: str) -> None:
            if point.startswith("checkpoint_save:"):
                raise DrainRequested(f"drain at {point}")

        JobRunner(clock=core.clock, on_point=on_point).attempt(core, job)

    # -- the sweep ----------------------------------------------------------------------

    @staticmethod
    def _materialize(source: Path, sizes: dict, dest: Path) -> None:
        """The exact on-disk bytes at one transition point: every segment
        that existed then, truncated to its recorded size."""
        dest.mkdir(parents=True, exist_ok=True)
        for name, size in sizes.items():
            data = (source / name).read_bytes()[:size]
            (dest / name).write_bytes(data)

    def _recover(self, plan: _RunPlan, state_dir: str, checkpoint_root: str):
        config = self._config(plan, str(state_dir), checkpoint_root)
        return ServeCore.recover(config, clock=SimulatedClock())

    def _sweep_point(
        self,
        plan: _RunPlan,
        copies: list,
        checkpoint_root: str,
        baseline: dict,
        report: RestartChaosReport,
        twins: dict,
        *,
        point: int,
        full: bool,
        final: bool,
        drained: bool,
    ) -> None:
        where = f"run{plan.index}:point{point}"
        cores = [
            self._recover(plan, copy, checkpoint_root) for copy in copies
        ]
        try:
            lost = cores[0].audit_lost_jobs()
            if lost:
                report.lost_jobs.append({"where": where, "jobs": lost})
            snapshots = [
                canonical_json(core.state_snapshot()) for core in cores
            ]
            report.recovery_pairs += 1
            if snapshots[0] == snapshots[1]:
                report.pairs_identical += 1
            else:
                report.mismatches.append(
                    {"where": where, "what": "recovery pair differs"}
                )
            if final and drained:
                if cores[0].recovery.get("clean_shutdown"):
                    report.clean_shutdowns += 1
                else:
                    report.failures.append(
                        {
                            "where": where,
                            "error": "drained journal not seen as clean",
                        }
                    )
            if full:
                self._run_to_completion(
                    cores[0], baseline, report, twins, where
                )
            if final:
                # Recovering a recovered directory must change nothing: the
                # fix-up records the first recovery journaled replay to the
                # same state.
                cores[1].close()  # idempotent; frees the dir lock for re-entry
                cores.append(self._recover(plan, copies[1], checkpoint_root))
                if canonical_json(cores[2].state_snapshot()) == snapshots[1]:
                    report.idempotent_recoveries += 1
                else:
                    report.mismatches.append(
                        {"where": where, "what": "second recovery diverged"}
                    )
        finally:
            for core in cores:
                core.close()

    def _run_to_completion(
        self, core, baseline, report, twins, where: str
    ) -> None:
        """Finish everything the recovered service still owes, then hold
        each completion's fingerprint against the uninterrupted truth."""
        while (job := core.claim("recovered-worker")) is not None:
            resumed = job.resume
            _attempt(core, job, baseline["job_plans"].get(job.job_id))
            if job.state != JobState.COMPLETED or not job.result:
                continue  # a planned kill replays identically post-recovery
            if resumed:
                report.resumed_from_checkpoint += 1
            report.completions_checked += 1
            expected = baseline["fingerprints"].get(
                job.job_id
            ) or _twin_fingerprint(job, job.effective_max_tokens, twins)
            if job.result["fingerprint"] == expected:
                report.fingerprints_identical += 1
            else:
                report.mismatches.append(
                    {
                        "where": where,
                        "what": f"{job.job_id} fingerprint diverged",
                    }
                )
        lost = core.audit_lost_jobs()
        if lost:
            report.lost_jobs.append({"where": f"{where}:done", "jobs": lost})

    # -- fault injection ----------------------------------------------------------------

    def _fault_phase(
        self,
        plan: _RunPlan,
        state_dir: Path,
        checkpoint_root: str,
        report: RestartChaosReport,
        scratch: Path,
    ) -> None:
        faults = StoreFaultModel(seed=self.seed * 1000 + plan.index)
        for kind in StoreFaultModel.KINDS:
            counts = report.faults.setdefault(
                kind, {"attempted": 0, "injected": 0, "quarantined": 0}
            )
            counts["attempted"] += 1
            copy = scratch / f"fault-{plan.index}-{kind}"
            shutil.copytree(state_dir, copy)
            try:
                injected = getattr(faults, kind)(copy)
                if injected is None:
                    continue
                counts["injected"] += 1
                try:
                    core = self._recover(plan, copy, checkpoint_root)
                except Exception as error:
                    report.failures.append(
                        {
                            "where": f"run{plan.index}:fault:{kind}",
                            "error": (
                                f"recovery raised {type(error).__name__}: "
                                f"{error}"
                            ),
                        }
                    )
                    continue
                try:
                    if core.recovery and core.recovery.get("quarantined"):
                        counts["quarantined"] += 1
                    lost = core.audit_lost_jobs()
                    if lost:
                        report.lost_jobs.append(
                            {
                                "where": f"run{plan.index}:fault:{kind}",
                                "jobs": lost,
                            }
                        )
                finally:
                    core.close()
            finally:
                shutil.rmtree(copy, ignore_errors=True)
