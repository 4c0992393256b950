"""Chaos campaigns: one kernel, and the pipeline under fault storms and kills.

The kernel every campaign runs through is three pieces:

* :class:`CampaignReport` — the report base (``seed``, ``runs``,
  ``intensity``, ``mismatches``, ``failures``); a scenario's report
  subclasses it with its own counters and ``ok`` bar, and ``to_dict`` /
  ``to_json`` serialize every field.
* :func:`run_campaign` — the one per-run loop: ``runner.plan(index)``
  draws everything run *index* needs from the campaign seed, then
  ``runner.one_run(plan, report)`` plays it out.  It validates the
  inputs, turns an escaping ``Exception`` into a recorded failure, and
  emits one ``chaos.run`` span with ``chaos.runs{scenario=}`` /
  ``chaos.failures{scenario=}`` counters.
* :func:`run_chaos_campaign` — the one entry point (CLI and CI), which
  picks the runner: :class:`ChaosRunner` for :data:`SCENARIOS`, or a
  service runner from :mod:`repro.serve.chaos` for
  :data:`SERVICE_SCENARIOS`.

:class:`ChaosRunner` drives ``SQLBarber.generate_workload`` end to end on
a small database while one of four deterministic disruptions plays out:

* ``storm`` — a transport-fault storm (timeouts, 429s, 5xx, truncation,
  garbage payloads) rages for the whole run.
* ``kill`` — the same storm, plus the process "dies" (an
  :class:`InjectedCrash` raised from the checkpoint save hook) right after
  its k-th checkpoint reaches disk; the run is then resumed and must
  fingerprint identically to an uninterrupted control run.
* ``budget`` — a hard token ceiling is set low enough to trip mid-run;
  the run must degrade into a partial-but-valid aborted result.
* ``engine`` — the faults move from the transport to the query engine: a
  seeded :class:`~repro.governor.EngineFaultModel` storm (slow operators,
  transient storage errors, spurious cancellations) plus tight governor
  limits, on a planted template pool containing a pathological cross join.
  The runaway template must end the run quarantined, the run must not
  abort, and — because the governor runs on a simulated clock and costs
  are ``actual_rows`` — two invocations must fingerprint identically.

The acceptance bar mirrors ``repro.fuzz``: a campaign's report is a pure
function of ``(seed, runs, intensity, scenario)`` — byte-identical JSON
across repeats, no timestamps, no filesystem paths — and a campaign
*passes* when every run either completed, aborted gracefully, or resumed
bit-identically after its kill.  A stack trace escaping the pipeline is a
failure.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.governor import EngineFaultModel
from repro.llm import SimulatedLLM, TransportFaultModel
from repro.obs import Telemetry, current as current_telemetry, use_telemetry

from .client import CircuitBreakerPolicy, ResilientLLMClient, RetryPolicy
from .clock import SimulatedClock

SCENARIOS = ("storm", "kill", "budget", "engine")
#: Campaigns against the job service, run by :mod:`repro.serve.chaos`.
SERVICE_SCENARIOS = ("serve", "restart")


class InjectedCrash(BaseException):
    """Simulated process death (raised from the checkpoint save hook).

    Deliberately *not* an :class:`Exception` subclass: nothing in the
    pipeline may catch it, exactly like a SIGKILL.
    """


@dataclass
class CampaignReport:
    """What every campaign report carries; scenarios add their counters.

    The report is CI's evidence, so every field must be a pure function
    of the campaign inputs: no timestamps, no paths.
    """

    #: The scenario a single-scenario report names in ``to_dict``; None
    #: for a mixed campaign, whose failures name each run's scenario.
    scenario: ClassVar[str | None] = None

    seed: int
    runs: int
    intensity: float
    mismatches: list = field(default_factory=list)  # twin/control differs
    failures: list = field(default_factory=list)  # unhandled exceptions

    @property
    def ok(self) -> bool:
        return not self.failures and not self.mismatches

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        if self.scenario is not None:
            out["scenario"] = self.scenario
        out["ok"] = self.ok
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


@dataclass
class ChaosReport(CampaignReport):
    """Deterministic summary of one pipeline chaos campaign."""

    database: str = ""
    scenarios: dict = field(default_factory=dict)  # scenario -> run count
    completed: int = 0
    aborted: int = 0
    kills_fired: int = 0
    resumed_identical: int = 0
    transport_faults_injected: int = 0
    retry_attempts: int = 0
    quarantines: int = 0
    engine_faults_injected: int = 0
    engine_runs_identical: int = 0
    scenario_filter: str | None = None


def run_campaign(runner, report: CampaignReport) -> CampaignReport:
    """The per-run loop every campaign shares; returns *report*, filled.

    *runner* supplies ``plan(index)`` — everything run *index* needs,
    drawn up front and naming its ``scenario`` — and ``one_run(plan,
    report)``, which plays the run out and tallies into *report*.  An
    ``Exception`` escaping a run is recorded as a failure, never a stack
    trace (simulated deaths are ``BaseException`` subclasses, which the
    runners catch themselves).
    """
    if report.runs < 1:
        raise ValueError(f"chaos runs must be >= 1, got {report.runs}")
    if not 0.0 <= report.intensity <= 1.0:
        raise ValueError(
            f"chaos intensity must be in [0, 1], got {report.intensity}"
        )
    telemetry = current_telemetry()
    with telemetry.span(
        "chaos.run",
        seed=report.seed,
        runs=report.runs,
        scenario=report.scenario,
    ):
        for index in range(report.runs):
            plan = runner.plan(index)
            try:
                runner.one_run(plan, report)
            except Exception as error:  # the bar: never a stack trace
                failure = {
                    "run": index,
                    "error": f"{type(error).__name__}: {error}",
                }
                if report.scenario is None:
                    failure["scenario"] = plan.scenario
                report.failures.append(failure)
                telemetry.count("chaos.failures", scenario=plan.scenario)
            telemetry.count("chaos.runs", scenario=plan.scenario)
    return report


@dataclass(frozen=True)
class _RunPlan:
    """Everything one chaos run needs, drawn up front so the control run,
    the killed run, and the resumed run all see identical knobs."""

    index: int
    scenario: str
    llm_seed: int
    barber_seed: int
    storm: TransportFaultModel
    kill_at_save: int
    max_tokens: int | None
    engine_faults: EngineFaultModel | None = None


class ChaosRunner:
    """Run a seeded chaos campaign over the standard fuzz database."""

    def __init__(
        self,
        seed: int = 0,
        runs: int = 30,
        intensity: float = 0.3,
        db=None,
        scenario: str | None = None,
    ):
        from repro.fuzz.runner import build_fuzz_database

        if scenario is not None and scenario not in SCENARIOS:
            raise ValueError(
                f"unknown chaos scenario {scenario!r}; pick one of {SCENARIOS}"
            )
        self.seed = seed
        self.runs = runs
        self.intensity = float(intensity)
        self.scenario = scenario
        self.db = db if db is not None else build_fuzz_database(seed)
        # Small but complete: two specs exercising joins, aggregation, and
        # ordering; 16 target queries across 4 intervals.
        from repro.workload import CostDistribution, TemplateSpec

        self.specs = [
            TemplateSpec(spec_id="chaos_a", num_joins=1, num_aggregations=1),
            TemplateSpec(spec_id="chaos_b", num_joins=0, require_order_by=True),
        ]
        self.distribution = CostDistribution.uniform(0.0, 200.0, 16, 4)

    # -- planning -----------------------------------------------------------------

    def plan(self, index: int) -> _RunPlan:
        rng = np.random.default_rng([self.seed, index])
        scenario = self.scenario or SCENARIOS[index % len(SCENARIOS)]
        # Split a bounded intensity across the five fault classes so retry
        # exhaustion stays rare; when it does happen, the run degrades
        # gracefully and both the control and resumed runs degrade alike.
        storm_intensity = float(rng.uniform(0.3, 1.0)) * self.intensity
        return _RunPlan(
            index=index,
            scenario=scenario,
            llm_seed=int(rng.integers(1, 2**31)),
            barber_seed=int(rng.integers(1, 2**31)),
            storm=TransportFaultModel.storm(storm_intensity),
            kill_at_save=int(rng.integers(1, 12)),
            max_tokens=int(rng.integers(2_000, 30_000)),
            # Drawn last so adding the engine storm did not shift any
            # pre-existing scenario's knobs for a given (seed, index).
            engine_faults=EngineFaultModel.storm(
                float(rng.uniform(0.3, 1.0)) * self.intensity
            ),
        )

    # -- one pipeline invocation ----------------------------------------------------

    def _make_barber(self, plan: _RunPlan, budgeted: bool):
        from repro.core import BarberConfig, SQLBarber

        inner = SimulatedLLM(seed=plan.llm_seed, transport_faults=plan.storm)
        client = ResilientLLMClient(
            inner,
            retry=RetryPolicy(max_attempts=6, base_delay_seconds=0.01),
            breaker=CircuitBreakerPolicy(failure_threshold=8),
            clock=SimulatedClock(),
            jitter_seed=plan.llm_seed + 1,
            max_tokens=plan.max_tokens if budgeted else None,
        )
        config = BarberConfig(
            seed=plan.barber_seed,
            checkpoint_every_templates=1,
            max_tokens=plan.max_tokens if budgeted else None,
        )
        return SQLBarber(self.db, llm=client, config=config)

    def _pipeline(
        self,
        plan: _RunPlan,
        checkpoint_dir: str | None = None,
        resume: bool = False,
        on_save=None,
        budgeted: bool = False,
    ):
        barber = self._make_barber(plan, budgeted)
        return barber.generate_workload(
            self.specs,
            self.distribution,
            # Isolated per pipeline run (fingerprints stay a pure function
            # of the plan), but progress events forward to the campaign's
            # trace so an uploaded JSONL shows what each run did.
            telemetry=Telemetry(subscribers=[current_telemetry().emit]),
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            on_checkpoint_save=on_save,
        )

    # -- the engine scenario --------------------------------------------------------

    def _engine_templates(self):
        """A planted pool: two healthy templates plus a runaway cross join.

        The cross product pre-admits ``|users| * |orders|`` rows at the
        first nested loop — over any sane row budget before a single row
        materializes — so the runaway must be quarantined every run.
        """
        from repro.workload import SqlTemplate

        return [
            SqlTemplate(
                template_id="engine_users",
                sql="SELECT * FROM users WHERE users.age > {age}",
            ),
            SqlTemplate(
                template_id="engine_orders",
                sql=(
                    "SELECT * FROM orders WHERE orders.amount > {amount} "
                    "ORDER BY orders.amount"
                ),
            ),
            SqlTemplate(
                template_id="engine_runaway",
                sql=(
                    "SELECT * FROM users, orders, items "
                    "WHERE users.age > {age}"
                ),
            ),
        ]

    def _engine_pipeline(self, plan: _RunPlan):
        """One governed run: simulated clock + tight limits + engine storm.

        ``actual_rows`` costs and the simulated clock make the whole run —
        including every governor trip and injected fault — a pure function
        of the plan, which is what lets the campaign demand bit-identical
        fingerprints from back-to-back invocations.
        """
        from repro.core import BarberConfig, SQLBarber
        from repro.workload import CostDistribution

        config = BarberConfig(
            seed=plan.barber_seed,
            query_timeout_seconds=2.0,
            governor_cost_per_row_seconds=1e-4,
            memory_budget_mb=8.0,
            row_budget=5_000,
            governor_clock="simulated",
            quarantine_after=2,
            engine_faults=plan.engine_faults,
        )
        barber = SQLBarber(
            self.db, llm=SimulatedLLM(seed=plan.llm_seed), config=config
        )
        distribution = CostDistribution.uniform(
            0.0, 700.0, 12, 4, cost_type="actual_rows"
        )
        return barber.generate_workload(
            self.specs,
            distribution,
            templates=self._engine_templates(),
            telemetry=Telemetry(subscribers=[current_telemetry().emit]),
        )

    # -- the campaign -----------------------------------------------------------------

    def run(self) -> ChaosReport:
        return run_campaign(
            self,
            ChaosReport(
                seed=self.seed,
                runs=self.runs,
                intensity=self.intensity,
                database=self.db.name,
                scenario_filter=self.scenario,
            ),
        )

    def one_run(self, plan: _RunPlan, report: ChaosReport) -> None:
        scenarios = report.scenarios
        scenarios[plan.scenario] = scenarios.get(plan.scenario, 0) + 1
        if plan.scenario == "storm":
            result = self._pipeline(plan)
            self._record_outcome(result, report)
        elif plan.scenario == "budget":
            result = self._pipeline(plan, budgeted=True)
            self._record_outcome(result, report)
            if result.aborted and not str(result.abort_reason).startswith(
                ("BudgetExhausted", "LLMRetryExhausted", "CircuitOpenError")
            ):
                report.failures.append(
                    {
                        "run": plan.index,
                        "scenario": plan.scenario,
                        "error": f"unexpected abort: {result.abort_reason}",
                    }
                )
            self._check_degraded_shape(plan, result, report)
        elif plan.scenario == "engine":
            self._engine_run(plan, report)
        else:  # kill
            self._kill_and_resume(plan, report)

    def _engine_run(self, plan: _RunPlan, report: ChaosReport) -> None:
        result = self._engine_pipeline(plan)
        self._record_outcome(result, report)
        if result.fingerprint_json() == self._engine_pipeline(plan).fingerprint_json():
            report.engine_runs_identical += 1
        else:
            report.mismatches.append(
                {"run": plan.index, "scenario": plan.scenario}
            )
        if not any(
            q.template_id == "engine_runaway" for q in result.quarantined
        ):
            report.failures.append(
                {
                    "run": plan.index,
                    "scenario": plan.scenario,
                    "error": "runaway cross join escaped quarantine",
                }
            )
        if result.aborted:
            report.failures.append(
                {
                    "run": plan.index,
                    "scenario": plan.scenario,
                    "error": f"engine run aborted: {result.abort_reason}",
                }
            )

    def _kill_and_resume(self, plan: _RunPlan, report: ChaosReport) -> None:
        control = self._pipeline(plan)
        workdir = tempfile.mkdtemp(prefix="repro-chaos-")
        try:
            fired = {"saves": 0, "killed": False}

            def killer(manager, payload) -> None:
                fired["saves"] += 1
                if fired["saves"] == plan.kill_at_save:
                    fired["killed"] = True
                    raise InjectedCrash(
                        f"injected crash after save #{fired['saves']}"
                    )

            try:
                outcome = self._pipeline(plan, checkpoint_dir=workdir, on_save=killer)
            except InjectedCrash:
                report.kills_fired += 1
                outcome = self._pipeline(
                    plan, checkpoint_dir=workdir, resume=True
                )
            self._record_outcome(outcome, report)
            if outcome.fingerprint_json() == control.fingerprint_json():
                report.resumed_identical += 1
            else:
                report.mismatches.append(
                    {
                        "run": plan.index,
                        "killed": fired["killed"],
                        "kill_at_save": plan.kill_at_save,
                    }
                )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def _record_outcome(self, result, report: ChaosReport) -> None:
        if result.aborted:
            report.aborted += 1
        else:
            report.completed += 1
        metrics = result.telemetry.metrics if result.telemetry else None
        if metrics is not None:
            report.transport_faults_injected += int(
                metrics.total("llm.transport.injected")
            )
            report.retry_attempts += int(metrics.total("llm.retry.attempts"))
            report.quarantines += int(metrics.total("governor.quarantines"))
            report.engine_faults_injected += int(
                metrics.total("governor.faults_injected")
            )

    def _check_degraded_shape(self, plan: _RunPlan, result, report) -> None:
        """An aborted run must still be a well-formed partial result."""
        from repro.core.barber import PIPELINE_STAGES

        problems = []
        if set(result.stage_seconds) != set(PIPELINE_STAGES):
            problems.append(f"stage_seconds incomplete: {sorted(result.stage_seconds)}")
        if result.aborted:
            if result.abort_stage not in PIPELINE_STAGES:
                problems.append(f"bad abort_stage: {result.abort_stage!r}")
            if result.complete:
                problems.append("aborted result claims complete")
            if result.search is not None:
                problems.append("aborted run still ran the search stage")
        for problem in problems:
            report.failures.append(
                {"run": plan.index, "scenario": plan.scenario, "error": problem}
            )


def run_chaos_campaign(
    seed: int = 0,
    runs: int = 30,
    intensity: float = 0.3,
    scenario: str | None = None,
    trace_path: str | None = None,
) -> CampaignReport:
    """Run one seeded campaign: the entry point of the CLI and CI smokes.

    *scenario* pins every run to one of :data:`SCENARIOS` instead of
    cycling through them all — the CI governor gate uses ``"engine"`` —
    or picks one of :data:`SERVICE_SCENARIOS`, which attack the job
    service (:mod:`repro.serve.chaos`) instead of a single pipeline run.
    With *trace_path* set, the campaign's telemetry (spans, events, the
    final metrics snapshot) is exported there as JSONL; the sink flushes
    per record, so even a crashed campaign leaves a readable trace.
    Raises :class:`ValueError` for an unknown scenario, ``runs < 1`` or
    an intensity outside ``[0, 1]``.
    """
    if scenario in SERVICE_SCENARIOS:
        from repro.serve import chaos as service

        runner_class = (
            service.ServeChaosRunner
            if scenario == "serve"
            else service.RestartChaosRunner
        )
        runner = runner_class(seed=seed, runs=runs, intensity=intensity)
    else:
        runner = ChaosRunner(
            seed=seed, runs=runs, intensity=intensity, scenario=scenario
        )
    sinks = []
    if trace_path is not None:
        from repro.obs import JsonlSink

        sinks.append(JsonlSink(trace_path))
    telemetry = Telemetry(sinks=sinks)
    try:
        with use_telemetry(telemetry):
            return runner.run()
    finally:
        telemetry.finish()
