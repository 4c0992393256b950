"""Template quarantine: three strikes and the template sits out the run.

A template whose queries keep tripping governor limits is a *pathological
template* — the LLM hallucinated a cross product, or a refinement drifted
into an unbounded join.  Crashing the run on it throws away every healthy
template's work; silently retrying it burns the whole time budget.  The
middle path, which the paper gets for free from PostgreSQL's statement
timeouts, is quarantine: after ``quarantine_after`` resource strikes the
template is excluded from profiling, refinement, and search, and the run
carries a record of who was benched and why.

:class:`TemplateGuard` is the per-template bookkeeping: it mints one fresh
:class:`~repro.governor.context.QueryGovernor` per query (a new deadline
per statement, like ``statement_timeout``) and accumulates strikes.  Being
per-template makes a template's quarantine decision independent of the
order in which templates are profiled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .context import GovernorLimits, QueryGovernor, clock_for


@dataclass
class QuarantineRecord:
    """Why one template was quarantined (rides on ``WorkloadResult``)."""

    template_id: str
    reason: str
    strikes: int
    # The placeholder bindings whose queries tripped a limit, in strike
    # order — the reproducer a human (or the LLM repair loop) needs.
    offending_bindings: list = field(default_factory=list)
    stage: str = "profile"

    def to_dict(self) -> dict:
        return {
            "template_id": self.template_id,
            "reason": self.reason,
            "strikes": self.strikes,
            "offending_bindings": [dict(b) for b in self.offending_bindings],
            "stage": self.stage,
        }

    @staticmethod
    def from_profile(profile, stage: str = "profile") -> "QuarantineRecord":
        """Lift the quarantine fields off a quarantined TemplateProfile."""
        return QuarantineRecord(
            template_id=profile.template.template_id,
            reason=profile.quarantine_reason or "resource limits exceeded",
            strikes=int(profile.resource_strikes),
            offending_bindings=list(profile.offending_bindings),
            stage=stage,
        )

    @staticmethod
    def from_dict(state: dict) -> "QuarantineRecord":
        return QuarantineRecord(
            template_id=state["template_id"],
            reason=state["reason"],
            strikes=int(state["strikes"]),
            offending_bindings=[dict(b) for b in state.get("offending_bindings", [])],
            stage=state.get("stage", "profile"),
        )


class TemplateGuard:
    """Per-template governor factory plus strike/quarantine bookkeeping."""

    def __init__(
        self,
        template_id: str,
        limits: GovernorLimits,
        clock_name: str = "system",
        quarantine_after: int = 3,
        faults=None,
        fault_rng=None,
    ):
        self.template_id = template_id
        self.limits = limits
        self.clock_name = clock_name
        self.quarantine_after = max(int(quarantine_after), 1)
        self.faults = faults
        self.fault_rng = fault_rng
        self.strikes = 0
        self.offending_bindings: list[dict] = []
        self.quarantined = False
        self.last_reason: str | None = None
        self.peak_bytes = 0

    def governor(self) -> QueryGovernor:
        """A fresh governor (fresh deadline) for one query of this template."""
        return QueryGovernor(
            self.limits,
            clock=clock_for(self.clock_name),
            faults=self.faults,
            fault_rng=self.fault_rng,
        )

    def observe(self, governor: QueryGovernor) -> None:
        """Fold one finished query's accounting into the template's."""
        if governor.peak_bytes > self.peak_bytes:
            self.peak_bytes = governor.peak_bytes

    def strike(self, error: Exception, bindings: dict) -> bool:
        """Record one resource strike; returns True once quarantined."""
        self.strikes += 1
        self.last_reason = f"{type(error).__name__}: {error}"
        self.offending_bindings.append(dict(bindings))
        if self.strikes >= self.quarantine_after:
            self.quarantined = True
        return self.quarantined

    def record(self, stage: str = "profile") -> QuarantineRecord:
        return QuarantineRecord(
            template_id=self.template_id,
            reason=self.last_reason or "resource limits exceeded",
            strikes=self.strikes,
            offending_bindings=list(self.offending_bindings),
            stage=stage,
        )
