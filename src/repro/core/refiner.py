"""Algorithm 2: cost-aware template refinement and pruning.

Two phases iterate over underrepresented cost intervals.  Phase 1 (τ1=0.2,
k1=3, m1=3) performs standard refinement for *missing* intervals; phase 2
(τ2=0.1, k2=5, m2=5) targets persistently *difficult* intervals and shows
the LLM the per-interval rewrite history so it can learn from failed
attempts in-context.  A refined template survives the pruning check (Eq. 4)
when it covers a target interval or reduces the overall Wasserstein gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.governor import QuarantineRecord
from repro.llm import LLMClient, PayloadJSON, extract_sql, refine_template_prompt
from repro.obs import current as current_telemetry
from repro.workload import CostDistribution, SqlTemplate, TemplateSpec, check_template
from .config import BarberConfig, RefinementPhase
from .profiler import TemplateProfile, TemplateProfiler


@dataclass
class RefinementResult:
    """Output of Algorithm 2."""

    profiles: list[TemplateProfile]
    accepted: list[SqlTemplate] = field(default_factory=list)
    pruned: int = 0
    refine_calls: int = 0
    # Refined candidates that tripped governor limits and were benched
    # (they are also pruned; the records preserve the why).
    quarantined: list[QuarantineRecord] = field(default_factory=list)


class TemplateRefiner:
    """Adapts a template pool to a target cost distribution."""

    def __init__(
        self,
        llm: LLMClient,
        profiler: TemplateProfiler,
        schema: dict | PayloadJSON,
        config: BarberConfig | None = None,
    ):
        """*schema* is every refinement payload's ``"schema"`` member: the
        schema summary, or its JSON text (``schema_json``)."""
        self.llm = llm
        self.profiler = profiler
        self.schema = schema
        self.config = config or BarberConfig()
        self._refined_counter = 0

    def refine(
        self,
        profiles: list[TemplateProfile],
        distribution: CostDistribution,
        profile_samples: int | None = None,
        specs_by_id: dict[str, TemplateSpec] | None = None,
        checkpoint=None,
        resume_state: dict | None = None,
    ) -> RefinementResult:
        """Run Algorithm 2, optionally checkpointing at iteration boundaries.

        *checkpoint*, when given, is called with a serialized working state
        after every completed iteration.  *resume_state* (a dict a previous
        run's checkpoint callback received) restores the pool, history, and
        (phase, iteration) position; the *profiles* argument is then ignored
        and the run continues bit-identically from where it stopped.
        """
        result = RefinementResult(profiles=list(profiles))
        if not self.config.enable_refinement:
            return result
        self._specs_by_id = specs_by_id or {}
        history: dict[int, list[dict]] = {}
        start_phase = start_iteration = 0
        if resume_state is not None:
            from repro.resilience.checkpoint import refinement_from_state

            result = refinement_from_state(resume_state, self.profiler)
            history = {
                int(j): [dict(e) for e in entries]
                for j, entries in resume_state["history"].items()
            }
            self._refined_counter = int(resume_state["refined_counter"])
            start_phase = int(resume_state["phase"])
            start_iteration = int(resume_state["iteration"])
        phases = self.config.refinement_phases
        for phase_index in range(start_phase, len(phases)):
            phase = phases[phase_index]
            first = start_iteration if phase_index == start_phase else 0
            for iteration in range(first, phase.iterations):
                low_intervals = self._low_coverage_intervals(
                    result.profiles, distribution, phase.coverage_threshold
                )
                if not low_intervals:
                    break
                new_profiles = self._refine_for_intervals(
                    low_intervals,
                    phase,
                    result,
                    distribution,
                    history,
                    profile_samples,
                )
                result.profiles.extend(new_profiles)
                if checkpoint is not None:
                    checkpoint(self._checkpoint_state(
                        result, history, phase_index, iteration + 1
                    ))
        return result

    def _checkpoint_state(
        self,
        result: RefinementResult,
        history: dict[int, list[dict]],
        phase: int,
        iteration: int,
    ) -> dict:
        from repro.resilience.checkpoint import refinement_to_state

        return refinement_to_state(
            result, history, phase, iteration, self._refined_counter
        )

    # -- coverage ---------------------------------------------------------------

    def _low_coverage_intervals(
        self,
        profiles: list[TemplateProfile],
        distribution: CostDistribution,
        threshold: float,
    ) -> list[int]:
        """Eq. 1 coverage, then the τ·d* cut (Line 6 of Algorithm 2)."""
        all_costs = [c for p in profiles for c in p.costs]
        coverage = distribution.coverage(all_costs)
        targets = np.asarray(distribution.target_counts, dtype=np.float64)
        # Coverage is measured on the profiling sample, so compare against
        # the target shape scaled to the sample size.
        total_target = targets.sum()
        if total_target <= 0:
            return []
        sample_scale = max(len(all_costs), 1) / total_target
        low = [
            j
            for j in range(distribution.num_intervals)
            if targets[j] > 0
            and coverage[j] < threshold * targets[j] * sample_scale
        ]
        return low

    # -- the RefineForIntervals function -----------------------------------------

    def _refine_for_intervals(
        self,
        intervals: list[int],
        phase: RefinementPhase,
        result: RefinementResult,
        distribution: CostDistribution,
        history: dict[int, list[dict]],
        profile_samples: int | None,
    ) -> list[TemplateProfile]:
        telemetry = current_telemetry()
        new_profiles: list[TemplateProfile] = []
        for j in intervals:
            low, high = distribution.interval_bounds(j)
            with telemetry.span(
                "refine.interval", interval=j, low=low, high=high,
                with_history=phase.use_history,
            ) as span:
                attempts = accepted = pruned_count = 0
                ranked = sorted(
                    (p for p in result.profiles if p.is_usable),
                    key=lambda p: p.closeness(
                        low, high, use_variety=self.config.use_variety_factor
                    ),
                    reverse=True,
                )
                for profile in ranked[: phase.templates_per_interval]:
                    interval_history = (
                        history.get(j) if phase.use_history else None
                    )
                    new_sql = self._llm_refine(
                        profile, (low, high), interval_history,
                        distribution.cost_type,
                    )
                    result.refine_calls += 1
                    attempts += 1
                    if not new_sql or (
                        new_sql.strip() == profile.template.sql.strip()
                    ):
                        continue
                    template = self._make_template(profile.template, new_sql)
                    new_profile = self.profiler.profile(template, profile_samples)
                    if new_profile.quarantined:
                        result.quarantined.append(
                            QuarantineRecord.from_profile(
                                new_profile, stage="refine"
                            )
                        )
                    pruned = self._prune(
                        new_profile, intervals, result, distribution
                    )
                    # Record every attempt — including pruned ones — so
                    # phase 2's in-context history steers the LLM away from
                    # rewrites that already failed to reach the interval.
                    history.setdefault(j, []).append(
                        {
                            "sql": template.sql,
                            "min_cost": new_profile.min_cost,
                            "max_cost": new_profile.max_cost,
                            "accepted": not pruned,
                        }
                    )
                    if pruned:
                        result.pruned += 1
                        pruned_count += 1
                        continue
                    new_profiles.append(new_profile)
                    result.accepted.append(template)
                    accepted += 1
                if telemetry.enabled:
                    span.set(
                        attempts=attempts, accepted=accepted,
                        pruned=pruned_count,
                    )
                    telemetry.count("refine.attempts", attempts)
                    telemetry.count("refine.accepted", accepted)
                    telemetry.count("refine.pruned", pruned_count)
        return new_profiles

    def _llm_refine(
        self,
        profile: TemplateProfile,
        interval: tuple[float, float],
        history: list[dict] | None,
        cost_type: str,
    ) -> str:
        payload = {
            "task": "refine_template",
            "schema": self.schema,
            "template": profile.template.sql,
            "target_interval": list(interval),
            "cost_summary": profile.cost_summary(),
            "history": history or [],
            "cost_type": cost_type,
        }
        prompt = refine_template_prompt(
            profile.template.sql,
            profile.cost_summary(),
            interval,
            history,
            payload,
        )
        response = self.llm.complete(prompt, task="refine_template")
        return extract_sql(response.text)

    def _make_template(self, parent: SqlTemplate, sql: str) -> SqlTemplate:
        self._refined_counter += 1
        return parent.with_sql(sql, f"{parent.template_id}_r{self._refined_counter}")

    # -- pruning (Eq. 4) ------------------------------------------------------------

    def _prune(
        self,
        new_profile: TemplateProfile,
        target_intervals: list[int],
        result: RefinementResult,
        distribution: CostDistribution,
    ) -> bool:
        """True if the refined template should be discarded."""
        if not new_profile.is_usable:
            return True
        if self.config.strict_spec_refinement:
            spec = getattr(self, "_specs_by_id", {}).get(
                new_profile.template.spec_id
            )
            if spec is not None:
                satisfied, _ = check_template(new_profile.template.sql, spec)
                if not satisfied:
                    return True
        # Keep if any observed cost lands in an underrepresented interval.
        for cost in new_profile.costs:
            interval = distribution.interval_of(cost)
            if interval is not None and interval in target_intervals:
                return False
        # Keep if it reduces the overall distribution distance.
        current_costs = [c for p in result.profiles for c in p.costs]
        before = distribution.wasserstein(current_costs)
        after = distribution.wasserstein(current_costs + new_profile.costs)
        if after < before:
            return False
        # Keep stepping stones: a variant that lands meaningfully closer to
        # an uncovered interval than its parent lets the next refinement
        # round compound transforms instead of restarting from the seed.
        parent = next(
            (
                p
                for p in result.profiles
                if p.template.template_id == new_profile.template.parent_id
            ),
            None,
        )
        if parent is not None and parent.is_usable:
            from .profiler import interval_distance

            for j in target_intervals:
                low, high = distribution.interval_bounds(j)
                new_gap = min(
                    interval_distance(c, low, high) for c in new_profile.costs
                )
                parent_gap = min(
                    interval_distance(c, low, high) for c in parent.costs
                )
                if new_gap < 0.7 * parent_gap:
                    return False
        return True
