"""Section 5.1: template profiling via strategic (Latin Hypercube) sampling.

Profiling instantiates each template with LHS-distributed predicate values,
evaluates the resulting queries on the engine, and records the observed
costs.  The profile answers two questions the paper poses: which cost ranges
can this template reach, and which templates are worth searching for a given
interval (via the closeness score of Eq. 2).
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.bo import (
    CategoricalParameter,
    Config,
    ConfigSpace,
    FloatParameter,
    IntegerParameter,
    lhs_configs,
)
from repro.governor import (
    GOVERNOR_SEED_OFFSET,
    GovernorLimits,
    TemplateGuard,
    use_governor,
)
from repro.obs import current as current_telemetry
from repro.sqldb import (
    Database,
    ResourceExceeded,
    SqlError,
    TransientStorageError,
)
from repro.sqldb.types import SqlType
from repro.workload import SqlTemplate, infer_placeholder_bindings
from .config import BarberConfig

_SPACE_SIZE_CAP = 1e15


def interval_distance(cost: float, low: float, high: float) -> float:
    """Eq. 3's dist(): 0 inside [low, high], else the gap to the interval."""
    if low <= cost <= high:
        return 0.0
    if cost < low:
        return low - cost
    return cost - high


@dataclass
class TemplateProfile:
    """Observed cost behaviour of one template (the paper's P entry)."""

    template: SqlTemplate
    space: ConfigSpace
    observations: list[tuple[Config, float]] = field(default_factory=list)
    errors: int = 0
    # -- resource governance (repro.governor) -------------------------------
    quarantined: bool = False
    resource_strikes: int = 0
    quarantine_reason: str | None = None
    offending_bindings: list = field(default_factory=list)
    peak_bytes: int = 0

    @property
    def costs(self) -> list[float]:
        return [cost for _, cost in self.observations]

    @property
    def is_usable(self) -> bool:
        # A quarantined template is benched even if some samples succeeded:
        # refinement/search would keep re-running its pathological queries.
        return bool(self.observations) and not self.quarantined

    @property
    def min_cost(self) -> float:
        return min(self.costs) if self.observations else 0.0

    @property
    def max_cost(self) -> float:
        return max(self.costs) if self.observations else 0.0

    @property
    def mean_cost(self) -> float:
        return float(np.mean(self.costs)) if self.observations else 0.0

    @property
    def variety(self) -> float:
        """Eq. 2's v_i: distinct-cost ratio, penalizing flat templates."""
        if not self.observations:
            return 0.0
        costs = self.costs
        return len(set(costs)) / len(costs)

    def add(self, config: Config, cost: float) -> None:
        self.observations.append((dict(config), float(cost)))

    def closeness(self, low: float, high: float, use_variety: bool = True) -> float:
        """Eq. 2: s_ij = v_i / (1 + mean distance to the interval).

        ``use_variety=False`` drops the v_i term (the ablation of the
        diversity penalty).
        """
        if not self.observations:
            return 0.0
        mean_distance = float(
            np.mean([interval_distance(c, low, high) for c in self.costs])
        )
        proximity = 1.0 / (1.0 + mean_distance)
        return proximity * self.variety if use_variety else proximity

    def space_size(self) -> float:
        """|search space| with continuous dimensions capped (the R entry)."""
        return min(self.space.cardinality(), _SPACE_SIZE_CAP)

    def remaining_space(self) -> float:
        return max(self.space_size() - len(self.observations), 0.0)

    def cost_summary(self) -> dict:
        return {
            "min": self.min_cost,
            "max": self.max_cost,
            "mean": self.mean_cost,
            "count": len(self.observations),
        }


class TemplateProfiler:
    """Builds search spaces and profiles templates on the target database."""

    def __init__(
        self,
        db: Database,
        config: BarberConfig | None = None,
        cost_metric="plan_cost",
    ):
        """*cost_metric* is one of the built-in names — ``plan_cost``,
        ``cardinality``, ``execution_time`` (mapped to plan cost, as in the
        paper's Section 6.1), ``measured_time`` — or any user-supplied
        callable ``(sql, db) -> float`` implementing Definition 2.10's
        "user-defined" cost type."""
        self.db = db
        self.config = config or BarberConfig()
        self._custom_metric = cost_metric if callable(cost_metric) else None
        if self._custom_metric is not None:
            cost_metric = getattr(cost_metric, "__name__", "custom")
        elif cost_metric == "execution_time":
            # The paper (Section 6.1) targets execution-time distributions
            # through the optimizer's plan cost estimate via EXPLAIN.
            cost_metric = "plan_cost"
        elif cost_metric not in (
            "plan_cost",
            "cardinality",
            "measured_time",
            "actual_rows",
        ):
            raise ValueError(f"unknown cost metric {cost_metric!r}")
        self.cost_metric = cost_metric
        # Compiled fast paths by (text, placeholders, literal types), as
        # refinement re-proposes texts (see _compile), and each template
        # id's entry, so the per-binding lookup hashes no placeholders.
        # None pins a text that does not compile to the cold path.
        self._compiled: dict[tuple, object | None] = {}
        self._compiled_by_id: dict[str, object | None] = {}

    def _template_rng(self, template: SqlTemplate) -> np.random.Generator:
        """A private RNG per template, independent of profiling order.

        Seeding from (config seed, template id) makes each template's sample
        stream a pure function of the template, so a profile does not depend
        on which templates were profiled before it, and the profile stage
        can checkpoint between any two templates.
        """
        return np.random.default_rng(
            [self.config.seed + 17, zlib.crc32(template.template_id.encode())]
        )

    # -- search space construction ------------------------------------------------

    def build_space(self, template: SqlTemplate) -> ConfigSpace:
        """One BO dimension per placeholder, derived from column stats."""
        if not template.placeholders:
            template.placeholders = infer_placeholder_bindings(
                template.parse(), self.db.catalog
            )
        space = ConfigSpace()
        low_default, high_default = self.config.unbound_placeholder_range
        for info in template.placeholders:
            if info.table is None or info.column is None:
                space.add(IntegerParameter(info.name, low_default, high_default))
                continue
            stats = self.db.catalog.column_stats(info.table, info.column)
            if info.sql_type is SqlType.TEXT or stats is None or (
                stats.min_value is None
            ):
                space.add(self._text_parameter(info))
                continue
            low = float(stats.min_value)
            high = float(stats.max_value)
            if high <= low:
                high = low + 1.0
            if info.sql_type in (SqlType.INTEGER, SqlType.BIGINT, SqlType.DATE):
                space.add(IntegerParameter(info.name, int(low), int(math.ceil(high))))
            else:
                space.add(FloatParameter(info.name, low, high))
        return space

    def _text_parameter(self, info) -> CategoricalParameter:
        choices = self._text_choices(info)
        return CategoricalParameter(info.name, tuple(choices))

    def _text_choices(self, info) -> Sequence[str]:
        cap = self.config.max_categorical_choices
        values: Sequence[str] = ()
        catalog = self.db.catalog
        if info.table is not None and catalog.has_table(info.table):
            if catalog.data(info.table).has_column(info.column):
                distinct = catalog.text_domain(info.table, info.column)
                if len(distinct) > cap:
                    step = len(distinct) / cap
                    distinct = [distinct[int(i * step)] for i in range(cap)]
                values = distinct
        if not values:
            values = ("__missing__",)
        if info.operator == "like":
            return [f"%{v[: max(len(v) // 2, 1)]}%" for v in values]
        return values

    # -- evaluation -------------------------------------------------------------------

    def evaluate(self, template: SqlTemplate, values: Config) -> float | None:
        """Instantiate + measure one configuration; None on any SQL error.

        The built-in metrics go through the template's compiled fast path
        (:class:`~repro.fastpath.compiled.CompiledTemplate`), which parses,
        binds and prepares the template once: ``plan_cost`` and
        ``cardinality`` cost each binding with ``estimate``, which reads the
        estimated rows and total cost off the binding's plan without
        rendering an EXPLAIN or touching the EXPLAIN cache, and
        ``actual_rows`` and ``measured_time`` run each binding's prepared
        plan with ``execute``.  Both equal the cold ``db.explain`` /
        ``db.execute`` of the instantiated SQL, which a template that does
        not compile takes instead.  ``measured_time`` is the execution
        alone: a prepared plan is timed without its planning.

        Governor errors — :class:`ResourceExceeded` and the retryable
        :class:`TransientStorageError` — propagate instead of collapsing to
        None: they are verdicts about the *template's resource behaviour*
        (strike material), not about the SQL being malformed.
        """
        if self._custom_metric is not None:
            try:
                sql = template.instantiate(values)
            except KeyError:
                return None
            try:
                return float(self._custom_metric(sql, self.db))
            except (ResourceExceeded, TransientStorageError):
                raise
            except SqlError:
                return None
        executes = self.cost_metric in ("actual_rows", "measured_time")
        compiled = self._compiled_for(template)
        try:
            if executes:
                result = (
                    compiled.execute(values)
                    if compiled is not None
                    else self.db.execute(template.instantiate(values))
                )
            elif compiled is not None:
                rows, cost = compiled.estimate(values)
            else:
                result = self.db.explain(template.instantiate(values))
                rows, cost = result.estimated_rows, result.total_cost
        except (ResourceExceeded, TransientStorageError):
            raise
        except (KeyError, SqlError):
            return None
        if self.cost_metric == "actual_rows":
            # Deterministic execution-based cost: the result cardinality.
            # Unlike measured_time it is a pure function of the query, so
            # reproducibility tests and chaos campaigns can execute real
            # plans (and trip real governor limits) with stable output.
            return float(result.row_count)
        if self.cost_metric == "measured_time":
            return result.elapsed_seconds
        if self.cost_metric == "cardinality":
            return float(rows)
        return float(cost)

    def _compiled_for(self, template: SqlTemplate):
        """The template's compiled fast path, or None when it cannot compile
        (it then stays on the cold path for the rest of the run)."""
        template_id = template.template_id
        if template_id not in self._compiled_by_id:
            self._compiled_by_id[template_id] = self._compile(template)
        return self._compiled_by_id[template_id]

    def _compile(self, template: SqlTemplate):
        """One compilation per distinct text, placeholders and literal types:
        a compiled template reads nothing else of its template, so it costs
        and executes every binding of each template sharing it alike."""
        from repro.fastpath.compiled import CompiledTemplate

        try:
            types = self._placeholder_literal_types(template)
        except SqlError:  # the text does not parse
            return None
        key = (template.sql, tuple(template.placeholders), tuple(types.items()))
        if key not in self._compiled:
            try:
                self._compiled[key] = CompiledTemplate(self.db, template, types)
            except SqlError:
                self._compiled[key] = None
        return self._compiled[key]

    def _placeholder_literal_types(self, template: SqlTemplate) -> dict[str, SqlType]:
        """The *bound* type of each placeholder's rendered literal.

        Mirrors :meth:`build_space`'s parameter choices: integer parameters
        render as integer literals, float parameters as doubles, and
        categorical/date parameters as quoted strings (TEXT).
        """
        if not template.placeholders:
            template.placeholders = infer_placeholder_bindings(
                template.parse(), self.db.catalog
            )
        types: dict[str, SqlType] = {}
        for info in template.placeholders:
            if info.table is None or info.column is None:
                types[info.name] = SqlType.INTEGER
                continue
            stats = self.db.catalog.column_stats(info.table, info.column)
            if info.sql_type is SqlType.TEXT or stats is None or (
                stats.min_value is None
            ):
                types[info.name] = SqlType.TEXT
            elif info.sql_type is SqlType.DATE:
                types[info.name] = SqlType.TEXT  # rendered as a quoted ISO date
            elif info.sql_type in (SqlType.INTEGER, SqlType.BIGINT):
                types[info.name] = SqlType.INTEGER
            else:
                types[info.name] = SqlType.DOUBLE
        return types

    def instantiate(self, template: SqlTemplate, values: Config) -> str:
        return template.instantiate(values)

    # -- resource governance --------------------------------------------------------

    def _guard_for(self, template: SqlTemplate) -> TemplateGuard | None:
        """A fresh per-template guard, or None when governance is off.

        The fault RNG stream is seeded from (seed + offset, template id) —
        disjoint from the sampling streams and independent of profiling
        order.
        """
        limits = GovernorLimits.from_config(self.config)
        faults = self.config.engine_faults
        has_faults = faults is not None and faults.active
        if not limits.enabled and not has_faults:
            return None
        fault_rng = None
        if has_faults:
            fault_rng = np.random.default_rng(
                [
                    self.config.seed + GOVERNOR_SEED_OFFSET,
                    zlib.crc32(template.template_id.encode()),
                ]
            )
        return TemplateGuard(
            template.template_id,
            limits,
            clock_name=self.config.governor_clock,
            quarantine_after=self.config.quarantine_after,
            faults=faults if has_faults else None,
            fault_rng=fault_rng,
        )

    _STORAGE_RETRIES = 2  # extra attempts after an injected storage fault

    def _evaluate_governed(
        self, template: SqlTemplate, values: Config, guard: TemplateGuard
    ):
        """One governed evaluation: ``(cost | None, resource_error | None)``.

        Mints a fresh governor per query (a fresh deadline, like
        ``statement_timeout``), retries transient storage faults a bounded
        number of times, and converts a tripped limit into strike material
        for the caller instead of an exception.
        """
        telemetry = current_telemetry()
        for attempt in range(self._STORAGE_RETRIES + 1):
            governor = guard.governor()
            try:
                with use_governor(governor):
                    cost = self.evaluate(template, values)
                return cost, None
            except ResourceExceeded as exc:
                return None, exc
            except TransientStorageError:
                if telemetry.enabled:
                    telemetry.count("governor.storage_retries")
                if attempt == self._STORAGE_RETRIES:
                    return None, None  # exhausted: an ordinary error
            finally:
                guard.observe(governor)
                if governor.faults_injected and telemetry.enabled:
                    telemetry.count(
                        "governor.faults_injected", governor.faults_injected
                    )
        return None, None  # unreachable; keeps type-checkers calm

    # -- profiling ----------------------------------------------------------------------

    def profile(
        self, template: SqlTemplate, num_samples: int | None = None
    ) -> TemplateProfile:
        """LHS-profile a template; errors are counted, not raised."""
        telemetry = current_telemetry()
        with telemetry.span(
            "profile.template", template_id=template.template_id
        ) as span:
            profile = self._profile_inner(template, num_samples)
            if telemetry.enabled:
                span.set(
                    samples=len(profile.observations),
                    errors=profile.errors,
                    cost_min=profile.min_cost,
                    cost_max=profile.max_cost,
                )
                telemetry.count("profiler.templates")
                telemetry.count("profiler.samples", len(profile.observations))
                if profile.errors:
                    telemetry.count("profiler.errors", profile.errors)
                if profile.resource_strikes:
                    telemetry.count(
                        "governor.strikes", profile.resource_strikes
                    )
                if profile.quarantined:
                    telemetry.count("governor.quarantines")
                    span.set(quarantined=True, reason=profile.quarantine_reason)
                if profile.peak_bytes:
                    telemetry.gauge(
                        "governor.peak_bytes",
                        profile.peak_bytes,
                        template=template.template_id,
                    )
        if telemetry.enabled:
            telemetry.event(
                "template_profiled",
                template_id=template.template_id,
                queries=len(profile.observations),
                errors=profile.errors,
                quarantined=profile.quarantined,
            )
            if profile.quarantined:
                telemetry.event(
                    "template_quarantined",
                    template_id=template.template_id,
                    reason=profile.quarantine_reason,
                    strikes=profile.resource_strikes,
                )
        return profile

    def _profile_inner(
        self, template: SqlTemplate, num_samples: int | None
    ) -> TemplateProfile:
        try:
            space = self.build_space(template)
        except SqlError:
            # The template does not even parse (e.g. a faulty refinement):
            # an empty profile is never usable, so it gets pruned upstream.
            return TemplateProfile(
                template=template, space=ConfigSpace(), errors=1
            )
        profile = TemplateProfile(template=template, space=space)
        guard = self._guard_for(template)
        if len(space) == 0:
            # No placeholders: the template has exactly one cost point.
            self._profile_one(profile, template, {}, guard)
            self._finish_guard(profile, guard)
            return profile
        count = num_samples if num_samples is not None else (
            self.config.min_profile_samples
        )
        count = max(count, 1)
        rng = self._template_rng(template)
        if self.config.profile_sampling == "uniform":
            samples = space.sample_many(count, rng)
        else:
            samples = lhs_configs(space, count, rng)
        for values in samples:
            if not self._profile_one(profile, template, values, guard):
                break  # quarantined: stop burning budget on this template
        self._finish_guard(profile, guard)
        return profile

    def _profile_one(
        self,
        profile: TemplateProfile,
        template: SqlTemplate,
        values: Config,
        guard: TemplateGuard | None,
    ) -> bool:
        """Evaluate one sample into *profile*; False once quarantined."""
        if guard is None:
            cost = self.evaluate(template, values)
        else:
            cost, resource_error = self._evaluate_governed(
                template, values, guard
            )
            if resource_error is not None:
                profile.errors += 1
                return not guard.strike(resource_error, values)
        if cost is None:
            profile.errors += 1
        else:
            profile.add(values, cost)
        return True

    @staticmethod
    def _finish_guard(
        profile: TemplateProfile, guard: TemplateGuard | None
    ) -> None:
        if guard is None:
            return
        profile.quarantined = guard.quarantined
        profile.resource_strikes = guard.strikes
        profile.quarantine_reason = guard.last_reason
        profile.offending_bindings = list(guard.offending_bindings)
        profile.peak_bytes = guard.peak_bytes

    def profile_samples_per_template(
        self, total_queries: int, num_templates: int
    ) -> int:
        """The paper's budget: ~15% of the target query count, split evenly."""
        if num_templates <= 0:
            return self.config.min_profile_samples
        share = int(self.config.profile_fraction * total_queries / num_templates)
        return int(
            np.clip(
                share,
                self.config.min_profile_samples,
                self.config.max_profile_samples,
            )
        )
