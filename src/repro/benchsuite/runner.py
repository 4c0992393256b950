"""Experiment runner: one API for every method on every benchmark.

Handles the shared setup (database construction, spec workload, baseline
template pools) with caching, runs a method, and returns a uniform
:class:`MethodRun` record with the two metrics every figure reports —
end-to-end generation time and final Wasserstein distance — plus the full
distance-over-time trace.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.baselines import HillClimbing, LearnedSQLGen, build_template_pool
from repro.core import BarberConfig, SQLBarber, TemplateProfiler, schema_payload
from repro.datasets import build_database, redset_spec_workload
from repro.workload import CostDistribution, TemplateSpec
from .benchmarks import Benchmark

METHODS = (
    "hillclimbing-order",
    "hillclimbing-priority",
    "learnedsqlgen-order",
    "learnedsqlgen-priority",
    "sqlbarber",
)

DEFAULT_POOL_SIZE = 80
DEFAULT_NUM_SPECS = 12


@dataclass
class MethodRun:
    """One (method, benchmark, database) experiment outcome."""

    method: str
    benchmark: str
    database: str
    cost_type: str
    elapsed_seconds: float
    final_distance: float
    num_queries: int
    target_queries: int
    complete: bool
    trace: list[tuple[float, float]] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def summary_row(self) -> dict:
        return {
            "method": self.method,
            "benchmark": self.benchmark,
            "db": self.database,
            "time_s": round(self.elapsed_seconds, 2),
            "distance": round(self.final_distance, 2),
            "queries": f"{self.num_queries}/{self.target_queries}",
            "complete": self.complete,
        }


class ExperimentRunner:
    """Runs methods against benchmarks with cached setup artifacts."""

    def __init__(
        self,
        seed: int = 0,
        num_specs: int = DEFAULT_NUM_SPECS,
        pool_size: int = DEFAULT_POOL_SIZE,
    ):
        self.seed = seed
        self.num_specs = num_specs
        self.pool_size = pool_size
        self._pools: dict[tuple, list] = {}
        self._specs: list[TemplateSpec] | None = None

    # -- shared setup -----------------------------------------------------------

    def specs(self) -> list[TemplateSpec]:
        if self._specs is None:
            self._specs = redset_spec_workload(
                num_specs=self.num_specs, seed=self.seed + 2024
            )
        return self._specs

    def pool(self, db_name: str, cost_type: str):
        key = (db_name, cost_type, self.pool_size)
        if key not in self._pools:
            db = build_database(db_name)
            profiler = TemplateProfiler(
                db, BarberConfig(seed=self.seed), cost_metric=cost_type
            )
            self._pools[key] = build_template_pool(
                db,
                self.specs(),
                pool_size=self.pool_size,
                profiler=profiler,
                schema=schema_payload(db),
                seed=self.seed,
            )
        return self._pools[key]

    # -- method execution ------------------------------------------------------------

    def run(
        self,
        method: str,
        db_name: str,
        distribution: CostDistribution,
        benchmark_name: str = "custom",
        time_budget_seconds: float | None = None,
        per_interval_budget_seconds: float = 2.0,
        config: BarberConfig | None = None,
        sinks: list | None = None,
        explain_cache: bool = True,
    ) -> MethodRun:
        if method == "sqlbarber":
            return self.run_sqlbarber(
                db_name,
                distribution,
                benchmark_name,
                time_budget_seconds=time_budget_seconds,
                config=config,
                sinks=sinks,
                explain_cache=explain_cache,
            )
        return self.run_baseline(
            method,
            db_name,
            distribution,
            benchmark_name,
            per_interval_budget_seconds=per_interval_budget_seconds,
        )

    def run_sqlbarber(
        self,
        db_name: str,
        distribution: CostDistribution,
        benchmark_name: str = "custom",
        time_budget_seconds: float | None = None,
        config: BarberConfig | None = None,
        sinks: list | None = None,
        explain_cache: bool = True,
    ) -> MethodRun:
        db = build_database(db_name)
        if not explain_cache:
            db.set_explain_cache(False)
        config = config or BarberConfig(seed=self.seed)
        barber = SQLBarber(db, config=config, sinks=sinks)
        result = barber.generate_workload(
            self.specs(), distribution, time_budget_seconds=time_budget_seconds
        )
        return MethodRun(
            method="sqlbarber",
            benchmark=benchmark_name,
            database=db_name,
            cost_type=distribution.cost_type,
            elapsed_seconds=result.elapsed_seconds,
            final_distance=result.final_distance,
            num_queries=len(result.workload),
            target_queries=distribution.total_queries,
            complete=result.complete,
            trace=result.distance_trace,
            extra={
                "num_templates": result.num_templates,
                "llm_usage": result.llm_usage,
                "alignment_accuracy": result.generation_report.alignment_accuracy,
                "stage_seconds": dict(result.stage_seconds),
                "explain_cache": db.explain_cache.stats(),
            },
        )

    def run_baseline(
        self,
        method: str,
        db_name: str,
        distribution: CostDistribution,
        benchmark_name: str = "custom",
        per_interval_budget_seconds: float = 2.0,
    ) -> MethodRun:
        base, _, heuristic = method.partition("-")
        classes = {"hillclimbing": HillClimbing, "learnedsqlgen": LearnedSQLGen}
        if base not in classes or heuristic not in ("order", "priority"):
            raise KeyError(f"unknown baseline method {method!r}")
        db = build_database(db_name)
        profiler = TemplateProfiler(
            db, BarberConfig(seed=self.seed), cost_metric=distribution.cost_type
        )
        pool_started = time.perf_counter()
        pool = self.pool(db_name, distribution.cost_type)
        pool_seconds = time.perf_counter() - pool_started
        generator = classes[base](
            profiler, pool, heuristic=heuristic, seed=self.seed
        )
        run = generator.generate(
            distribution, per_interval_budget_seconds=per_interval_budget_seconds
        )
        return MethodRun(
            method=method,
            benchmark=benchmark_name,
            database=db_name,
            cost_type=distribution.cost_type,
            elapsed_seconds=run.elapsed_seconds,
            final_distance=run.final_distance,
            num_queries=len(run.queries),
            target_queries=distribution.total_queries,
            complete=run.complete,
            trace=run.trace,
            extra={"evaluations": run.evaluations, "pool_setup_s": pool_seconds},
        )

    def compare_all(
        self,
        benchmark: Benchmark,
        db_name: str,
        cost_type: str | None = None,
        num_queries: int | None = None,
        time_budget_seconds: float | None = None,
        per_interval_budget_seconds: float = 2.0,
        methods: tuple[str, ...] = METHODS,
    ) -> list[MethodRun]:
        """Run every method on one benchmark (one Figure-5/6 panel)."""
        distribution = benchmark.distribution(
            cost_type=cost_type, num_queries=num_queries
        )
        return [
            self.run(
                method,
                db_name,
                distribution,
                benchmark_name=benchmark.name,
                time_budget_seconds=time_budget_seconds,
                per_interval_budget_seconds=per_interval_budget_seconds,
            )
            for method in methods
        ]
