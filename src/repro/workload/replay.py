"""Workload replay: execute a generated workload against a database.

The paper's motivating scenario (Figure 2) ends with the synthetic workload
being *run* to test a DBMS.  :func:`replay_workload` does exactly that:
every query is executed, timed, and checked against its recorded cost, and
the outcome is summarised per query and in aggregate — including the Q-error
between the optimizer's estimates and reality for cardinality targets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.sqldb import Database, SqlError
from .query import GeneratedQuery, Workload


@dataclass(frozen=True)
class QueryOutcome:
    """The result of replaying one query."""

    query: GeneratedQuery
    ok: bool
    rows: int = 0
    elapsed_seconds: float = 0.0
    estimated_rows: float = 0.0
    estimated_cost: float = 0.0
    error: str | None = None

    @property
    def q_error(self) -> float:
        """max(est/actual, actual/est) over row counts, floored at 1."""
        estimated = max(self.estimated_rows, 1.0)
        actual = max(float(self.rows), 1.0)
        return max(estimated / actual, actual / estimated)


@dataclass
class ReplayReport:
    """Aggregate outcome of replaying a whole workload."""

    outcomes: list[QueryOutcome] = field(default_factory=list)
    total_seconds: float = 0.0

    @property
    def succeeded(self) -> int:
        return sum(o.ok for o in self.outcomes)

    @property
    def failed(self) -> int:
        return len(self.outcomes) - self.succeeded

    @property
    def success_rate(self) -> float:
        if not self.outcomes:
            return 0.0
        return self.succeeded / len(self.outcomes)

    def q_error_percentiles(self) -> dict[str, float]:
        """Q-error summary over the successfully replayed queries."""
        errors = [o.q_error for o in self.outcomes if o.ok]
        if not errors:
            return {"p50": 0.0, "p90": 0.0, "max": 0.0}
        array = np.asarray(errors)
        return {
            "p50": float(np.percentile(array, 50)),
            "p90": float(np.percentile(array, 90)),
            "max": float(array.max()),
        }

    def worst_estimates(self, count: int = 5) -> list[QueryOutcome]:
        """The queries with the largest optimizer misestimates."""
        successes = [o for o in self.outcomes if o.ok]
        return sorted(successes, key=lambda o: o.q_error, reverse=True)[:count]

    def to_text(self) -> str:
        percentiles = self.q_error_percentiles()
        return (
            f"replayed {len(self.outcomes)} queries in "
            f"{self.total_seconds:.2f}s: {self.succeeded} ok, "
            f"{self.failed} failed; q-error p50={percentiles['p50']:.2f} "
            f"p90={percentiles['p90']:.2f} max={percentiles['max']:.2f}"
        )


def replay_workload(
    workload: Workload,
    db: Database,
    fail_fast: bool = False,
) -> ReplayReport:
    """Execute every query of *workload* on *db* and report outcomes."""
    report = ReplayReport()
    started = time.perf_counter()
    for query in workload:
        try:
            estimates, execution = db.explain_analyze(query.sql)
        except SqlError as exc:
            report.outcomes.append(
                QueryOutcome(query=query, ok=False, error=str(exc))
            )
            if fail_fast:
                break
            continue
        report.outcomes.append(
            QueryOutcome(
                query=query,
                ok=True,
                rows=execution.row_count,
                elapsed_seconds=execution.elapsed_seconds,
                estimated_rows=estimates.estimated_rows,
                estimated_cost=estimates.total_cost,
            )
        )
    report.total_seconds = time.perf_counter() - started
    return report
