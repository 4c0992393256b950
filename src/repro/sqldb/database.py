"""Public facade over the embedded engine.

:class:`Database` is the object every other subsystem talks to.  It exposes
the same three verbs SQLBarber needs from PostgreSQL:

* :meth:`Database.execute` — run a query, get rows;
* :meth:`Database.explain` — get the optimizer's estimated cardinality and
  plan cost without running the query;
* :attr:`Database.catalog` — schema and statistics metadata.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.fastpath.cache import DEFAULT_CACHE_SIZE, ExplainCache, normalize_sql
from repro.obs import current as current_telemetry

from .binder import Binder
from .catalog import Catalog, ForeignKey, IndexMeta
from .errors import SqlError
from .executor import Executor
from .explain import ExplainResult, explain_plan
from .parser import SqlStatement, parse_sql
from .plan_nodes import Plan
from .planner import Planner
from .storage import Table


@dataclass(frozen=True)
class ExecutionResult:
    """Rows plus basic runtime measurements for one executed query."""

    table: Table
    elapsed_seconds: float

    @property
    def row_count(self) -> int:
        return self.table.row_count


class Database:
    """An embedded, in-memory SQL database."""

    def __init__(self, name: str = "db", explain_cache_size: int = DEFAULT_CACHE_SIZE):
        self.name = name
        self._catalog = Catalog()
        self._binder = Binder(self._catalog)
        self._planner = Planner(self._catalog)
        self._executor = Executor(self._catalog)
        self._explain_cache = ExplainCache(maxsize=explain_cache_size)
        self._explain_cache_enabled = True

    # -- schema management ---------------------------------------------------

    @property
    def catalog(self) -> Catalog:
        return self._catalog

    @property
    def explain_cache(self) -> ExplainCache:
        return self._explain_cache

    @property
    def explain_cache_enabled(self) -> bool:
        return self._explain_cache_enabled

    def set_explain_cache(self, enabled: bool) -> None:
        """Toggle EXPLAIN result caching (the ``--no-explain-cache`` hatch).

        Disabling also clears the cache so a later re-enable starts cold.
        """
        self._explain_cache_enabled = enabled
        if not enabled:
            self._explain_cache.clear()

    def analyze(self, table: str | None = None) -> None:
        """Refresh optimizer statistics (``ANALYZE [table]``).

        Recomputes row counts and column statistics from the stored data and
        bumps the statistics epoch, invalidating cached EXPLAIN results.
        """
        names = [table] if table is not None else self._catalog.table_names
        for name in names:
            self._catalog.reanalyze(name)

    def create_table(
        self,
        data: Table,
        primary_key: list[str] | None = None,
        column_types=None,
    ) -> None:
        """Register *data* as a base table (statistics are gathered eagerly).

        *column_types* optionally maps column names to
        :class:`~repro.sqldb.types.ColumnType` so NOT NULL constraints are
        recorded in the catalog — the DML path enforces them at runtime.
        """
        self._catalog.register_table(
            data, column_types=column_types, primary_key=primary_key
        )

    def add_foreign_key(
        self, table: str, column: str, ref_table: str, ref_column: str
    ) -> None:
        self._catalog.add_foreign_key(ForeignKey(table, column, ref_table, ref_column))

    def add_index(self, table: str, column: str, unique: bool = False) -> None:
        self._catalog.add_index(
            IndexMeta(f"{table}_{column}_idx", table, column, unique)
        )

    # -- query processing ------------------------------------------------------

    def plan(self, sql: str) -> Plan:
        """Parse, bind, and plan *sql* without executing it.

        Errors leave with the statement text attached, so callers (the LLM
        repair loop, the fuzz shrinker) can render a line/column snippet via
        :meth:`~repro.sqldb.errors.SqlError.context_snippet`.
        """
        try:
            return self._plan_statement(parse_sql(sql))
        except SqlError as exc:
            raise exc.attach_source(sql)

    def _plan_statement(self, statement: SqlStatement) -> Plan:
        return self._planner.plan(self._binder.bind(statement))

    def explain(self, sql: str) -> ExplainResult:
        """The equivalent of ``EXPLAIN <sql>``: estimates only, no execution.

        Raises :class:`~repro.sqldb.errors.SqlError` subclasses exactly as a
        real server would reject the statement, which is what SQLBarber's
        template validation relies on.
        """
        return self.explain_estimates(sql)

    def explain_estimates(self, sql: str, compute=None) -> ExplainResult:
        """The single cache-aware entry point for optimizer estimates.

        Every path that produces an :class:`ExplainResult` — ``explain``,
        ``explain_analyze``, compiled-template re-costing — funnels through
        here so the ``sqldb.explain.*`` and ``sqldb.explain.cache.*``
        counters stay mutually consistent.  ``sqldb.explain.calls`` /
        ``.seconds`` record *computed* estimates (cache misses and uncached
        calls); cache hits are counted under ``sqldb.explain.cache.hits``
        and skip the histogram, so its count always equals the calls total.

        *compute* overrides the cold pipeline (parse → bind → plan) with a
        cheaper equivalent producer of the same result; callers guarantee
        byte-identical output (the differential suite enforces this).
        """
        if compute is None:
            compute = lambda: explain_plan(self.plan(sql))  # noqa: E731
        if not self._explain_cache_enabled:
            return self._record_explain(compute)
        return self._explain_cache.get_or_compute(
            normalize_sql(sql),
            self._catalog.statistics_epoch,
            lambda: self._record_explain(compute),
        )

    def _record_explain(self, compute):
        """Run *compute*, one computed estimate, under the
        ``sqldb.explain.*`` counters; returns what it returns (an
        :class:`ExplainResult`, or a compiled template's estimate pair)."""
        telemetry = current_telemetry()
        if not telemetry.enabled:
            return compute()
        started = time.perf_counter()
        try:
            result = compute()
        except SqlError:
            telemetry.count("sqldb.explain.errors")
            raise
        finally:
            telemetry.count("sqldb.explain.calls")
            telemetry.observe(
                "sqldb.explain.seconds", time.perf_counter() - started
            )
        return result

    def execute(
        self,
        sql: str,
        plan: Plan | None = None,
        statement: SqlStatement | None = None,
    ) -> ExecutionResult:
        """Run *sql* and return its result rows with wall-clock timing.

        *plan*, when given, is a plan of *sql* built beforehand — a prepared
        template binding (:meth:`CompiledTemplate.execute
        <repro.fastpath.compiled.CompiledTemplate.execute>`) or the plan
        ``explain_analyze`` costed — and runs without parsing, binding or
        planning *sql*; the timing then covers execution alone.  Without a
        plan, *statement*, when given, is *sql* already parsed, a tree the
        caller hands over (a script's INSERT): it is bound and planned
        without parsing *sql* again.  Either way this is the one execution
        entry: the ``sqldb.execute.*`` counters, the ambient governor and
        error positioning apply to every statement.
        """
        telemetry = current_telemetry()
        started = time.perf_counter()
        try:
            if plan is None:
                plan = (
                    self.plan(sql)
                    if statement is None
                    else self._plan_statement(statement)
                )
            table = self._executor.execute(plan)
        except SqlError as exc:
            if telemetry.enabled:
                telemetry.count("sqldb.execute.errors")
                telemetry.count("sqldb.execute.calls")
                telemetry.observe(
                    "sqldb.execute.seconds", time.perf_counter() - started
                )
            # Execution-phase errors (including governor ResourceExceeded)
            # leave positioned, like plan-phase ones; attach_source is
            # idempotent, so already-attached errors pass through untouched.
            raise exc.attach_source(sql)
        elapsed = time.perf_counter() - started
        if telemetry.enabled:
            telemetry.count("sqldb.execute.calls")
            telemetry.observe("sqldb.execute.seconds", elapsed)
        return ExecutionResult(table=table, elapsed_seconds=elapsed)

    def execute_profiled(self, sql: str):
        """Run *sql* with operator profiling and return (result, profile).

        *profile* is the statement's :class:`~repro.obs.OperatorProfile`
        tree — per-operator rows out, batches, and self/cumulative time —
        regardless of whether ambient telemetry is armed.
        """
        from repro.obs import capture_profile

        with capture_profile() as capture:
            result = self.execute(sql)
        return result, capture.profile

    def explain_profile(self, sql: str) -> str:
        """``EXPLAIN PROFILE <sql>``: execute and render the measured
        operator tree (rows, batches, self/total time per operator)."""
        from repro.obs import capture_profile

        with capture_profile() as capture:
            self.execute(sql)
        return capture.render()

    def explain_analyze(self, sql: str) -> tuple[ExplainResult, ExecutionResult]:
        """``EXPLAIN ANALYZE``: the optimizer's estimates plus actual
        execution, in one call — the optimizer-regression-hunting primitive.
        """
        plan = self.plan(sql)
        # Route estimates through the cache-aware entry point (reusing the
        # plan we already built on a miss) so explain_calls and cache
        # hit/miss counters agree with plain ``explain``, and execution
        # through ``execute`` so the execute counters see it.
        estimates = self.explain_estimates(sql, compute=lambda: explain_plan(plan))
        return estimates, self.execute(sql, plan=plan)

    def validate(self, sql: str) -> tuple[bool, str | None]:
        """Check that *sql* parses, binds, and plans; return (ok, error)."""
        try:
            self.plan(sql)
            return True, None
        except SqlError as exc:
            return False, str(exc)
