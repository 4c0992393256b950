"""Differential oracles for the fuzzer.

Each oracle asserts that two independent implementations of the same
contract agree on a generated statement:

* :class:`RoundTripOracle` — ``parse → render → parse`` is the identity on
  ASTs, and the rendered text plans to byte-identical estimates;
* :class:`ExplainCacheOracle` — cached, uncached, and post-epoch-bump
  EXPLAIN results are byte-identical;
* :class:`CompiledTemplateOracle` — templatizing the statement's WHERE
  literals and re-costing through :class:`CompiledTemplate` (the fastpath,
  with the EXPLAIN cache off) matches the cold parse → bind → plan
  pipeline, and executing its prepared plan returns the cold execution's
  table (or error), on the original binding and on one where every value
  differs;
* :class:`ExecutionOracle` — executor results are consistent with the
  estimator's invariants (finite non-negative costs, ``total >= startup``,
  LIMIT respected) and with predicate monotonicity (ANDing a conjunct
  never yields more rows);
* :class:`DmlEpochOracle` — committed DML bumps the statistics epoch, so
  a probe SELECT warmed into the EXPLAIN cache before the write re-costs
  after it and matches both the cold pipeline and the table's actual
  post-mutation row count.

``check`` returns None (pass), :data:`SKIPPED` (oracle not applicable to
this statement), or a string describing the disagreement.  An engine
exception escaping ``check`` is itself a finding — generated statements
are valid by construction — and is converted to a disagreement by the
runner.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

from repro.fastpath.compiled import (
    CompiledTemplate,
    bound_literal_type,
    literal_expression,
)
from repro.sqldb import ast_nodes as ast
from repro.sqldb.database import Database
from repro.sqldb.errors import ConstraintError, SqlError
from repro.sqldb.explain import ExplainResult, explain_plan
from repro.sqldb.parser import parse_sql
from repro.sqldb.plan_nodes import PlanNode
from repro.sqldb.sql_render import render_statement
from repro.sqldb.storage import Table
from repro.workload.placeholders import infer_placeholder_bindings
from repro.workload.template import PlaceholderInfo, SqlTemplate

from .grammar import GeneratedStatement

#: Sentinel returned by ``check`` when the oracle does not apply.
SKIPPED = "__skipped__"


@dataclass
class Disagreement:
    """One oracle failure, optionally with a shrunk reproducer attached."""

    oracle: str
    sql: str
    detail: str
    index: int = -1
    shrunk_sql: str | None = None

    def to_dict(self) -> dict:
        return {
            "oracle": self.oracle,
            "sql": self.sql,
            "detail": self.detail,
            "index": self.index,
            "shrunk_sql": self.shrunk_sql,
        }


@dataclass
class OracleContext:
    db: Database
    seed: int = 0


class Oracle:
    """Base class; subclasses override :meth:`check` (and optionally
    :meth:`finish` for batched end-of-run checks)."""

    name = "oracle"
    #: Check every ``stride``-th statement (1 = every statement).
    stride = 1

    def check(self, ctx: OracleContext, gen: GeneratedStatement) -> str | None:
        raise NotImplementedError

    def finish(self, ctx: OracleContext) -> list[Disagreement]:
        return []


def _diff(label: str, a: ExplainResult, b: ExplainResult) -> str | None:
    if a == b:
        return None
    return (
        f"{label}: rows {a.estimated_rows} vs {b.estimated_rows}, "
        f"cost {a.startup_cost}/{a.total_cost} vs {b.startup_cost}/{b.total_cost}"
        + ("" if a.plan_text == b.plan_text else ", plan text differs")
    )


def table_diff(label: str, a: Table, b: Table) -> str | None:
    """How result tables *a* and *b* first differ — column names, types,
    values, null masks or row order — or None when they are the same."""
    names = ([c.name for c in a.columns], [c.name for c in b.columns])
    if names[0] != names[1]:
        return f"{label}: columns {names[0]} vs {names[1]}"
    for x, y in zip(a.columns, b.columns):
        if (x.sql_type, x.data.dtype) != (y.sql_type, y.data.dtype):
            return (
                f"{label}: column {x.name} is {x.sql_type.value}/{x.data.dtype} "
                f"vs {y.sql_type.value}/{y.data.dtype}"
            )
        if _mask(x) != _mask(y):
            return f"{label}: column {x.name} null masks differ"
        # repr keeps NaN equal to itself and floats exact.
        if repr(x.data.tolist()) != repr(y.data.tolist()):
            return (
                f"{label}: column {x.name} values differ "
                f"({len(x)} vs {len(y)} rows)"
            )
    return None


def _mask(column) -> list | None:
    return None if column.null_mask is None else column.null_mask.tolist()


def _execution_diff(label: str, fast, cold) -> str | None:
    """Run both executions; their tables must match, or both must raise the
    same error class with the same message."""
    outcomes = []
    for run in (fast, cold):
        try:
            outcomes.append(run().table)
        except SqlError as exc:
            outcomes.append(exc)
    a, b = outcomes
    if isinstance(a, Table) and isinstance(b, Table):
        return table_diff(label, a, b)
    if (type(a), str(a)) == (type(b), str(b)):
        return None
    describe = [
        "a table" if isinstance(o, Table) else f"{type(o).__name__}: {o}"
        for o in outcomes
    ]
    return f"{label}: {describe[0]} vs {describe[1]}"


class RoundTripOracle(Oracle):
    """``render_statement`` is a faithful inverse of the parser."""

    name = "round_trip"

    def check(self, ctx, gen):
        original = parse_sql(gen.sql)
        rendered = render_statement(original)
        reparsed = parse_sql(rendered)
        if original != reparsed:
            return f"AST changed across render round-trip: {rendered!r}"
        cold_a = explain_plan(ctx.db.plan(gen.sql))
        cold_b = explain_plan(ctx.db.plan(rendered))
        return _diff("re-rendered text plans differently", cold_a, cold_b)


class ExplainCacheOracle(Oracle):
    """Cache hits, misses, and epoch-invalidated recomputes all agree."""

    name = "explain_cache"

    def check(self, ctx, gen):
        db = ctx.db
        cold = explain_plan(db.plan(gen.sql))
        first = db.explain_estimates(gen.sql)  # miss (or prior hit)
        second = db.explain_estimates(gen.sql)  # guaranteed hit
        detail = _diff("cold vs cached", cold, first) or _diff(
            "first vs second cached", first, second
        )
        if detail:
            return detail
        db.catalog.bump_statistics_epoch()
        recomputed = db.explain_estimates(gen.sql)  # new epoch: recompute
        return _diff("cached vs post-epoch-bump", cold, recomputed)


def templatize(sql: str, db: Database) -> tuple[SqlTemplate | None, dict]:
    """Replace outer-WHERE comparison literals with placeholders.

    Returns ``(template, values)`` with inferred placeholder bindings, or
    ``(None, {})`` when the statement has no templatizable literal (no
    WHERE, or only literal shapes the template machinery cannot re-render
    canonically).
    """
    statement = parse_sql(sql)
    if not isinstance(statement, ast.SelectStatement) or statement.where is None:
        return None, {}
    values: dict[str, object] = {}

    def lift(expr: ast.Expression) -> ast.Expression | None:
        """The placeholder for *expr* if it is a liftable literal."""
        value: object
        if isinstance(expr, ast.Literal):
            value = expr.value
        elif (
            isinstance(expr, ast.UnaryOp)
            and expr.op == "-"
            and isinstance(expr.operand, ast.Literal)
        ):
            value = -expr.operand.value  # type: ignore[operator]
        else:
            return None
        if value is None or isinstance(value, bool):
            return None
        name = f"p{len(values)}"
        values[name] = value
        return ast.Placeholder(name)

    def visit(expr: ast.Expression) -> None:
        if isinstance(expr, ast.BinaryOp):
            if expr.op in ("and", "or"):
                visit(expr.left)
                visit(expr.right)
                return
            lifted = lift(expr.right)
            if lifted is not None:
                expr.right = lifted
        elif isinstance(expr, ast.UnaryOp) and expr.op == "not":
            visit(expr.operand)
        elif isinstance(expr, ast.Between):
            low = lift(expr.low)
            if low is not None:
                expr.low = low
            high = lift(expr.high)
            if high is not None:
                expr.high = high
        elif isinstance(expr, ast.Like):
            pattern = lift(expr.pattern)
            if pattern is not None:
                expr.pattern = pattern

    visit(statement.where)
    if not values:
        return None, {}
    template_sql = render_statement(statement)
    template = SqlTemplate(template_id="fuzz", sql=template_sql)
    try:
        template.placeholders = infer_placeholder_bindings(
            template.parse(), db.catalog
        )
    except Exception:
        template.placeholders = [PlaceholderInfo(name) for name in values]
    have = {p.name for p in template.placeholders}
    template.placeholders = list(template.placeholders) + [
        PlaceholderInfo(name) for name in values if name not in have
    ]
    return template, values


class CompiledTemplateOracle(Oracle):
    """Compiled-template re-costing is byte-identical to the cold path, and
    prepared execution returns the cold execution's table."""

    name = "compiled_template"

    def check(self, ctx, gen):
        template, values = templatize(gen.sql, ctx.db)
        if template is None:
            return SKIPPED
        render_types = {p.name: p.sql_type for p in template.placeholders}
        types = {
            name: bound_literal_type(
                literal_expression(value, render_types.get(name))
            )
            for name, value in values.items()
        }
        db = ctx.db
        compiled = CompiledTemplate(db, template, types)
        # Re-cost with the EXPLAIN cache off: the explain_cache oracle has
        # already cached this statement's text, and a hit would compare
        # the cache against the cold path instead of the compiled one.
        cache_enabled = db.explain_cache_enabled
        db.set_explain_cache(False)
        try:
            for binding in (values, _perturb(values)):
                instantiated = template.instantiate(binding)
                fast = compiled.explain(binding)
                cold = explain_plan(db.plan(instantiated))
                detail = _diff(
                    f"compiled vs cold on {instantiated!r}", fast, cold
                ) or _execution_diff(
                    f"prepared vs cold execution of {instantiated!r}",
                    lambda: compiled.execute(binding),
                    lambda: db.execute(instantiated),
                )
                if detail:
                    return detail
        finally:
            db.set_explain_cache(cache_enabled)
        return None


def _perturb(values: dict) -> dict:
    """A second, deterministic binding for the same template in which
    every value differs: numbers shift, ISO dates move one day, other text
    gains a suffix — so the second re-cost never repeats the first one's
    SQL."""
    out = {}
    for name, value in values.items():
        if isinstance(value, bool):
            out[name] = not value
        elif isinstance(value, int):
            out[name] = value + 1
        elif isinstance(value, float):
            out[name] = value + 0.5
        elif isinstance(value, str):
            out[name] = _shift_text(value)
        else:
            out[name] = value
    return out


def _shift_text(value: str) -> str:
    try:
        day = datetime.date.fromisoformat(value)
    except ValueError:
        return value + "x"
    return (day + datetime.timedelta(days=1)).isoformat()


class ExecutionOracle(Oracle):
    """Actual execution is consistent with the estimator's invariants."""

    name = "execution"

    def check(self, ctx, gen):
        db = ctx.db
        plan = db.plan(gen.sql)
        estimates = explain_plan(plan)
        detail = self._estimate_sanity(estimates, plan.root)
        if detail:
            return detail
        epoch_before = db.catalog.statistics_epoch
        try:
            result = db.execute(gen.sql)
        except ConstraintError:
            # A constraint rejection (duplicate key, NOT NULL) is a valid
            # execution outcome — but it must be a *complete* rollback:
            # nothing published, so the statistics epoch cannot have moved.
            if db.catalog.statistics_epoch != epoch_before:
                return (
                    "constraint violation advanced the statistics epoch "
                    f"({epoch_before} -> {db.catalog.statistics_epoch}): "
                    "partial effects were published"
                )
            return None
        rows = result.row_count
        statement = parse_sql(gen.sql)
        if (
            isinstance(statement, ast.SelectStatement)
            and statement.limit is not None
            and rows > statement.limit
        ):
            return f"LIMIT {statement.limit} but {rows} rows returned"
        if gen.tightened_sql is not None:
            tightened_rows = db.execute(gen.tightened_sql).row_count
            if tightened_rows > rows:
                return (
                    f"predicate tightening grew the result: {rows} rows -> "
                    f"{tightened_rows} rows for {gen.tightened_sql!r}"
                )
        return None

    def _estimate_sanity(self, estimates: ExplainResult, root: PlanNode) -> str | None:
        import math

        for value in (
            estimates.estimated_rows,
            estimates.startup_cost,
            estimates.total_cost,
        ):
            if not math.isfinite(value) or value < 0:
                return f"non-finite or negative estimate: {estimates}"
        if estimates.total_cost < estimates.startup_cost:
            return (
                f"total cost {estimates.total_cost} below startup "
                f"{estimates.startup_cost}"
            )
        return self._node_sanity(root)

    def _node_sanity(self, node: PlanNode) -> str | None:
        import math

        if not math.isfinite(node.est_rows) or node.est_rows < 0:
            return f"plan node {node.node_type} estimates {node.est_rows} rows"
        if node.cost.total < node.cost.startup:
            return (
                f"plan node {node.node_type} total cost {node.cost.total} "
                f"below startup {node.cost.startup}"
            )
        for child in node.children():
            detail = self._node_sanity(child)
            if detail:
                return detail
        return None


class DmlEpochOracle(Oracle):
    """Committed DML invalidates every cached costing of its target table.

    The stale-cache trap this hunts: a SELECT probe's EXPLAIN result is
    warmed into the cache, the statement mutates the table, and a later
    ``explain`` serves the pre-mutation estimate.  The engine's contract is
    that every committed DML bumps ``statistics_epoch`` (the cache key), so
    the post-DML probe must re-cost — and because ``note_mutation``
    refreshes the catalog row count, the fresh estimate of an unfiltered
    scan equals the table's actual row count exactly.
    """

    name = "dml_epoch"

    def check(self, ctx, gen):
        db = ctx.db
        statement = parse_sql(gen.sql)
        if not ast.is_dml(statement):
            return SKIPPED
        target = statement.target.name
        probe = f"SELECT * FROM {target}"
        db.explain_estimates(probe)  # warm the cache at the current epoch
        before = db.catalog.statistics_epoch
        rows_before = db.catalog.table(target).row_count
        try:
            db.execute(gen.sql)
        except ConstraintError:
            # Rejected statement: statement-level rollback means no commit,
            # no epoch bump, no row-count change — the warm cache entry is
            # still the correct one.
            if db.catalog.statistics_epoch != before:
                return (
                    "constraint violation bumped the statistics epoch "
                    f"({before} -> {db.catalog.statistics_epoch})"
                )
            if db.catalog.table(target).row_count != rows_before:
                return (
                    f"constraint violation changed {target} row count "
                    f"({rows_before} -> {db.catalog.table(target).row_count})"
                )
            return None
        after = db.catalog.statistics_epoch
        if after <= before:
            return (
                f"statistics_epoch did not advance across committed DML "
                f"({before} -> {after})"
            )
        cached = db.explain_estimates(probe)  # epoch moved: must re-cost
        cold = explain_plan(db.plan(probe))
        detail = _diff("post-DML cached vs cold probe", cached, cold)
        if detail:
            return detail
        actual = db.catalog.table(target).row_count
        if round(cached.estimated_rows) != actual:
            return (
                f"post-DML probe estimates {cached.estimated_rows} rows but "
                f"table {target} holds {actual} — stale costing served"
            )
        return None


def default_oracles() -> list[Oracle]:
    """The standard oracle set, in execution order."""
    return [
        RoundTripOracle(),
        ExplainCacheOracle(),
        CompiledTemplateOracle(),
        ExecutionOracle(),
        DmlEpochOracle(),
    ]


__all__ = [
    "SKIPPED",
    "Oracle",
    "OracleContext",
    "Disagreement",
    "RoundTripOracle",
    "ExplainCacheOracle",
    "CompiledTemplateOracle",
    "DmlEpochOracle",
    "ExecutionOracle",
    "default_oracles",
    "templatize",
]
