"""Compile a SQL template once, re-cost and execute predicate bindings cheaply.

The cost-targeted loops (template profiling, Algorithm 2 refinement, the BO
predicate search) evaluate the *same* template text under thousands of
different literal bindings.  The cold path pays lexer + parser + binder +
planner for every binding; only the literals change, so everything up to
costing is recomputable work.

:class:`CompiledTemplate` hoists the invariant part: it parses the template
text once, binds it in the binder's *template mode* (placeholders bind to
the type their rendered literal will have), and prepares a
:class:`~repro.sqldb.planner.PlanSkeleton` from it — the planner's
literal-independent phase.  A binding then costs one run of the planner's
costing pass over its literals: no lexing, parsing, name resolution, or
conjunct partitioning on the hot path.  :meth:`CompiledTemplate.estimate`
reads the binding's estimated rows and total cost straight off that plan —
the two numbers the loops use — without rendering SQL, an EXPLAIN-cache
key or a plan text.  :meth:`CompiledTemplate.explain` returns the whole
EXPLAIN through the database's cache.  Executing a binding (the
execution-costed metrics) is the EXECUTE half of a prepared statement: the
same costing pass builds the binding's plan, which carries the binding's
literals for the executor, and ``Database.execute`` runs it.

Correctness contract (enforced by ``tests/fastpath``, the skeleton tests
in ``tests/sqldb`` and the ``compiled_template`` fuzz oracle): the
:class:`ExplainResult` is byte-identical to
``database.explain(template.instantiate(values))``, ``plan_text``
included, an estimate is that result's ``(estimated_rows, total_cost)``,
and an execution returns the table (or raises the error) of
``database.execute(template.instantiate(values))``.  Cold planning is the
same skeleton costed with no placeholders, so this holds by construction
wherever a placeholder costs and evaluates exactly like the literal it
stands for.  Two cases re-plan the instantiated SQL cold instead:

* a per-call type guard compares each literal's bound type to the type the
  template was compiled under (e.g. an out-of-int32-range value binds as
  BIGINT);
* templates with a placeholder in a GROUP BY or ORDER BY key, which EXPLAIN
  prints (and where a literal can mean a sort position or a grouping key
  the binder matches by value).

Compilation failures surface as exceptions the caller treats as "use the
cold path".  Statistics-epoch changes (DDL, data loads, re-analyze)
invalidate the skeleton the same way they invalidate the EXPLAIN cache:
the next call recompiles against the current catalog.
"""

from __future__ import annotations

import datetime
import math
import threading
from typing import Mapping

from repro.obs import current as current_telemetry
from repro.sqldb import ast_nodes as ast
from repro.sqldb.binder import Binder, _literal_type
from repro.sqldb.database import ExecutionResult
from repro.sqldb.errors import BindError, UnsupportedSqlError
from repro.sqldb.explain import ExplainResult, explain_plan
from repro.sqldb.parser import parse_sql
from repro.sqldb.plan_nodes import Plan
from repro.sqldb.planner import Planner, PlanSkeleton
from repro.sqldb.types import SqlType, days_to_date


def literal_expression(value: object, sql_type: SqlType | None = None) -> ast.Expression:
    """The AST the parser would produce for ``render_literal(value, sql_type)``.

    Mirrors :func:`repro.workload.template.render_literal` rule for rule;
    notably the parser represents negative numbers as unary minus over the
    absolute value, never as a negative literal token.
    """
    if value is None:
        return ast.Literal(None)
    if isinstance(value, bool):
        return ast.Literal(value)
    if isinstance(value, datetime.date):
        return ast.Literal(value.isoformat())
    if isinstance(value, float):
        if sql_type in (SqlType.INTEGER, SqlType.BIGINT):
            return _numeric_literal(int(round(value)))
        return _numeric_literal(float(value))
    if isinstance(value, int):
        if sql_type is SqlType.DATE:
            return ast.Literal(days_to_date(value).isoformat())
        if sql_type is SqlType.DOUBLE:
            return _numeric_literal(float(value))
        return _numeric_literal(int(value))
    return ast.Literal(str(value))


def _numeric_literal(value: int | float) -> ast.Expression:
    if isinstance(value, float) and not math.isfinite(value):
        # repr(inf/nan) lexes as a bare identifier, which the cold path
        # rejects as an unknown column; fail the same way.
        name = repr(value).lstrip("-")
        raise BindError(f'column "{name}" does not exist')
    negative = value < 0 or (isinstance(value, float) and math.copysign(1.0, value) < 0)
    if negative:
        return ast.UnaryOp("-", ast.Literal(-value))
    return ast.Literal(value)


def _parse_query(sql: str) -> ast.SelectStatement | ast.CompoundSelect:
    """Parse a template's text through ``parse_sql``, the entry point
    :meth:`SqlTemplate.parse` uses, so both read one parse-memo entry.
    Only a SELECT or UNION compiles: another statement raises."""
    statement = parse_sql(sql)
    if not isinstance(statement, (ast.SelectStatement, ast.CompoundSelect)):
        raise UnsupportedSqlError(
            f"only a SELECT template compiles, not {type(statement).__name__}"
        )
    return statement


def bound_literal_type(expression: ast.Expression) -> SqlType:
    """The type the cold binder would assign to a substituted literal."""
    if isinstance(expression, ast.UnaryOp):
        return bound_literal_type(expression.operand)
    assert isinstance(expression, ast.Literal)
    return _literal_type(expression.value)


class CompiledTemplate:
    """A template parsed, bound, and prepared once, costed or executed per
    binding."""

    def __init__(self, database, template, placeholder_types: dict[str, SqlType]):
        """*placeholder_types* maps each placeholder to the *bound* type of
        its rendered literal (what the binder's template mode needs), as
        opposed to the column types recorded on the template's
        :class:`~repro.workload.template.PlaceholderInfo` entries, which
        drive literal rendering.  Raises :class:`SqlError` when the template
        cannot be compiled; callers fall back to the cold path permanently.
        """
        self._db = database
        self._template = template
        self._placeholder_types = dict(placeholder_types)
        render_types = {info.name: info.sql_type for info in template.placeholders}
        # Per-placeholder (name, expected bound type, render type), hoisted
        # out of the per-binding type guard.
        self._guard_specs = [
            (
                name,
                self._placeholder_types.get(name, SqlType.INTEGER),
                render_types.get(name),
            )
            for name in template.placeholder_names
        ]
        self._lock = threading.Lock()
        self._state: tuple[int, PlanSkeleton | None] | None = None
        self._skeleton()  # compile eagerly so failures surface at build time

    @property
    def template(self):
        return self._template

    def _skeleton(self) -> PlanSkeleton | None:
        """The plan skeleton for the current statistics epoch, or ``None``
        when EXPLAIN would print a placeholder (every binding then re-plans
        its instantiated SQL)."""
        epoch = self._db.catalog.statistics_epoch
        with self._lock:
            if self._state is None or self._state[0] != epoch:
                catalog = self._db.catalog
                types = self._placeholder_types
                bound = Binder(catalog, placeholder_types=types).bind(
                    _parse_query(self._template.sql)
                )
                skeleton = Planner(catalog, placeholder_types=types).prepare(bound)
                if skeleton.prints_placeholders:
                    skeleton = None
                self._state = (epoch, skeleton)
            return self._state[1]

    def estimate(self, values: Mapping[str, object]) -> tuple[float, float]:
        """The binding's ``(estimated_rows, total_cost)``: the two numbers of
        ``explain(values)`` that the cost-targeted loops read.

        Equal to them, and raising the same exception class and message for
        every binding (a missing placeholder's :class:`KeyError` in
        declaration order, a non-finite DOUBLE's deferred
        :class:`BindError`, a cold plan's error), without the per-binding
        EXPLAIN work: a warm binding instantiates no SQL, normalizes no
        cache key, reads or stores no cache entry and renders no plan
        text.  A cold binding plans its instantiated SQL with
        ``Database.plan``.  Each call counts as one computed estimate in
        ``sqldb.explain.calls``/``.seconds`` (a :class:`SqlError` also in
        ``.errors``), and a warm one in ``fastpath.compiled.replayed``.
        """
        return self._db._record_explain(lambda: self._estimate(values))

    def _estimate(self, values: Mapping[str, object]) -> tuple[float, float]:
        plan = self._skeleton_plan(values)
        if plan is None:
            plan = self._db.plan(self._template.instantiate(values))
        else:
            current_telemetry().count("fastpath.compiled.replayed")
        return plan.est_rows, plan.total_cost

    def explain(self, values: Mapping[str, object]) -> ExplainResult:
        """EXPLAIN the template instantiated with *values*.

        Byte-identical to ``database.explain(template.instantiate(values))``
        — same result, same errors, same cache interaction — minus the
        lex/parse/bind/prepare work on cache misses.
        """
        sql = self._template.instantiate(values)
        return self._db.explain_estimates(
            sql, compute=lambda: self._recost(values, sql)
        )

    def explain_many(self, bindings) -> list[ExplainResult]:
        """EXPLAIN the template under every binding in *bindings*.

        Equivalent to ``[self.explain(values) for values in bindings]`` —
        same results, same errors, the same telemetry counters for every
        binding that instantiates, same cache interaction — and counted as
        one batched re-costing pass.  With the EXPLAIN cache disabled there
        is no cache state to maintain, so the batch also skips the per-call
        SQL rendering and cache dispatch of a warm binding; with it enabled
        every binding goes through the normal cache-aware path (hits and
        stored entries must match).
        """
        bindings = list(bindings)
        telemetry = current_telemetry()
        telemetry.count("fastpath.compiled.batches")
        telemetry.count("fastpath.compiled.batched_explains", len(bindings))
        db = self._db
        if db.explain_cache_enabled:
            return [self.explain(values) for values in bindings]
        return [
            db._record_explain(lambda v=values: self._recost(v))
            for values in bindings
        ]

    def execute(self, values: Mapping[str, object]) -> ExecutionResult:
        """Execute the template instantiated with *values*: the EXECUTE half
        of a prepared statement.

        Same result, errors and ``sqldb.execute.*`` counters as
        ``database.execute(template.instantiate(values))``, governed the same
        way, minus the lex/parse/bind/plan work: the binding's plan comes
        from the skeleton's costing pass and carries the binding's literals
        for the executor.  A cold binding (see :meth:`_skeleton_plan`) runs
        its instantiated SQL cold.
        """
        sql = self._template.instantiate(values)
        try:
            plan = self._skeleton_plan(values)
        except BindError:
            plan = None  # the cold path raises it, positioned and counted
        return self._db.execute(sql, plan=plan)

    def _skeleton_plan(self, values: Mapping[str, object]) -> Plan | None:
        """The one binding-to-plan decision: the type guard, then the
        skeleton.

        Returns the plan the skeleton's costing pass builds for *values*,
        or None when the binding is cold and must plan its instantiated SQL
        instead: the guard sends it cold (a literal binds to another type
        than the template was compiled under), or the template's skeleton
        prints placeholders.  Raises the guard's errors (:meth:`_literals`).
        """
        literals = self._literals(values)
        skeleton = self._skeleton() if literals is not None else None
        if skeleton is None:
            return None
        return skeleton.plan(literals)

    def _literals(
        self, values: Mapping[str, object]
    ) -> dict[str, ast.Expression] | None:
        """The per-binding type guard: each placeholder's literal under
        *values*, or None when the binding must re-plan its instantiated SQL
        cold because a literal binds to a different type than the template
        was compiled under (e.g. an out-of-int32-range value binds as
        BIGINT).

        Errors are those of instantiating the template and then binding its
        SQL, whether or not the caller rendered the SQL first:
        instantiate's (a missing placeholder, an integer overflow) fire in
        place, and a non-finite DOUBLE's :class:`BindError` fires once every
        placeholder has rendered — unless an earlier literal already sent
        the binding cold.
        """
        literals: dict[str, ast.Expression] = {}
        cold = False
        bind_error: BindError | None = None
        for name, expected, render_type in self._guard_specs:
            if name not in values:
                raise KeyError(f"no value for placeholder {{{name}}}")
            try:
                literal = literal_expression(values[name], render_type)
            except BindError as exc:
                if not cold and bind_error is None:
                    bind_error = exc
                continue
            literals[name] = literal
            if bound_literal_type(literal) is not expected:
                cold = True
        if bind_error is not None:
            raise bind_error
        return None if cold else literals

    def _recost(
        self, values: Mapping[str, object], sql: str | None = None
    ) -> ExplainResult:
        """EXPLAIN one binding; *sql*, its instantiated text, is rendered
        here when not given and only if the binding is cold."""
        plan = self._skeleton_plan(values)
        if plan is None:
            if sql is None:
                sql = self._template.instantiate(values)
            return explain_plan(self._db.plan(sql))
        result = explain_plan(plan)
        telemetry = current_telemetry()
        telemetry.count("fastpath.compiled.explains")
        telemetry.count("fastpath.compiled.replayed")
        return result
