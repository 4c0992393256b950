"""Cost-based query planner.

The planner turns a bound statement into a physical :class:`Plan`:

* WHERE conjuncts are pushed down to scans when they touch one binding;
* equi-conjuncts across two bindings become hash-join conditions;
* inner-join trees are re-ordered greedily by estimated output cardinality
  (outer-join trees keep their written shape, which is always correct);
* each base scan picks the cheaper of a sequential or index scan;
* aggregation, sorting, projection, DISTINCT, and LIMIT are layered on top.

Planning runs in two phases.  :meth:`Planner.prepare` builds a
:class:`PlanSkeleton` holding everything that does not depend on literal
values: the conjunct partitioning, the join graph, resolved column
statistics, placeholder-free selectivities and operator counts folded to
numbers, placeholder-bearing ones compiled to closures over a binding
context (:mod:`repro.sqldb.selectivity`), and nested skeletons for
subqueries, derived tables, outer-join trees, and UNION branches.
:meth:`PlanSkeleton.plan` is the costing pass for one binding: scan and
index choice, greedy join order, and every node's cost.  The plan it
returns carries the binding's literals, so the executor runs it as the
instantiated statement.  ``Planner.plan(bound)`` is
``prepare(bound).plan({})``; a compiled template
(:mod:`repro.fastpath.compiled`) prepares once per statistics epoch and
costs, or executes, each literal binding through the same skeleton.

Every node carries estimated rows and a (startup, total) cost computed from
:mod:`repro.sqldb.cost` — that pair is what ``EXPLAIN`` reports and what
SQLBarber uses as its "execution plan cost" optimization target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from . import ast_nodes as ast
from . import cost as costs
from .binder import Binder, BoundQuery
from .catalog import Catalog
from .errors import UnsupportedSqlError
from .plan_nodes import (
    AggregateNode,
    AppendNode,
    DeleteNode,
    DistinctNode,
    FilterNode,
    HashJoinNode,
    IndexScanNode,
    InsertNode,
    LimitNode,
    NestedLoopJoinNode,
    Plan,
    PlanNode,
    ProjectNode,
    ResultNode,
    SeqScanNode,
    SortNode,
    SubPlan,
    SubqueryScanNode,
    UpdateNode,
)
from .selectivity import (
    binding_context,
    compile_constant,
    count_operators,
    estimate_selectivity,
    evaluate,
)
from .stats import join_selectivity
from .types import SqlType

_UNKNOWN_GROUP_NDV = 25.0

_SUBQUERY_KINDS = {
    ast.InSubquery: "in",
    ast.Exists: "exists",
    ast.ScalarSubquery: "scalar",
}

#: A prepared statement: builds its plan for one binding context.
PlanFn = Callable[[dict], Plan]
#: A prepared plan fragment: builds its node for one binding context.
NodeFn = Callable[[dict], PlanNode]
#: A prepared operator: stacks its node on a child for one binding context.
StackFn = Callable[[PlanNode, dict], PlanNode]


def bindings_of(expression: ast.Expression) -> frozenset[str]:
    """The FROM-clause bindings referenced by *expression* (outer query only)."""
    found = set()
    for node in ast.shallow_walk(expression):
        if isinstance(node, ast.ColumnRef) and node.table:
            found.add(node.table)
    return frozenset(found)


def split_conjuncts(expression: ast.Expression | None) -> list[ast.Expression]:
    """Flatten a boolean expression into its top-level AND-ed conjuncts."""
    if expression is None:
        return []
    if isinstance(expression, ast.BinaryOp) and expression.op == "and":
        return split_conjuncts(expression.left) + split_conjuncts(expression.right)
    return [expression]


def conjoin(conjuncts: list[ast.Expression]) -> ast.Expression | None:
    """Combine conjuncts back into one expression (None for empty)."""
    if not conjuncts:
        return None
    combined = conjuncts[0]
    for conjunct in conjuncts[1:]:
        combined = ast.BinaryOp("and", combined, conjunct)
    return combined


@dataclass
class _JoinCondition:
    """An equi-join conjunct linking exactly two bindings."""

    left_expr: ast.ColumnRef
    right_expr: ast.ColumnRef
    left_binding: str
    right_binding: str
    selectivity: float = 1.0  # resolved once both bindings are planned
    # Both bindings, built once: join ordering reads it for every pair of
    # candidate binding and condition.
    bindings: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.bindings = frozenset((self.left_binding, self.right_binding))


@dataclass
class _QueryContext:
    """Per-statement planning state.

    *reads* holds the columns the statement's expressions read, by binding,
    and its bare (unqualified) column names under None; None makes every
    scan carry every column.  The expressions are the bound statement's
    clauses (select items with the star expansion, WHERE, HAVING, GROUP BY
    and ORDER BY keys, join conditions): the very ones the plan's nodes
    hold as scan filters, join keys and residuals, filters, group keys,
    aggregate calls, HAVING, sort keys (below the projection) and
    projection items.  Subqueries are plans of their own.
    """

    catalog: Catalog
    binding_tables: dict[str, str] = field(default_factory=dict)
    reads: dict[str | None, set[str]] | None = None

    def scan_reads(self, binding: str) -> frozenset[str] | None:
        """The columns a scan of *binding* carries: those read qualified by
        it, and every bare name, which ``EvalContext.column``'s fallback
        may resolve to this binding (or find ambiguous)."""
        if self.reads is None:
            return None
        return frozenset(self.reads.get(binding, ())).union(self.reads.get(None, ()))

    def resolve(self, binding: str | None, column: str):
        if binding is None or binding not in self.binding_tables:
            return None
        meta = self.catalog.table(self.binding_tables[binding])
        if not meta.has_column(column):
            return None
        return meta.column(column).stats

    def resolve_join(self, condition: _JoinCondition) -> None:
        condition.selectivity = join_selectivity(
            self.resolve(condition.left_expr.table, condition.left_expr.column),
            self.resolve(condition.right_expr.table, condition.right_expr.column),
        )


class PlanSkeleton:
    """The literal-independent half of planning one bound statement.

    Built by :meth:`Planner.prepare`; :meth:`plan` runs the costing pass.
    Templates prepare once and plan each binding, so the plan of a binding
    is the plan of the instantiated statement by construction.
    """

    __slots__ = ("_build", "_statement")

    def __init__(self, build: PlanFn, statement: ast.Node):
        self._build = build
        self._statement = statement

    def plan(self, literals: Mapping[str, ast.Expression] | None = None) -> Plan:
        """The plan for one binding: *literals* maps each placeholder to the
        literal expression the binding substitutes for it.  The plan carries
        *literals*, so it executes as the instantiated statement would."""
        if not literals:
            return self._build({})
        plan = self._build(binding_context(literals))
        plan.literals = dict(literals)
        return plan

    @property
    def prints_placeholders(self) -> bool:
        """Whether EXPLAIN prints a placeholder-bearing expression — a GROUP
        BY or ORDER BY key, in this statement or a nested one — so the plan
        text of a binding depends on more than its costs."""
        for node in self._statement.walk():
            if not isinstance(node, ast.SelectStatement):
                continue
            keys = list(node.group_by)
            if node.order_by:
                keys.extend(o.expression for o in _resolve_order_aliases(node))
            for key in keys:
                if any(isinstance(n, ast.Placeholder) for n in key.walk()):
                    return True
        return False


class Planner:
    """Plans bound statements against a catalog."""

    def __init__(
        self,
        catalog: Catalog,
        placeholder_types: dict[str, SqlType] | None = None,
    ):
        """*placeholder_types* binds nested statements (subqueries, derived
        tables, UNION branches) in the binder's template mode, as a
        template's skeleton needs."""
        self._catalog = catalog
        self._binder = Binder(catalog, placeholder_types=placeholder_types)

    def plan(self, bound: BoundQuery) -> Plan:
        return self.prepare(bound).plan({})

    def prepare(self, bound: BoundQuery) -> PlanSkeleton:
        statement = bound.statement
        if isinstance(statement, ast.InsertStatement):
            build = self._prepare_insert(bound)
        elif isinstance(statement, (ast.UpdateStatement, ast.DeleteStatement)):
            build = self._prepare_mutation(bound)
        elif isinstance(statement, ast.CompoundSelect):
            build = self._prepare_compound(bound)
        else:
            build = self._prepare_select(bound)
        return PlanSkeleton(build, statement)

    def _prepare_nested(self, statement: ast.SelectStatement) -> PlanSkeleton:
        return self.prepare(self._binder.bind(statement))

    def _prepare_select(self, bound: BoundQuery) -> PlanFn:
        statement = bound.statement
        clauses: list[ast.Expression] = [i.expression for i in statement.select_items]
        if statement.where is not None:
            clauses.append(statement.where)
        if statement.having is not None:
            clauses.append(statement.having)
        clauses.extend(statement.group_by)
        clauses.extend(o.expression for o in statement.order_by)
        if statement.from_clause is not None:
            clauses.extend(
                j.condition
                for j in statement.from_clause.walk()
                if isinstance(j, ast.Join) and j.condition is not None
            )
        reads: dict[str | None, set[str]] = {}
        subqueries = self._prepare_subqueries(clauses, reads)
        body = self._prepare_body(bound, _QueryContext(self._catalog, reads=reads))

        def build(ctx) -> Plan:
            subplans = _plan_subqueries(subqueries, ctx)
            root = body(ctx)
            subplan_cost = sum(s.plan.root.cost.total for s in subplans.values())
            if subplan_cost:
                root.cost = root.cost.plus(subplan_cost)
            return Plan(
                root=root,
                subplans=subplans,
                output_names=bound.output_names,
                output_types=bound.output_types,
            )

        return build

    def _prepare_compound(self, bound: BoundQuery) -> PlanFn:
        """UNION [ALL]: plan each branch and append them."""
        statement: ast.CompoundSelect = bound.statement  # type: ignore[assignment]
        branches = [self._prepare_nested(s) for s in statement.selects]

        def build(ctx) -> Plan:
            branch_plans = [branch._build(ctx) for branch in branches]
            total_rows = sum(p.est_rows for p in branch_plans)
            total_cost = sum(p.total_cost for p in branch_plans)
            startup = max((p.startup_cost for p in branch_plans), default=0.0)
            est_rows = total_rows
            if statement.deduplicates:
                # Duplicate elimination shrinks the output; without
                # cross-branch statistics use a flat reduction factor.
                est_rows = max(total_rows * 0.75, 1.0)
                total_cost += total_rows * costs.HASH_ENTRY_COST
            root = AppendNode(
                est_rows=est_rows,
                cost=costs.Cost(startup, total_cost),
                plans=branch_plans,
                deduplicate=statement.deduplicates,
            )
            return Plan(
                root=root,
                subplans={},
                output_names=bound.output_names,
                output_types=bound.output_types,
            )

        return build

    # -- DML -------------------------------------------------------------------

    def _prepare_insert(self, bound: BoundQuery) -> PlanFn:
        statement: ast.InsertStatement = bound.statement  # type: ignore[assignment]
        meta = self._catalog.table(statement.target.name)
        columns = (
            list(statement.columns)
            if statement.columns is not None
            else meta.column_names
        )
        index_count = len(self._catalog.indexes_of(meta.name))
        source = (
            self._prepare_nested(statement.source)
            if statement.source is not None
            else None
        )
        values = [v for row in statement.rows for v in row]
        expr_ops = _total_operators(values)
        subqueries = self._prepare_subqueries(values)

        def build(ctx) -> Plan:
            if source is not None:
                source_plan = source._build(ctx)
                est_rows = max(source_plan.est_rows, 0.0)
                child_cost = costs.Cost(
                    source_plan.startup_cost, source_plan.total_cost
                )
                root = InsertNode(
                    est_rows=est_rows,
                    cost=costs.dml_cost(child_cost, est_rows, index_count),
                    table_name=meta.name,
                    columns=columns,
                    source=source_plan,
                )
            else:
                est_rows = float(len(statement.rows))
                child_cost = costs.Cost(
                    0.0, evaluate(expr_ops, ctx) * costs.CPU_OPERATOR_COST
                )
                root = InsertNode(
                    est_rows=est_rows,
                    cost=costs.dml_cost(child_cost, est_rows, index_count),
                    table_name=meta.name,
                    columns=columns,
                    rows=statement.rows,
                )
            return Plan(
                root=root,
                subplans=_plan_subqueries(subqueries, ctx),
                output_names=bound.output_names,
                output_types=bound.output_types,
            )

        return build

    def _prepare_mutation(self, bound: BoundQuery) -> PlanFn:
        """UPDATE/DELETE: a pushed-filter scan of the target feeds the write."""
        statement = bound.statement
        pushed = split_conjuncts(statement.where)
        scan = self._prepare_base_scan(
            statement.target, pushed, _QueryContext(self._catalog)
        )
        meta = self._catalog.table(statement.target.name)
        clauses: list[ast.Expression] = list(pushed)
        update = isinstance(statement, ast.UpdateStatement)
        if update:
            clauses.extend(a.value for a in statement.assignments)
            assigned = {a.column for a in statement.assignments}
            index_count = sum(
                1
                for index in self._catalog.indexes_of(meta.name)
                if index.column in assigned
            )
            expr_ops = _total_operators([a.value for a in statement.assignments])
        else:
            index_count = len(self._catalog.indexes_of(meta.name))
        subqueries = self._prepare_subqueries(clauses)

        def build(ctx) -> Plan:
            child = scan(ctx)
            if update:
                ops = evaluate(expr_ops, ctx)
                cost = costs.dml_cost(
                    child.cost.plus(child.est_rows * ops * costs.CPU_OPERATOR_COST),
                    child.est_rows,
                    index_count,
                )
                root: PlanNode = UpdateNode(
                    est_rows=child.est_rows,
                    cost=cost,
                    child=child,
                    table_name=meta.name,
                    assignments=statement.assignments,
                )
            else:
                root = DeleteNode(
                    est_rows=child.est_rows,
                    cost=costs.dml_cost(child.cost, child.est_rows, index_count),
                    child=child,
                    table_name=meta.name,
                )
            subplans = _plan_subqueries(subqueries, ctx)
            subplan_cost = sum(s.plan.root.cost.total for s in subplans.values())
            if subplan_cost:
                root.cost = root.cost.plus(subplan_cost)
            return Plan(
                root=root,
                subplans=subplans,
                output_names=bound.output_names,
                output_types=bound.output_types,
            )

        return build

    # -- subquery expressions ---------------------------------------------------

    def _prepare_subqueries(
        self,
        clauses: list[ast.Expression],
        reads: dict[str | None, set[str]] | None = None,
    ) -> dict[int, tuple[str, PlanSkeleton]]:
        """Skeletons of the subquery expressions reachable from *clauses*,
        keyed by expression identity like :attr:`Plan.subplans`.  The same
        walk adds each column reference it meets to *reads*, when given
        (see :class:`_QueryContext`)."""
        subqueries: dict[int, tuple[str, PlanSkeleton]] = {}
        for clause in clauses:
            for node in ast.shallow_walk(clause):
                kind = _SUBQUERY_KINDS.get(type(node))
                if kind is not None:
                    subqueries[id(node)] = (
                        kind, self._prepare_nested(node.subquery)
                    )
                elif reads is not None and type(node) is ast.ColumnRef:
                    reads.setdefault(node.table, set()).add(node.column)
        return subqueries

    # -- main body ---------------------------------------------------------------

    def _prepare_body(self, bound: BoundQuery, context: _QueryContext) -> NodeFn:
        statement = bound.statement
        if statement.from_clause is None:
            finalize = self._prepare_finalize(bound, context, projected=False)
            return lambda ctx: finalize(
                ResultNode(
                    est_rows=1.0,
                    cost=costs.Cost(0.0, costs.CPU_TUPLE_COST),
                    items=statement.select_items,
                    output_names=bound.output_names,
                ),
                ctx,
            )

        where_conjuncts = split_conjuncts(statement.where)
        where = None
        if _has_outer_join(statement.from_clause):
            # An outer join pads unmatched rows with NULLs, and the null
            # mask that adds depends on the data: a frame that left columns
            # out would no longer stand for the full one's bytes.
            context.reads = None
            source, _ = self._prepare_join_tree(statement.from_clause, context)
            if where_conjuncts:
                where = self._prepare_filter(conjoin(where_conjuncts), context)
        else:
            source = self._prepare_flattened_joins(
                statement.from_clause, where_conjuncts, context
            )
        aggregate = (
            self._prepare_aggregate(statement, context)
            if _needs_aggregation(statement)
            else None
        )
        finalize = self._prepare_finalize(bound, context, projected=True)

        def build(ctx) -> PlanNode:
            node = source(ctx)
            if where is not None:
                node = where(node, ctx)
            if aggregate is not None:
                node = aggregate(node, ctx)
            return finalize(node, ctx)

        return build

    # -- scans ---------------------------------------------------------------------

    def _prepare_scan(
        self,
        source: ast.TableExpression,
        pushed: list[ast.Expression],
        context: _QueryContext,
    ) -> NodeFn:
        if isinstance(source, ast.TableRef):
            return self._prepare_base_scan(source, pushed, context)
        if isinstance(source, ast.DerivedTable):
            subquery = self._prepare_nested(source.subquery)
            filter_expr = conjoin(pushed)
            selectivity = estimate_selectivity(filter_expr, context.resolve)

            def build(ctx) -> PlanNode:
                subplan = subquery._build(ctx)
                node = SubqueryScanNode(
                    est_rows=subplan.est_rows,
                    cost=costs.Cost(
                        subplan.startup_cost,
                        subplan.total_cost
                        + subplan.est_rows * costs.CPU_TUPLE_COST,
                    ),
                    subplan=subplan,
                    alias=source.alias,
                    filter=filter_expr,
                )
                if pushed:
                    node.est_rows = max(
                        subplan.est_rows * evaluate(selectivity, ctx), 0.0
                    )
                return node

            return build
        raise UnsupportedSqlError(
            f"unsupported FROM item: {type(source).__name__}"
        )

    def _prepare_base_scan(
        self,
        ref: ast.TableRef,
        pushed: list[ast.Expression],
        context: _QueryContext,
    ) -> NodeFn:
        meta = self._catalog.table(ref.name)
        binding = ref.binding_name
        context.binding_tables[binding] = ref.name
        filter_expr = conjoin(pushed)
        reads = context.scan_reads(binding)
        selectivity = estimate_selectivity(filter_expr, context.resolve)
        qual_ops = count_operators(filter_expr)
        # Index candidates: (index, column, the constant the column is
        # compared with, the candidate conjunct's selectivity).
        candidates = []
        for conjunct in pushed:
            key = _index_key(conjunct, binding)
            if key is None:
                continue
            index = self._catalog.index_on(ref.name, key[0])
            if index is None:
                continue
            candidates.append(
                (index, key[0], key[1], estimate_selectivity(conjunct, context.resolve))
            )

        def build(ctx) -> PlanNode:
            est_rows = max(meta.row_count * evaluate(selectivity, ctx), 0.0)
            ops = evaluate(qual_ops, ctx)
            best: PlanNode = SeqScanNode(
                est_rows=est_rows,
                cost=costs.seq_scan_cost(meta.page_count, meta.row_count, ops),
                table_name=ref.name,
                binding=binding,
                filter=filter_expr,
                reads=reads,
            )
            best_index: IndexScanNode | None = None
            for index, column, constant, index_sel in candidates:
                if evaluate(constant, ctx) is None:
                    continue
                cost = costs.index_scan_cost(
                    meta.page_count, meta.row_count, evaluate(index_sel, ctx), ops
                )
                if best_index is None or cost.total < best_index.cost.total:
                    best_index = IndexScanNode(
                        est_rows=est_rows,
                        cost=cost,
                        table_name=ref.name,
                        binding=binding,
                        index_name=index.name,
                        index_column=column,
                        filter=filter_expr,
                        reads=reads,
                    )
            if best_index is not None and best_index.cost.total < best.cost.total:
                best = best_index
            return best

        dynamic = [selectivity, qual_ops]
        for _, _, constant, index_sel in candidates:
            dynamic += (constant, index_sel)
        if any(callable(value) for value in dynamic):
            return build
        node = build({})  # no placeholder reaches this scan: cost it once
        return lambda ctx: node

    # -- flattened inner-join planning ----------------------------------------------

    def _prepare_flattened_joins(
        self,
        from_clause: ast.TableExpression,
        where_conjuncts: list[ast.Expression],
        context: _QueryContext,
    ) -> NodeFn:
        sources_ast: list[ast.TableExpression] = []
        on_conjuncts: list[ast.Expression] = []
        _flatten_inner_joins(from_clause, sources_ast, on_conjuncts)
        bindings = [_binding_name(s) for s in sources_ast]

        pushed: dict[str, list[ast.Expression]] = {b: [] for b in bindings}
        conditions: list[_JoinCondition] = []
        residuals: list[ast.Expression] = []
        for conjunct in on_conjuncts + where_conjuncts:
            refs = bindings_of(conjunct)
            if len(refs) <= 1 and (not refs or next(iter(refs)) in pushed):
                target = next(iter(refs)) if refs else bindings[0]
                pushed[target].append(conjunct)
                continue
            condition = _as_equi_condition(conjunct)
            if condition is not None:
                conditions.append(condition)
            else:
                residuals.append(conjunct)

        scans = [
            (binding, self._prepare_scan(s, pushed[binding], context))
            for s, binding in zip(sources_ast, bindings)
        ]
        for condition in conditions:
            context.resolve_join(condition)
        residual_bindings = [bindings_of(r) for r in residuals]
        # One compiled filter per set of residuals that become ready
        # together; which sets occur depends on the binding's join order.
        filters: dict[tuple[int, ...], StackFn] = {}

        def apply_ready(node, joined, pending, ctx) -> PlanNode:
            if not pending:
                return node
            ready = tuple(i for i in pending if residual_bindings[i] <= joined)
            if not ready:
                return node
            for i in ready:
                pending.remove(i)
            add_filter = filters.get(ready)
            if add_filter is None:
                # Threads sharing a template may both miss; they compile
                # equal filters and the first one stored wins.
                add_filter = filters.setdefault(
                    ready,
                    self._prepare_filter(
                        conjoin([residuals[i] for i in ready]), context
                    ),
                )
            return add_filter(node, ctx)

        def build(ctx) -> PlanNode:
            pending = list(range(len(residuals)))
            if len(scans) == 1:
                binding, scan = scans[0]
                return apply_ready(scan(ctx), {binding}, pending, ctx)
            remaining = {binding: scan(ctx) for binding, scan in scans}
            start = min(remaining, key=lambda b: remaining[b].est_rows)
            current = remaining.pop(start)
            joined = {start}
            pending_conditions = list(conditions)
            current = apply_ready(current, joined, pending, ctx)
            while remaining:
                binding, applicable = _pick_next_join(
                    current, joined, remaining, pending_conditions
                )
                current = _build_join(
                    current, remaining.pop(binding), applicable, joined
                )
                joined.add(binding)
                for condition in applicable:
                    pending_conditions.remove(condition)
                current = apply_ready(current, joined, pending, ctx)
            return current

        return build

    def _prepare_filter(
        self, condition: ast.Expression, context: _QueryContext
    ) -> StackFn:
        selectivity = estimate_selectivity(condition, context.resolve)
        ops = count_operators(condition)

        def add_filter(child: PlanNode, ctx) -> PlanNode:
            est_rows = max(child.est_rows * evaluate(selectivity, ctx), 0.0)
            cost = costs.Cost(
                child.cost.startup,
                child.cost.total
                + child.est_rows * evaluate(ops, ctx) * costs.CPU_OPERATOR_COST,
            )
            return FilterNode(
                est_rows=est_rows, cost=cost, child=child, condition=condition
            )

        return add_filter

    # -- literal (outer-join-preserving) join planning -----------------------------

    def _prepare_join_tree(
        self, node: ast.TableExpression, context: _QueryContext
    ) -> tuple[NodeFn, set[str]]:
        """The tree's costing function and the bindings it scans."""
        if isinstance(node, (ast.TableRef, ast.DerivedTable)):
            return self._prepare_scan(node, [], context), {_binding_name(node)}
        assert isinstance(node, ast.Join)
        left, left_bindings = self._prepare_join_tree(node.left, context)
        right, right_bindings = self._prepare_join_tree(node.right, context)
        conjuncts = split_conjuncts(node.condition)
        equi = [c for c in map(_as_equi_condition, conjuncts) if c is not None]
        for condition in equi:
            context.resolve_join(condition)
        residual = conjoin([c for c in conjuncts if _as_equi_condition(c) is None])
        residual_selectivity = estimate_selectivity(residual, context.resolve)
        join_type = node.join_type
        if join_type == "right":
            left, right = right, left
            left_bindings, right_bindings = right_bindings, left_bindings
            join_type = "left"

        def build(ctx) -> PlanNode:
            return _build_join(
                left(ctx),
                right(ctx),
                equi,
                left_bindings,
                join_type=join_type,
                residual=residual,
                residual_selectivity=evaluate(residual_selectivity, ctx),
            )

        return build, left_bindings | right_bindings

    # -- aggregation and finalization ------------------------------------------------

    def _prepare_aggregate(
        self, statement: ast.SelectStatement, context: _QueryContext
    ) -> StackFn:
        aggregate_calls = _collect_aggregates(statement)
        group_ndv = (
            _ndv_product(statement.group_by, context)
            if statement.group_by
            else None
        )
        having = (
            estimate_selectivity(statement.having, context.resolve)
            if statement.having is not None
            else None
        )

        def add_aggregate(child: PlanNode, ctx) -> PlanNode:
            groups = (
                1.0
                if group_ndv is None
                else float(min(group_ndv, max(child.est_rows, 1.0)))
            )
            cost = costs.aggregate_cost(
                child.cost, child.est_rows, groups, len(aggregate_calls)
            )
            est_rows = groups
            if having is not None:
                est_rows *= evaluate(having, ctx)
                cost = cost.plus(groups * costs.CPU_OPERATOR_COST)
            return AggregateNode(
                est_rows=max(est_rows, 0.0),
                cost=cost,
                child=child,
                group_exprs=statement.group_by,
                aggregate_calls=aggregate_calls,
                having=statement.having,
            )

        return add_aggregate

    def _prepare_finalize(
        self, bound: BoundQuery, context: _QueryContext, projected: bool
    ) -> StackFn:
        """Sort, projection, DISTINCT, and LIMIT over the body; a FROM-less
        result row is neither sorted nor projected."""
        statement = bound.statement
        order_items = (
            _resolve_order_aliases(statement)
            if projected and statement.order_by
            else None
        )
        project_ops = _total_operators([i.expression for i in statement.select_items])
        distinct_ndv = (
            _ndv_product([i.expression for i in statement.select_items], context)
            if statement.distinct
            else None
        )

        def finalize(node: PlanNode, ctx) -> PlanNode:
            if order_items is not None:
                node = SortNode(
                    est_rows=node.est_rows,
                    cost=costs.sort_cost(node.cost, node.est_rows),
                    child=node,
                    order_items=order_items,
                )
            if projected:
                node = ProjectNode(
                    est_rows=node.est_rows,
                    cost=costs.project_cost(
                        node.cost, node.est_rows, evaluate(project_ops, ctx)
                    ),
                    child=node,
                    items=statement.select_items,
                    output_names=bound.output_names,
                    output_types=bound.output_types,
                )
            if distinct_ndv is not None:
                distinct_rows = float(min(distinct_ndv, max(node.est_rows, 1.0)))
                node = DistinctNode(
                    est_rows=distinct_rows,
                    cost=costs.aggregate_cost(
                        node.cost, node.est_rows, distinct_rows, 0
                    ),
                    child=node,
                )
            if statement.limit is not None or statement.offset is not None:
                limit = (
                    statement.limit if statement.limit is not None else node.est_rows
                )
                offset = statement.offset or 0
                fetched = min(float(limit) + offset, max(node.est_rows, 0.0))
                node = LimitNode(
                    est_rows=max(min(float(limit), node.est_rows - offset), 0.0),
                    cost=costs.limit_cost(node.cost, node.est_rows, fetched),
                    child=node,
                    limit=statement.limit,
                    offset=statement.offset,
                )
            return node

        return finalize


# -- costing helpers -----------------------------------------------------------------


def _plan_subqueries(subqueries, ctx) -> dict[int, SubPlan]:
    return {
        key: SubPlan(kind, skeleton._build(ctx))
        for key, (kind, skeleton) in subqueries.items()
    }


def _conditions_selectivity(conditions: list[_JoinCondition]) -> float:
    selectivity = 1.0
    for condition in conditions:
        selectivity *= condition.selectivity
    return selectivity


def _pick_next_join(
    current: PlanNode,
    joined: set[str],
    remaining: dict[str, PlanNode],
    conditions: list[_JoinCondition],
) -> tuple[str, list[_JoinCondition]]:
    best: tuple[float, str, list[_JoinCondition]] | None = None
    for binding, node in remaining.items():
        applicable = [
            c
            for c in conditions
            if c.bindings <= (joined | {binding}) and binding in c.bindings
        ]
        selectivity = _conditions_selectivity(applicable)
        out_rows = max(current.est_rows * node.est_rows * selectivity, 0.0)
        # Prefer connected joins; cross joins sort after every connected one.
        rank = (0.0 if applicable else 1e18) + out_rows
        if best is None or rank < best[0]:
            best = (rank, binding, applicable)
    assert best is not None
    return best[1], best[2]


def _build_join(
    left: PlanNode,
    right: PlanNode,
    conditions: list[_JoinCondition],
    left_bindings: set[str],
    join_type: str = "inner",
    residual: ast.Expression | None = None,
    residual_selectivity: float = 1.0,
) -> PlanNode:
    out_rows = max(
        left.est_rows * right.est_rows * _conditions_selectivity(conditions), 0.0
    )
    if residual is not None:
        out_rows *= residual_selectivity
    if join_type in ("left", "full"):
        out_rows = max(out_rows, left.est_rows)
    if join_type in ("right", "full"):
        out_rows = max(out_rows, right.est_rows)
    if conditions:
        # Orient keys: left_keys must reference the left subtree.
        left_keys, right_keys = [], []
        for condition in conditions:
            if condition.left_binding in left_bindings:
                left_keys.append(condition.left_expr)
                right_keys.append(condition.right_expr)
            else:
                left_keys.append(condition.right_expr)
                right_keys.append(condition.left_expr)
        cost = costs.hash_join_cost(
            left.cost, right.cost, left.est_rows, right.est_rows, out_rows
        )
        return HashJoinNode(
            est_rows=out_rows,
            cost=cost,
            left=left,
            right=right,
            left_keys=left_keys,
            right_keys=right_keys,
            join_type=join_type,
            residual=residual,
        )
    if join_type == "cross" or (join_type == "inner" and residual is None):
        out_rows = max(left.est_rows * right.est_rows, 0.0)
    cost = costs.nested_loop_cost(
        left.cost, right.cost, left.est_rows, right.est_rows, out_rows
    )
    return NestedLoopJoinNode(
        est_rows=out_rows,
        cost=cost,
        left=left,
        right=right,
        condition=residual,
        join_type=join_type,
    )


def _total_operators(expressions: list[ast.Expression]):
    """The summed operator counts of *expressions*; compiled when
    placeholders feed any of them."""
    counts = [count_operators(e) for e in expressions]
    dynamic = [c for c in counts if callable(c)]
    static = sum(c for c in counts if not callable(c))
    if dynamic:
        return lambda ctx: static + sum(c(ctx) for c in dynamic)
    return static


def _ndv_product(expressions: list[ast.Expression], context: _QueryContext) -> float:
    """The distinct-value product bounding GROUP BY / DISTINCT output."""
    product = 1.0
    for expression in expressions:
        if isinstance(expression, ast.ColumnRef):
            stats = context.resolve(expression.table, expression.column)
            ndv = stats.distinct_count if stats else _UNKNOWN_GROUP_NDV
        else:
            ndv = _UNKNOWN_GROUP_NDV
        product *= max(ndv, 1.0)
    return product


# -- AST helpers -----------------------------------------------------------------------


def _needs_aggregation(statement: ast.SelectStatement) -> bool:
    if statement.group_by:
        return True
    clause_exprs = [i.expression for i in statement.select_items]
    if statement.having is not None:
        clause_exprs.append(statement.having)
    clause_exprs.extend(o.expression for o in statement.order_by)
    for expression in clause_exprs:
        for node in ast.shallow_walk(expression):
            if isinstance(node, ast.FunctionCall) and node.is_aggregate:
                return True
    return False


def _has_outer_join(node: ast.TableExpression) -> bool:
    for item in node.walk():
        if isinstance(item, ast.Join) and item.join_type in ("left", "right", "full"):
            return True
    return False


def _flatten_inner_joins(
    node: ast.TableExpression,
    sources: list[ast.TableExpression],
    conjuncts: list[ast.Expression],
) -> None:
    if isinstance(node, ast.Join):
        _flatten_inner_joins(node.left, sources, conjuncts)
        _flatten_inner_joins(node.right, sources, conjuncts)
        if node.condition is not None:
            conjuncts.extend(split_conjuncts(node.condition))
    else:
        sources.append(node)


def _binding_name(source: ast.TableExpression) -> str:
    if isinstance(source, ast.TableRef):
        return source.binding_name
    if isinstance(source, ast.DerivedTable):
        return source.alias
    raise UnsupportedSqlError(f"unsupported FROM item: {type(source).__name__}")


def _index_key(conjunct: ast.Expression, binding: str):
    """``(column, constant)`` when an index on the binding's column could
    serve *conjunct*, else None.

    Recognizes ``col <op> constant`` and ``constant <op> col``, where the
    index applies once the constant folds to a non-NULL value (*constant*
    is compiled when a placeholder feeds it), and ``col BETWEEN`` and
    ``col IN (...)``, which always apply (*constant* is True).
    """
    if isinstance(conjunct, ast.BinaryOp) and conjunct.op in (
        "=", "<", "<=", ">", ">=",
    ):
        left, right = conjunct.left, conjunct.right
        if isinstance(left, ast.ColumnRef) and left.table == binding:
            constant = compile_constant(right)
            if constant is not None:
                return left.column, constant
        if isinstance(right, ast.ColumnRef) and right.table == binding:
            constant = compile_constant(left)
            if constant is not None:
                return right.column, constant
    if isinstance(conjunct, (ast.Between, ast.InList)) and not conjunct.negated:
        if (
            isinstance(conjunct.operand, ast.ColumnRef)
            and conjunct.operand.table == binding
        ):
            return conjunct.operand.column, True
    return None


def _as_equi_condition(conjunct: ast.Expression) -> _JoinCondition | None:
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
        return None
    left, right = conjunct.left, conjunct.right
    if not (isinstance(left, ast.ColumnRef) and isinstance(right, ast.ColumnRef)):
        return None
    if left.table is None or right.table is None or left.table == right.table:
        return None
    return _JoinCondition(
        left_expr=left,
        right_expr=right,
        left_binding=left.table,
        right_binding=right.table,
    )


def _collect_aggregates(statement: ast.SelectStatement) -> list[ast.FunctionCall]:
    calls: list[ast.FunctionCall] = []
    clauses: list[ast.Expression] = [i.expression for i in statement.select_items]
    if statement.having is not None:
        clauses.append(statement.having)
    clauses.extend(o.expression for o in statement.order_by)
    for clause in clauses:
        for node in ast.shallow_walk(clause):
            if isinstance(node, ast.FunctionCall) and node.is_aggregate:
                calls.append(node)
    return calls


def _resolve_order_aliases(statement: ast.SelectStatement) -> list[ast.OrderItem]:
    """Replace ORDER BY references to select aliases with the aliased
    expression, so sort keys can always be evaluated pre-projection."""
    aliases: dict[str, ast.Expression] = {}
    for item in statement.select_items:
        if item.alias:
            aliases[item.alias] = item.expression
    resolved = []
    for order in statement.order_by:
        expression = order.expression
        if (
            isinstance(expression, ast.ColumnRef)
            and expression.table is None
            and expression.column in aliases
        ):
            expression = aliases[expression.column]
        elif isinstance(expression, ast.Literal) and isinstance(expression.value, int):
            # ORDER BY <position>
            index = expression.value - 1
            if 0 <= index < len(statement.select_items):
                expression = statement.select_items[index].expression
        resolved.append(ast.OrderItem(expression, order.descending))
    return resolved
