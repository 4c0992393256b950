"""Seeded, schema-aware SQL grammar for the fuzzer.

The generator follows the pyrqg idiom — weighted productions drawn with a
seeded RNG — but grows the statement directly as a
:mod:`repro.sqldb.ast_nodes` tree over the live :class:`Catalog` instead of
splicing text.  That keeps every statement valid by construction: column
references come from the schema, join conditions follow declared foreign
keys (falling back to type-compatible column pairs), and literals are drawn
from the optimizer's own :class:`ColumnStats` (MCVs, histogram bounds,
min/max) so predicates land on realistic selectivities rather than always
matching zero rows.

Reproducibility contract: the statement at index *i* depends only on
``(seed, GRAMMAR_VERSION, schema)``.  Each statement gets its own
:class:`random.Random` seeded from that triple, so streams are prefix-stable
(``statements(200)`` is a prefix of ``statements(500)``) and independent of
how much randomness earlier statements consumed.  Bump
:data:`GRAMMAR_VERSION` whenever a production change would alter the stream;
corpus entries record the version they were generated under.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.fastpath.compiled import literal_expression
from repro.sqldb import ast_nodes as ast
from repro.sqldb.catalog import Catalog
from repro.sqldb.sql_render import render_statement
from repro.sqldb.stats import ColumnStats
from repro.sqldb.types import SqlType, days_to_date

GRAMMAR_VERSION = "2"  # v2: DML shapes (INSERT/UPDATE/DELETE)

# Statement-shape weights (pyrqg-style production table).
_SHAPES = [
    ("simple", 30),
    ("join", 20),
    ("aggregate", 14),
    ("union", 7),
    ("subquery", 11),
    ("derived", 7),
    ("insert", 6),
    ("update", 7),
    ("delete", 4),
]

#: The write-path shapes added in grammar v2.  Read-only harnesses (the
#: SELECT reference-model sweep, tightening checks) filter these out; the
#: DML differential battery filters everything else out.
DML_SHAPES = frozenset({"insert", "update", "delete"})

#: The original read-only statement shapes.
SELECT_SHAPES = frozenset(name for name, _ in _SHAPES) - DML_SHAPES

_NUMERIC_OPS = ["=", "<>", "<", "<=", ">", ">="]
_TEXT_OPS = ["=", "<>", "<", ">"]


@dataclass(frozen=True)
class GeneratedStatement:
    """One fuzz case: the statement plus an optional tightened variant.

    ``tightened_sql`` is the same statement with one extra conjunct ANDed
    into the WHERE clause; by monotonicity it can never return *more* rows,
    which the execution oracle asserts.  None when the statement shape makes
    tightening non-monotonic (grouping, HAVING) or structurally awkward
    (set operations).
    """

    index: int
    sql: str
    shape: str
    tightened_sql: str | None = None


@dataclass(frozen=True)
class _Col:
    """A column visible in the current scope, under a specific binding."""

    binding: str
    table: str
    name: str
    sql_type: SqlType
    stats: ColumnStats | None

    def ref(self) -> ast.ColumnRef:
        return ast.ColumnRef(column=self.name, table=self.binding)


class FuzzGrammar:
    """Weighted-production statement generator over a live catalog."""

    def __init__(self, catalog: Catalog, seed: int = 0):
        if not catalog.table_names:
            raise ValueError("fuzz grammar needs at least one table")
        self.catalog = catalog
        self.seed = seed

    # -- public API ------------------------------------------------------------

    def statement(self, index: int) -> GeneratedStatement:
        """The statement at *index* — a pure function of (seed, version,
        schema, index)."""
        rng = self._rng(index)
        shape = _weighted(rng, _SHAPES)
        builder = getattr(self, f"_shape_{shape}")
        stmt, scope = builder(rng)
        tightened = self._tighten(stmt, scope, rng)
        return GeneratedStatement(
            index=index,
            sql=render_statement(stmt),
            shape=shape,
            tightened_sql=render_statement(tightened) if tightened else None,
        )

    def statements(
        self,
        count: int,
        start: int = 0,
        shapes: frozenset[str] | set[str] | None = None,
    ) -> list[GeneratedStatement]:
        """The first *count* statements from index *start* on.

        With *shapes*, the stream is filtered to those statement shapes:
        indexes keep advancing until *count* matching statements are
        collected, so the result is still a deterministic pure function of
        (seed, version, schema, shapes) — filtering never re-rolls any
        statement's RNG.  Every shape has positive weight, so the walk
        terminates.
        """
        if shapes is None:
            return [self.statement(start + i) for i in range(count)]
        out: list[GeneratedStatement] = []
        index = start
        while len(out) < count:
            gen = self.statement(index)
            if gen.shape in shapes:
                out.append(gen)
            index += 1
        return out

    def predicate(
        self,
        scope: list[_Col],
        rng: random.Random,
        depth: int = 0,
        allow_subqueries: bool = False,
    ) -> ast.Expression:
        """A boolean expression over *scope* — also the production driving
        the NULL three-valued-logic property tests."""
        roll = rng.random()
        if depth < 2 and roll < 0.30:
            left = self.predicate(scope, rng, depth + 1, allow_subqueries)
            right = self.predicate(scope, rng, depth + 1, allow_subqueries)
            return ast.BinaryOp(rng.choice(["and", "or"]), left, right)
        if depth < 2 and roll < 0.38:
            return ast.UnaryOp(
                "not", self.predicate(scope, rng, depth + 1, allow_subqueries)
            )
        if allow_subqueries and roll > 0.9:
            sub = self._subquery_predicate(scope, rng)
            if sub is not None:
                return sub
        return self._leaf_predicate(scope, rng)

    def columns_of(self, table: str, binding: str | None = None) -> list[_Col]:
        binding = binding or table
        meta = self.catalog.table(table)
        return [
            _Col(binding, table, c.name, c.sql_type, c.stats)
            for c in meta.columns
        ]

    def statement_rng(self, index: int) -> random.Random:
        """Public handle on the per-index RNG (used by the oracles to derive
        perturbations that stay reproducible)."""
        return self._rng(index)

    # -- internals -------------------------------------------------------------

    def _rng(self, index: int) -> random.Random:
        # str seeds hash via SHA-512: deterministic across runs and platforms.
        return random.Random(f"fuzz:{self.seed}:{GRAMMAR_VERSION}:{index}")

    def _pick_table(self, rng: random.Random) -> str:
        return rng.choice(sorted(self.catalog.table_names))

    # -- statement shapes ------------------------------------------------------

    def _shape_simple(self, rng) -> tuple[ast.SelectStatement, list[_Col]]:
        table = self._pick_table(rng)
        scope = self.columns_of(table, "t0")
        items = self._select_items(scope, rng)
        stmt = ast.SelectStatement(
            select_items=items,
            from_clause=ast.TableRef(table, alias="t0"),
            where=self._maybe_where(scope, rng, 0.8, allow_subqueries=False),
            distinct=rng.random() < 0.10 and self._plain_items(items),
        )
        self._order_limit(stmt, rng)
        return stmt, scope

    def _shape_join(self, rng) -> tuple[ast.SelectStatement, list[_Col]]:
        names = sorted(self.catalog.table_names)
        width = 2 if len(names) < 3 or rng.random() < 0.7 else 3
        tables = [rng.choice(names) for _ in range(width)]
        scopes = [
            self.columns_of(t, f"t{i}") for i, t in enumerate(tables)
        ]
        tree: ast.TableExpression = ast.TableRef(tables[0], alias="t0")
        visible = list(scopes[0])
        for i in range(1, width):
            join_type = _weighted(
                rng,
                [("inner", 50), ("left", 20), ("right", 10), ("full", 8), ("cross", 12)],
            )
            right = ast.TableRef(tables[i], alias=f"t{i}")
            condition = None
            if join_type != "cross":
                condition = self._join_condition(visible, scopes[i], rng)
                if condition is None:
                    join_type = "cross"
            tree = ast.Join(join_type, tree, right, condition)
            visible.extend(scopes[i])
        items = self._select_items(visible, rng)
        stmt = ast.SelectStatement(
            select_items=items,
            from_clause=tree,
            where=self._maybe_where(visible, rng, 0.7, allow_subqueries=False),
        )
        self._order_limit(stmt, rng)
        return stmt, visible

    def _shape_aggregate(self, rng) -> tuple[ast.SelectStatement, list[_Col]]:
        table = self._pick_table(rng)
        scope = self.columns_of(table, "t0")
        group_cols = rng.sample(scope, k=rng.choice([0, 1, 1, 2]))
        items = [ast.SelectItem(c.ref()) for c in group_cols]
        aggregates = self._aggregates(scope, rng, count=rng.choice([1, 1, 2]))
        for i, agg in enumerate(aggregates):
            items.append(ast.SelectItem(agg, alias=f"agg{i}"))
        stmt = ast.SelectStatement(
            select_items=items,
            from_clause=ast.TableRef(table, alias="t0"),
            where=self._maybe_where(scope, rng, 0.6, allow_subqueries=False),
            group_by=[c.ref() for c in group_cols],
        )
        if group_cols and rng.random() < 0.4:
            # HAVING reuses an aggregate that already appears in the select
            # list, the one combination every SQL engine accepts.
            agg = rng.choice(aggregates)
            stmt.having = ast.BinaryOp(
                rng.choice([">", ">=", "<"]),
                _copy_expression(agg),
                ast.Literal(rng.choice([0, 1, 2, 5])),
            )
        if rng.random() < 0.4:
            position = rng.randrange(len(items)) + 1
            stmt.order_by = [
                ast.OrderItem(ast.Literal(position), descending=rng.random() < 0.5)
            ]
        return stmt, scope

    def _shape_union(self, rng) -> tuple[ast.CompoundSelect, list[_Col]]:
        table = self._pick_table(rng)
        scope = self.columns_of(table, "t0")
        cols = rng.sample(scope, k=min(len(scope), rng.choice([1, 2, 2])))
        branches = []
        n_branches = rng.choice([2, 2, 3])
        for _ in range(n_branches):
            branches.append(
                ast.SelectStatement(
                    select_items=[ast.SelectItem(c.ref()) for c in cols],
                    from_clause=ast.TableRef(table, alias="t0"),
                    where=self._maybe_where(scope, rng, 0.9, allow_subqueries=False),
                )
            )
        ops = [
            rng.choice(["union", "union all"]) for _ in range(n_branches - 1)
        ]
        return ast.CompoundSelect(selects=branches, ops=ops), scope

    def _shape_subquery(self, rng) -> tuple[ast.SelectStatement, list[_Col]]:
        stmt, scope = self._shape_simple(rng)
        sub = self._subquery_predicate(scope, rng)
        if sub is not None:
            stmt.where = (
                sub if stmt.where is None else ast.BinaryOp("and", stmt.where, sub)
            )
        return stmt, scope

    def _shape_derived(self, rng) -> tuple[ast.SelectStatement, list[_Col]]:
        table = self._pick_table(rng)
        inner_scope = self.columns_of(table, "t0")
        cols = rng.sample(inner_scope, k=min(len(inner_scope), rng.choice([1, 2])))
        inner = ast.SelectStatement(
            select_items=[
                ast.SelectItem(c.ref(), alias=f"c{i}") for i, c in enumerate(cols)
            ],
            from_clause=ast.TableRef(table, alias="t0"),
            where=self._maybe_where(inner_scope, rng, 0.8, allow_subqueries=False),
        )
        # The derived table's columns keep their source statistics so outer
        # predicates still draw realistic literals.
        outer_scope = [
            _Col("d", table, f"c{i}", c.sql_type, c.stats)
            for i, c in enumerate(cols)
        ]
        if rng.random() < 0.5:
            items = [
                ast.SelectItem(
                    ast.FunctionCall("count", [ast.Star()]), alias="n"
                )
            ]
            outer_where = None
        else:
            items = [ast.SelectItem(c.ref()) for c in outer_scope]
            outer_where = self._maybe_where(
                outer_scope, rng, 0.5, allow_subqueries=False
            )
        stmt = ast.SelectStatement(
            select_items=items,
            from_clause=ast.DerivedTable(inner, alias="d"),
            where=outer_where,
        )
        return stmt, outer_scope

    # -- DML shapes ------------------------------------------------------------
    #
    # DML statements are valid by construction like the SELECT shapes: the
    # column list always covers every NOT NULL (and primary key) column, and
    # literals come from the target column's own statistics.  Tightening is
    # skipped (there is no monotone row-count relation to assert); instead
    # the DmlEpochOracle and the differential reference model check them.

    def _insert_columns(self, table: str, rng) -> list[_Col]:
        """Target columns: all NOT NULL / PK columns plus a random subset."""
        meta = self.catalog.table(table)
        scope = self.columns_of(table)
        required = {
            c.name
            for c in meta.columns
            if not c.column_type.nullable or c.name in meta.primary_key
        }
        chosen = [c for c in scope if c.name in required]
        optional = [c for c in scope if c.name not in required]
        for col in optional:
            if rng.random() < 0.7:
                chosen.append(col)
        if not chosen:
            chosen = [rng.choice(scope)]
        # Keep table column order so rendered SQL is stable.
        order = {c.name: i for i, c in enumerate(scope)}
        return sorted(chosen, key=lambda c: order[c.name])

    def _nullable(self, col: _Col) -> bool:
        meta = self.catalog.table(col.table)
        return (
            meta.column(col.name).column_type.nullable
            and col.name not in meta.primary_key
        )

    def _shape_insert(self, rng) -> tuple[ast.InsertStatement, list[_Col]]:
        table = self._pick_table(rng)
        targets = self._insert_columns(table, rng)
        names = [c.name for c in targets]
        if rng.random() < 0.2:
            # INSERT ... SELECT from the same table: types line up by
            # construction; LIMIT bounds the growth per statement.
            source = ast.SelectStatement(
                select_items=[
                    ast.SelectItem(ast.ColumnRef(column=c.name, table="s0"))
                    for c in targets
                ],
                from_clause=ast.TableRef(table, alias="s0"),
                where=self._maybe_where(
                    self.columns_of(table, "s0"), rng, 0.7,
                    allow_subqueries=False,
                ),
                limit=rng.choice([1, 2, 5]),
            )
            stmt = ast.InsertStatement(
                target=ast.TableRef(table), columns=names, source=source
            )
            return stmt, []
        rows = []
        for _ in range(rng.choice([1, 1, 2, 3])):
            row: list[ast.Expression] = []
            for col in targets:
                if self._nullable(col) and rng.random() < 0.1:
                    row.append(ast.Literal(None))
                else:
                    row.append(self._literal(col, rng))
            rows.append(row)
        stmt = ast.InsertStatement(
            target=ast.TableRef(table), columns=names, rows=rows
        )
        return stmt, []

    def _shape_update(self, rng) -> tuple[ast.UpdateStatement, list[_Col]]:
        table = self._pick_table(rng)
        # UPDATE targets bind under the bare table name (no alias).
        scope = self.columns_of(table)
        k = min(len(scope), rng.choice([1, 1, 2]))
        assignments = []
        for col in rng.sample(scope, k=k):
            roll = rng.random()
            if self._nullable(col) and roll < 0.08:
                value: ast.Expression = ast.Literal(None)
            elif col.sql_type.is_numeric and roll < 0.4:
                value = ast.BinaryOp(
                    rng.choice(["+", "-"]),
                    col.ref(),
                    ast.Literal(rng.choice([1, 2, 10])),
                )
            else:
                value = self._literal(col, rng)
            assignments.append(ast.Assignment(col.name, value))
        stmt = ast.UpdateStatement(
            target=ast.TableRef(table),
            assignments=assignments,
            where=self._maybe_where(scope, rng, 0.85, allow_subqueries=False),
        )
        return stmt, []

    def _shape_delete(self, rng) -> tuple[ast.DeleteStatement, list[_Col]]:
        table = self._pick_table(rng)
        scope = self.columns_of(table)
        stmt = ast.DeleteStatement(
            target=ast.TableRef(table),
            where=self._maybe_where(scope, rng, 0.9, allow_subqueries=False),
        )
        return stmt, []

    # -- clause helpers --------------------------------------------------------

    def _select_items(self, scope: list[_Col], rng) -> list[ast.SelectItem]:
        cols = rng.sample(scope, k=min(len(scope), rng.choice([1, 2, 2, 3])))
        items = []
        for i, col in enumerate(cols):
            expr: ast.Expression = col.ref()
            roll = rng.random()
            if roll < 0.08 and col.sql_type is SqlType.TEXT:
                expr = ast.FunctionCall(rng.choice(["length", "upper", "lower"]), [expr])
            elif roll < 0.14 and col.sql_type.is_numeric:
                expr = ast.FunctionCall("abs", [expr])
            elif roll < 0.20:
                expr = ast.FunctionCall(
                    "coalesce", [expr, self._literal(col, rng)]
                )
            elif roll < 0.26:
                expr = ast.CaseWhen(
                    whens=[(self._leaf_predicate(scope, rng), ast.Literal(1))],
                    default=ast.Literal(0),
                )
            alias = f"e{i}" if not isinstance(expr, ast.ColumnRef) else None
            items.append(ast.SelectItem(expr, alias=alias))
        return items

    @staticmethod
    def _plain_items(items: list[ast.SelectItem]) -> bool:
        return all(isinstance(i.expression, ast.ColumnRef) for i in items)

    def _maybe_where(
        self, scope, rng, probability: float, allow_subqueries: bool
    ) -> ast.Expression | None:
        if rng.random() >= probability:
            return None
        return self.predicate(scope, rng, allow_subqueries=allow_subqueries)

    def _order_limit(self, stmt: ast.SelectStatement, rng) -> None:
        if rng.random() < 0.4:
            positions = rng.sample(
                range(1, len(stmt.select_items) + 1),
                k=min(len(stmt.select_items), rng.choice([1, 1, 2])),
            )
            stmt.order_by = [
                ast.OrderItem(ast.Literal(p), descending=rng.random() < 0.4)
                for p in positions
            ]
        if rng.random() < 0.3:
            stmt.limit = rng.choice([1, 5, 10, 50])
            if rng.random() < 0.3:
                stmt.offset = rng.choice([1, 3, 10])

    def _aggregates(self, scope, rng, count: int) -> list[ast.Expression]:
        numeric = [c for c in scope if c.sql_type.is_numeric]
        out: list[ast.Expression] = []
        for _ in range(count):
            roll = rng.random()
            if roll < 0.3 or not numeric:
                out.append(ast.FunctionCall("count", [ast.Star()]))
            elif roll < 0.45:
                col = rng.choice(scope)
                out.append(
                    ast.FunctionCall(
                        "count", [col.ref()], distinct=rng.random() < 0.5
                    )
                )
            else:
                col = rng.choice(numeric)
                out.append(
                    ast.FunctionCall(
                        rng.choice(["sum", "avg", "min", "max"]), [col.ref()]
                    )
                )
        return out

    def _join_condition(
        self, left_scope: list[_Col], right_scope: list[_Col], rng
    ) -> ast.Expression | None:
        # Prefer declared foreign keys between any visible pair.
        candidates = []
        for fk in self.catalog.foreign_keys:
            for lc in left_scope:
                for rc in right_scope:
                    if (
                        fk.table == lc.table
                        and fk.column == lc.name
                        and fk.ref_table == rc.table
                        and fk.ref_column == rc.name
                    ) or (
                        fk.table == rc.table
                        and fk.column == rc.name
                        and fk.ref_table == lc.table
                        and fk.ref_column == lc.name
                    ):
                        candidates.append((lc, rc))
        if not candidates:
            candidates = [
                (lc, rc)
                for lc in left_scope
                for rc in right_scope
                if lc.sql_type.is_numeric and rc.sql_type.is_numeric
            ]
        if not candidates:
            return None
        lc, rc = rng.choice(candidates)
        return ast.BinaryOp("=", lc.ref(), rc.ref())

    def _subquery_predicate(self, scope, rng) -> ast.Expression | None:
        inner_table = self._pick_table(rng)
        inner_scope = self.columns_of(inner_table, "s0")
        kind = _weighted(rng, [("in", 45), ("exists", 30), ("scalar", 25)])
        inner_where = self._maybe_where(inner_scope, rng, 0.7, allow_subqueries=False)
        if kind == "exists":
            sub = ast.SelectStatement(
                select_items=[ast.SelectItem(ast.Literal(1))],
                from_clause=ast.TableRef(inner_table, alias="s0"),
                where=inner_where,
            )
            return ast.Exists(sub, negated=rng.random() < 0.3)
        numeric_outer = [c for c in scope if c.sql_type.is_numeric]
        numeric_inner = [c for c in inner_scope if c.sql_type.is_numeric]
        if kind == "scalar":
            if not numeric_outer or not numeric_inner:
                return None
            outer = rng.choice(numeric_outer)
            inner_col = rng.choice(numeric_inner)
            sub = ast.SelectStatement(
                select_items=[
                    ast.SelectItem(
                        ast.FunctionCall(
                            rng.choice(["min", "max", "avg"]), [inner_col.ref()]
                        )
                    )
                ],
                from_clause=ast.TableRef(inner_table, alias="s0"),
                where=inner_where,
            )
            return ast.BinaryOp(
                rng.choice(_NUMERIC_OPS), outer.ref(), ast.ScalarSubquery(sub)
            )
        # IN (subquery): operand and subquery column must be comparable.
        pairs = [
            (o, i)
            for o in scope
            for i in inner_scope
            if (o.sql_type.is_numeric and i.sql_type.is_numeric)
            or o.sql_type is i.sql_type
        ]
        if not pairs:
            return None
        outer, inner_col = rng.choice(pairs)
        sub = ast.SelectStatement(
            select_items=[ast.SelectItem(inner_col.ref())],
            from_clause=ast.TableRef(inner_table, alias="s0"),
            where=inner_where,
        )
        return ast.InSubquery(outer.ref(), sub, negated=rng.random() < 0.3)

    # -- leaf predicates and literals -----------------------------------------

    def _leaf_predicate(self, scope, rng) -> ast.Expression:
        col = rng.choice(scope)
        roll = rng.random()
        if roll < 0.12:
            return ast.IsNull(col.ref(), negated=rng.random() < 0.5)
        if col.sql_type is SqlType.TEXT:
            if roll < 0.35:
                return ast.Like(
                    col.ref(),
                    ast.Literal(self._like_pattern(col, rng)),
                    negated=rng.random() < 0.2,
                    case_insensitive=rng.random() < 0.2,
                )
            if roll < 0.55:
                return self._in_list(col, rng)
            if roll < 0.60:
                # NULL comparisons bind only against TEXT (literal NULL
                # types as TEXT); always-unknown predicates are a feature.
                return ast.BinaryOp("=", col.ref(), ast.Literal(None))
            return ast.BinaryOp(
                rng.choice(_TEXT_OPS), col.ref(), self._literal(col, rng)
            )
        if col.sql_type is SqlType.BOOLEAN:
            return ast.BinaryOp(
                "=", col.ref(), ast.Literal(rng.random() < 0.5)
            )
        # Numeric or date.
        if roll < 0.30:
            low, high = self._range_pair(col, rng)
            return ast.Between(
                col.ref(), low, high, negated=rng.random() < 0.2
            )
        if roll < 0.45:
            return self._in_list(col, rng)
        return ast.BinaryOp(
            rng.choice(_NUMERIC_OPS), col.ref(), self._literal(col, rng)
        )

    def _in_list(self, col: _Col, rng) -> ast.Expression:
        n = rng.choice([1, 2, 3, 4])
        items = [self._literal(col, rng) for _ in range(n)]
        if rng.random() < 0.15:
            items.append(ast.Literal(None))
        return ast.InList(col.ref(), items, negated=rng.random() < 0.25)

    def _like_pattern(self, col: _Col, rng) -> str:
        values = [v for v in (col.stats.mcv_values if col.stats else []) if v]
        if values and rng.random() < 0.8:
            value = str(rng.choice(values))
            if rng.random() < 0.5:
                return value[: max(1, len(value) // 2)] + "%"
            mid = value[len(value) // 3 : 2 * len(value) // 3] or value[:1]
            return f"%{mid}%"
        return rng.choice(["%a%", "z%", "%_x%", "%"])

    def _range_pair(self, col: _Col, rng) -> tuple[ast.Expression, ast.Expression]:
        a = self._draw_value(col, rng)
        b = self._draw_value(col, rng)
        if isinstance(a, (int, float)) and isinstance(b, (int, float)) and b < a:
            a, b = b, a
        return (
            literal_expression(a, col.sql_type),
            literal_expression(b, col.sql_type),
        )

    def _literal(self, col: _Col, rng) -> ast.Expression:
        return literal_expression(self._draw_value(col, rng), col.sql_type)

    def _draw_value(self, col: _Col, rng):
        """A literal value for *col*, drawn from its statistics.

        Mixes MCVs (hit the common values), histogram bounds (hit each
        selectivity decile), min/max edges, and occasional out-of-domain
        values (zero-row predicates)."""
        stats = col.stats
        if col.sql_type is SqlType.BOOLEAN:
            return rng.random() < 0.5
        if stats is None:
            return self._default_value(col, rng)
        roll = rng.random()
        if roll < 0.35 and stats.mcv_values:
            return _coerce(rng.choice(stats.mcv_values), col.sql_type)
        if (
            roll < 0.7
            and stats.histogram is not None
            and stats.histogram.num_buckets > 0
        ):
            bound = rng.choice(list(stats.histogram.bounds))
            return _coerce(float(bound), col.sql_type)
        if roll < 0.85 and stats.min_value is not None:
            edge = rng.choice([stats.min_value, stats.max_value])
            return _coerce(edge, col.sql_type)
        if roll < 0.95 and stats.max_value is not None and not isinstance(
            stats.max_value, str
        ):
            # Out of domain: just past the maximum.
            return _coerce(float(stats.max_value) + rng.choice([1, 17, 1000]), col.sql_type)
        return self._default_value(col, rng)

    @staticmethod
    def _default_value(col: _Col, rng):
        if col.sql_type in (SqlType.INTEGER, SqlType.BIGINT):
            return rng.randrange(0, 100)
        if col.sql_type is SqlType.DOUBLE:
            return rng.randrange(0, 10000) / 100.0
        if col.sql_type is SqlType.DATE:
            return rng.randrange(9500, 12000)  # days since epoch, ~1996-2002
        return rng.choice(["alpha", "omega", "zzz_fuzz"])

    # -- tightening ------------------------------------------------------------

    def _tighten(
        self, stmt, scope: list[_Col], rng
    ) -> ast.SelectStatement | None:
        """The statement with one extra AND-conjunct (row-count monotone).

        Grouped/HAVING statements are excluded: removing input rows can
        flip which groups pass a HAVING filter, so the row-count ordering
        no longer holds.
        """
        if not isinstance(stmt, ast.SelectStatement):
            return None
        if stmt.group_by or stmt.having or stmt.from_clause is None:
            return None
        if any(
            isinstance(i.expression, ast.FunctionCall)
            and i.expression.is_aggregate
            for i in stmt.select_items
        ):
            return None
        if not scope:
            return None
        extra = self._leaf_predicate(scope, rng)
        tightened = _copy_statement(stmt)
        tightened.where = (
            extra
            if tightened.where is None
            else ast.BinaryOp("and", tightened.where, extra)
        )
        return tightened


def _weighted(rng: random.Random, table: list[tuple[str, int]]) -> str:
    total = sum(w for _, w in table)
    roll = rng.random() * total
    for name, weight in table:
        roll -= weight
        if roll < 0:
            return name
    return table[-1][0]


def _coerce(value, sql_type: SqlType):
    """Convert a stats-layer value (numpy scalar, float days...) into the
    Python value :func:`literal_expression` renders canonically."""
    if sql_type in (SqlType.INTEGER, SqlType.BIGINT):
        return int(round(float(value)))
    if sql_type is SqlType.DOUBLE:
        return round(float(value), 4)
    if sql_type is SqlType.DATE:
        if isinstance(value, str):
            return value
        return int(round(float(value)))
    if isinstance(value, (int, float)):
        return str(value)
    return str(value)


def _copy_statement(stmt: ast.SelectStatement) -> ast.SelectStatement:
    import copy

    return copy.deepcopy(stmt)


def _copy_expression(expr: ast.Expression) -> ast.Expression:
    import copy

    return copy.deepcopy(expr)


__all__ = [
    "DML_SHAPES",
    "GRAMMAR_VERSION",
    "SELECT_SHAPES",
    "FuzzGrammar",
    "GeneratedStatement",
    "days_to_date",
]
