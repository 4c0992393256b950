"""Write-path differential battery: the DML engine vs a naive dict model.

A reference model holds every table as a plain list of ``{column: value}``
dicts and implements INSERT/UPDATE/DELETE (plus the three-valued WHERE
logic the fuzz grammar can generate) in straight-line Python — no numpy,
no shared engine code beyond the AST and the date<->days convention.
After every grammar-fuzzed DML statement the battery compares, against the
engine:

* the reported ``rows_affected`` count;
* the *full* contents of the target table (floats via ``repr``, so the
  comparison is bit-level);
* every physical index of the mutated table — each distinct value's row
  positions plus the NULL positions — exercising the three maintenance
  paths (incremental append on INSERT, per-column drop on UPDATE, full
  drop on DELETE), with a periodic all-tables audit.

The acceptance bar is a 500-statement sweep with zero divergences.

The same model also evaluates the grammar's single-table ``simple``
SELECTs (WHERE, DISTINCT, LIMIT/OFFSET) and compares row multisets with
the engine: the executor's second opinion on reads.  Statements whose
LIMIT depends on ORDER BY, or whose functions or CASE the model would
have to evaluate, are skipped.
"""

from __future__ import annotations

import re

import pytest

from repro.fuzz import DML_SHAPES, FuzzGrammar, build_fuzz_database
from repro.sqldb import SqlType, date_to_days, parse_sql
from repro.sqldb import ast_nodes as ast
from repro.sqldb.errors import SqlError

SWEEP = 500
SEED = 71


# -- the reference model ----------------------------------------------------------


class RefConstraint(Exception):
    """The reference model's NOT NULL / bad-cast rejection."""


class RefUnsupported(Exception):
    """A construct the reference model does not evaluate."""


class RefModel:
    """Tables as lists of dicts; DML as loops; NULL as ``None``."""

    def __init__(self, db):
        self.types: dict[str, dict[str, SqlType]] = {}
        self.required: dict[str, set[str]] = {}
        self.order: dict[str, list[str]] = {}
        self.tables: dict[str, list[dict]] = {}
        self.unique: dict[str, list[tuple[str, ...]]] = {}
        for name in db.catalog.table_names:
            meta = db.catalog.table(name)
            self.order[name] = list(meta.column_names)
            self.types[name] = {c.name: c.sql_type for c in meta.columns}
            self.required[name] = {
                c.name
                for c in meta.columns
                if not c.column_type.nullable or c.name in meta.primary_key
            }
            self.tables[name] = [
                dict(zip(meta.column_names, row))
                for row in db.catalog.data(name).rows()
            ]
            # Uniqueness constraints, mirroring the engine's folding rule:
            # the (possibly composite) primary key plus every unique index
            # that is not just a restatement of a single-column PK.
            keys: list[tuple[str, ...]] = []
            if meta.primary_key:
                keys.append(tuple(meta.primary_key))
            for index in db.catalog.indexes_of(name):
                if index.unique and tuple(meta.primary_key) != (index.column,):
                    keys.append((index.column,))
            self.unique[name] = keys

    # -- statement application --------------------------------------------------

    def apply(self, statement) -> int:
        if isinstance(statement, ast.InsertStatement):
            return self._insert(statement)
        if isinstance(statement, ast.UpdateStatement):
            return self._update(statement)
        if isinstance(statement, ast.DeleteStatement):
            return self._delete(statement)
        raise AssertionError(f"not DML: {statement!r}")

    def _insert(self, statement: ast.InsertStatement) -> int:
        name = statement.target.name
        targets = statement.columns or self.order[name]
        if statement.source is not None:
            incoming = self._select(statement.source)
        else:
            incoming = [
                [_eval(value, {}, {})[0] for value in row]
                for row in statement.rows
            ]
        staged = []
        for values in incoming:
            row = {column: None for column in self.order[name]}
            for column, value in zip(targets, values):
                row[column] = self._coerce(name, column, value)
            staged.append(row)
        for row in staged:  # all-or-nothing, like the engine
            for column in self.required[name]:
                if row[column] is None:
                    raise RefConstraint(f"{name}.{column} is NOT NULL")
        self._check_unique(name, self.tables[name] + staged)
        self.tables[name].extend(staged)
        return len(staged)

    def _update(self, statement: ast.UpdateStatement) -> int:
        name = statement.target.name
        types = self.types[name]
        matched = self._matching(name, statement.where)
        staged: list[tuple[int, dict]] = []
        for position in matched:
            old = self.tables[name][position]
            changes = {}
            for assignment in statement.assignments:
                value, _ = _eval(assignment.value, old, types)
                changes[assignment.column] = self._coerce(
                    name, assignment.column, value
                )
            staged.append((position, changes))
        for _, changes in staged:
            for column, value in changes.items():
                if value is None and column in self.required[name]:
                    raise RefConstraint(f"{name}.{column} is NOT NULL")
        assigned = {a.column for a in statement.assignments}
        updated = list(self.tables[name])
        for position, changes in staged:
            updated[position] = {**updated[position], **changes}
        self._check_unique(name, updated, changed=assigned)
        self.tables[name] = updated
        return len(staged)

    def _delete(self, statement: ast.DeleteStatement) -> int:
        name = statement.target.name
        matched = set(self._matching(name, statement.where))
        before = len(self.tables[name])
        self.tables[name] = [
            row
            for position, row in enumerate(self.tables[name])
            if position not in matched
        ]
        return before - len(self.tables[name])

    def select(self, select) -> list[list]:
        """Evaluate a standalone single-table SELECT, or raise RefUnsupported.

        ORDER BY is accepted only where it cannot change which rows come
        back (no LIMIT/OFFSET), so callers compare row multisets.
        """
        if (
            not isinstance(select, ast.SelectStatement)
            or not isinstance(select.from_clause, ast.TableRef)
            or select.group_by
            or select.having is not None
            or (select.order_by and (select.limit or select.offset))
        ):
            raise RefUnsupported("statement shape")
        return self._select(select)

    def _select(self, select: ast.SelectStatement) -> list[list]:
        """Single-table SELECT in table order: WHERE, DISTINCT, LIMIT and
        OFFSET (the INSERT-source shape is the WHERE/LIMIT subset)."""
        assert isinstance(select.from_clause, ast.TableRef)
        name = select.from_clause.name
        types = self.types[name]
        out = []
        for row in list(self.tables[name]):  # snapshot: source may be target
            if select.where is not None:
                if _eval(select.where, row, types)[0] is not True:
                    continue
            out.append(
                [
                    _eval(item.expression, row, types)[0]
                    for item in select.select_items
                ]
            )
        if select.distinct:  # first occurrences, in table order
            out = [list(r) for r in dict.fromkeys(tuple(r) for r in out)]
        start = select.offset or 0
        stop = None if select.limit is None else start + select.limit
        return out[start:stop]

    def _matching(self, name: str, where) -> list[int]:
        types = self.types[name]
        return [
            position
            for position, row in enumerate(self.tables[name])
            if where is None or _eval(where, row, types)[0] is True
        ]

    def _check_unique(
        self, name: str, rows: list[dict], changed: set[str] | None = None
    ) -> None:
        """PK/unique-index enforcement over the would-be final table.

        NULL-containing keys never conflict; with *changed* given (UPDATE)
        constraints over untouched columns are skipped, like the engine.
        """
        for key_columns in self.unique[name]:
            if changed is not None and not (set(key_columns) & changed):
                continue
            seen = set()
            for row in rows:
                key = tuple(row[column] for column in key_columns)
                if any(value is None for value in key):
                    continue
                if key in seen:
                    raise RefConstraint(
                        f"duplicate key {key!r} in {name}{key_columns}"
                    )
                seen.add(key)

    def _coerce(self, table: str, column: str, value):
        """Mirror of the engine's write-side storage coercions."""
        sql_type = self.types[table][column]
        if value is None:
            return None
        try:
            if sql_type is SqlType.DATE:
                return date_to_days(value) if isinstance(value, str) else int(value)
            if sql_type in (SqlType.INTEGER, SqlType.BIGINT):
                return int(value)
            if sql_type is SqlType.DOUBLE:
                return float(value)
            if sql_type is SqlType.BOOLEAN:
                return bool(value)
            if not isinstance(value, str):
                raise ValueError(value)
            return value
        except ValueError:
            raise RefConstraint(f"bad cast into {table}.{column}") from None

    # -- index views ------------------------------------------------------------

    def index_of(self, table: str, column: str) -> tuple[dict, list[int]]:
        """(value -> ascending positions, NULL positions) for one column."""
        entries: dict = {}
        nulls: list[int] = []
        for position, row in enumerate(self.tables[table]):
            value = row[column]
            if value is None:
                nulls.append(position)
            else:
                entries.setdefault(value, []).append(position)
        return entries, nulls


# -- the tiny three-valued expression evaluator -----------------------------------
#
# Covers exactly what the DML productions can generate: literals, column
# refs, AND/OR/NOT, the six comparisons, + and - arithmetic, IS [NOT] NULL,
# [NOT] BETWEEN, [NOT] IN (list), [NOT] [I]LIKE.  Values are (value, type)
# pairs so DATE columns (ints) compare against ISO-string literals.


def _eval(expr, row: dict, types: dict):
    if isinstance(expr, ast.Literal):
        return expr.value, None
    if isinstance(expr, ast.ColumnRef):
        return row[expr.column], types.get(expr.column)
    if isinstance(expr, ast.UnaryOp):
        if expr.op == "not":
            value, _ = _eval(expr.operand, row, types)
            return (None if value is None else not value), SqlType.BOOLEAN
        value, sql_type = _eval(expr.operand, row, types)
        return (None if value is None else -value), sql_type
    if isinstance(expr, ast.BinaryOp):
        return _eval_binary(expr, row, types)
    if isinstance(expr, ast.IsNull):
        value, _ = _eval(expr.operand, row, types)
        result = value is None
        return (not result if expr.negated else result), SqlType.BOOLEAN
    if isinstance(expr, ast.Between):
        return _eval_between(expr, row, types)
    if isinstance(expr, ast.InList):
        return _eval_in_list(expr, row, types)
    if isinstance(expr, ast.Like):
        return _eval_like(expr, row, types)
    raise RefUnsupported(type(expr).__name__)


def _eval_binary(expr: ast.BinaryOp, row, types):
    op = expr.op
    if op in ("and", "or"):
        left, _ = _eval(expr.left, row, types)
        right, _ = _eval(expr.right, row, types)
        if op == "and":
            if left is False or right is False:
                return False, SqlType.BOOLEAN
            if left is None or right is None:
                return None, SqlType.BOOLEAN
            return True, SqlType.BOOLEAN
        if left is True or right is True:
            return True, SqlType.BOOLEAN
        if left is None or right is None:
            return None, SqlType.BOOLEAN
        return False, SqlType.BOOLEAN
    left, left_type = _eval(expr.left, row, types)
    right, right_type = _eval(expr.right, row, types)
    if op in ("+", "-", "*", "/"):
        if left is None or right is None:
            return None, left_type or right_type
        if op == "+":
            return left + right, left_type or right_type
        if op == "-":
            return left - right, left_type or right_type
        if op == "*":
            return left * right, left_type or right_type
        return left / right, SqlType.DOUBLE
    return _compare(op, left, left_type, right, right_type), SqlType.BOOLEAN


def _compare(op, left, left_type, right, right_type):
    if left is None or right is None:
        return None
    left, right = _date_align(left, left_type, right, right_type)
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise AssertionError(op)


def _date_align(left, left_type, right, right_type):
    """ISO text literals compare against DATE columns as epoch days."""
    if left_type is SqlType.DATE and isinstance(right, str):
        right = date_to_days(right)
    if right_type is SqlType.DATE and isinstance(left, str):
        left = date_to_days(left)
    return left, right


def _eval_between(expr: ast.Between, row, types):
    operand, operand_type = _eval(expr.operand, row, types)
    low, low_type = _eval(expr.low, row, types)
    high, high_type = _eval(expr.high, row, types)
    lower = _compare(">=", operand, operand_type, low, low_type)
    upper = _compare("<=", operand, operand_type, high, high_type)
    if lower is False or upper is False:
        result = False
    elif lower is None or upper is None:
        result = None
    else:
        result = True
    if expr.negated:
        result = None if result is None else not result
    return result, SqlType.BOOLEAN


def _eval_in_list(expr: ast.InList, row, types):
    operand, operand_type = _eval(expr.operand, row, types)
    any_null = operand is None
    hit = False
    for item in expr.items:
        value, value_type = _eval(item, row, types)
        equal = _compare("=", operand, operand_type, value, value_type)
        if equal is True:
            hit = True
        elif equal is None:
            any_null = True
    result = True if hit else (None if any_null else False)
    if expr.negated:
        result = None if result is None else not result
    return result, SqlType.BOOLEAN


def _eval_like(expr: ast.Like, row, types):
    operand, _ = _eval(expr.operand, row, types)
    pattern, _ = _eval(expr.pattern, row, types)
    if operand is None or pattern is None:
        return None, SqlType.BOOLEAN
    regex = "".join(
        ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
        for ch in pattern
    )
    flags = re.DOTALL | (re.IGNORECASE if expr.case_insensitive else 0)
    result = re.match(f"^{regex}$", str(operand), flags) is not None
    return (not result if expr.negated else result), SqlType.BOOLEAN


# -- comparison helpers -----------------------------------------------------------


def norm(value):
    """Bit-level comparable form: floats via repr, numpy scalars unboxed."""
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return repr(value)
    return value


def engine_rows(db, table: str) -> list[tuple]:
    return [tuple(norm(v) for v in row) for row in db.catalog.data(table).rows()]


def model_rows(model: RefModel, table: str) -> list[tuple]:
    return [
        tuple(norm(row[column]) for column in model.order[table])
        for row in model.tables[table]
    ]


def assert_indexes_match(db, model: RefModel, table: str):
    for column in model.order[table]:
        entries, nulls = model.index_of(table, column)
        assert db.catalog.index_lookup(table, column, None) == nulls, (
            f"NULL index positions diverged on {table}.{column}"
        )
        for value, positions in entries.items():
            got = db.catalog.index_lookup(table, column, value)
            assert got == positions, (
                f"index {table}.{column} @ {value!r}: engine {got} "
                f"!= model {positions}"
            )


# -- the battery ------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_outcome():
    """Run the full sweep once; individual tests assert on slices of it."""
    db = build_fuzz_database(0)
    model = RefModel(db)
    grammar = FuzzGrammar(db.catalog, seed=SEED)
    statements = grammar.statements(SWEEP, shapes=DML_SHAPES)
    # Warm every physical index up front so the sweep exercises the
    # *maintenance* paths (incremental append / targeted drop), not just
    # lazy rebuilds over final data.
    for table in sorted(db.catalog.table_names):
        for column in model.order[table]:
            db.catalog.index_lookup(table, column, None)
    divergences = []
    shapes_run = {shape: 0 for shape in DML_SHAPES}
    errors = 0
    for step, gen in enumerate(statements):
        statement = parse_sql(gen.sql)
        target = statement.target.name
        engine_error = model_error = None
        count = ref_count = None
        try:
            result = db.execute(gen.sql)
            [(count,)] = result.table.rows()
        except SqlError as exc:
            engine_error = type(exc).__name__
        try:
            ref_count = model.apply(statement)
        except RefConstraint:
            model_error = "RefConstraint"
        shapes_run[gen.shape] += 1
        if (engine_error is None) != (model_error is None):
            divergences.append(
                f"#{gen.index} error parity: engine={engine_error} "
                f"model={model_error}: {gen.sql}"
            )
            continue
        if engine_error is not None:
            errors += 1
        elif count != ref_count:
            divergences.append(
                f"#{gen.index} rows_affected {count} != {ref_count}: {gen.sql}"
            )
            continue
        try:
            assert engine_rows(db, target) == model_rows(model, target)
            assert_indexes_match(db, model, target)
            if step % 25 == 0:  # periodic full audit of untouched tables
                for table in sorted(db.catalog.table_names):
                    assert engine_rows(db, table) == model_rows(model, table)
                    assert_indexes_match(db, model, table)
        except AssertionError as exc:
            divergences.append(f"#{gen.index} {exc}\n  {gen.sql}")
    return db, model, divergences, shapes_run, errors


class TestDifferentialSweep:
    def test_500_statements_zero_divergences(self, sweep_outcome):
        _, _, divergences, _, _ = sweep_outcome
        assert not divergences, (
            f"{len(divergences)} divergences, first:\n{divergences[0]}"
        )

    def test_sweep_covers_every_dml_shape(self, sweep_outcome):
        _, _, _, shapes_run, _ = sweep_outcome
        assert set(shapes_run) == set(DML_SHAPES)
        for shape, executed in shapes_run.items():
            assert executed >= 20, f"only {executed} {shape} statements"

    def test_sweep_actually_mutated_every_table(self, sweep_outcome):
        db, _, _, _, _ = sweep_outcome
        for table in sorted(db.catalog.table_names):
            assert db.catalog.mutation_count(table) > 0, table

    def test_final_state_agrees_everywhere(self, sweep_outcome):
        db, model, _, _, _ = sweep_outcome
        for table in sorted(db.catalog.table_names):
            assert engine_rows(db, table) == model_rows(model, table), table
            assert_indexes_match(db, model, table)


# -- SELECT: the same model as an independent second opinion ----------------------


SELECT_SWEEP = 300


def row_multiset(rows) -> list[tuple]:
    return sorted((tuple(norm(v) for v in row) for row in rows), key=repr)


@pytest.fixture(scope="module")
def select_outcome():
    """Every ``simple`` grammar SELECT the model evaluates, engine vs model."""
    db = build_fuzz_database(0)
    model = RefModel(db)
    grammar = FuzzGrammar(db.catalog, seed=SEED)
    compared = skipped = 0
    divergences = []
    for gen in grammar.statements(SELECT_SWEEP, shapes={"simple"}):
        try:
            expected = model.select(parse_sql(gen.sql))
        except RefUnsupported:
            skipped += 1
            continue
        compared += 1
        try:
            got = db.execute(gen.sql).table.rows()
        except SqlError as exc:
            divergences.append(f"#{gen.index} engine {type(exc).__name__}: {gen.sql}")
            continue
        if row_multiset(got) != row_multiset(expected):
            divergences.append(f"#{gen.index} rows differ: {gen.sql}")
    return compared, skipped, divergences


class TestSelectSweep:
    def test_zero_divergences(self, select_outcome):
        _, _, divergences = select_outcome
        assert not divergences, (
            f"{len(divergences)} divergences, first:\n{divergences[0]}"
        )

    def test_enough_statements_compared(self, select_outcome):
        compared, skipped, _ = select_outcome
        assert compared >= 100, (compared, skipped)


class TestReferenceModelSanity:
    """The model itself behaves — quick direct checks, no engine."""

    def test_insert_update_delete_roundtrip(self):
        db = build_fuzz_database(0)
        model = RefModel(db)
        n = len(model.tables["items"])
        assert model.apply(
            parse_sql("INSERT INTO items (item_id, label, price) "
                      "VALUES (900, 'zz', 3.5)")
        ) == 1
        assert len(model.tables["items"]) == n + 1
        assert model.apply(
            parse_sql("UPDATE items SET price = price + 1 "
                      "WHERE items.item_id = 900")
        ) == 1
        assert model.tables["items"][-1]["price"] == 4.5
        assert model.apply(
            parse_sql("DELETE FROM items WHERE items.item_id = 900")
        ) == 1
        assert len(model.tables["items"]) == n

    def test_three_valued_where_skips_null_rows(self):
        db = build_fuzz_database(0)
        model = RefModel(db)
        nulls = sum(1 for r in model.tables["users"] if r["age"] is None)
        assert nulls > 0
        matched = model.apply(parse_sql("UPDATE users SET age = age"))
        # Unfiltered UPDATE touches every row, including NULL ages...
        assert matched == len(model.tables["users"])
        # ...but a WHERE over age leaves UNKNOWN rows alone.
        touched = model.apply(
            parse_sql("UPDATE users SET age = age WHERE users.age >= 0")
        )
        assert touched == len(model.tables["users"]) - nulls

    def test_not_null_rejection(self):
        db = build_fuzz_database(0)
        model = RefModel(db)
        with pytest.raises(RefConstraint):
            model.apply(
                parse_sql("INSERT INTO users (user_id, name) VALUES (NULL, 'x')")
            )
