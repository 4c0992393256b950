"""Name resolution and type checking.

The binder walks a parsed :class:`SelectStatement`, resolves every column
reference against the FROM-clause scope (qualifying unqualified names and
rejecting unknown or ambiguous ones), validates function names and aggregate
placement, and computes the statement's output schema.

Binding errors carry PostgreSQL-flavoured messages (``column "x" does not
exist``) because SQLBarber's check-and-rewrite loop feeds them back to the
LLM verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast_nodes as ast
from .catalog import Catalog
from .errors import BindError, UnsupportedSqlError
from .types import SqlType, common_numeric_type, parse_type_name

SCALAR_FUNCTIONS: dict[str, SqlType | None] = {
    # name -> fixed return type (None = depends on arguments)
    "abs": None,
    "round": None,
    "floor": SqlType.BIGINT,
    "ceil": SqlType.BIGINT,
    "mod": None,
    "power": SqlType.DOUBLE,
    "sqrt": SqlType.DOUBLE,
    "ln": SqlType.DOUBLE,
    "log": SqlType.DOUBLE,
    "exp": SqlType.DOUBLE,
    "length": SqlType.INTEGER,
    "upper": SqlType.TEXT,
    "lower": SqlType.TEXT,
    "substr": SqlType.TEXT,
    "substring": SqlType.TEXT,
    "concat": SqlType.TEXT,
    "coalesce": None,
    "extract": SqlType.INTEGER,
    "greatest": None,
    "least": None,
}


@dataclass
class RelationSchema:
    """The visible columns of one FROM-clause binding."""

    binding: str
    columns: dict[str, SqlType]

    def has(self, column: str) -> bool:
        return column in self.columns


@dataclass
class Scope:
    """All bindings visible to expressions of one SELECT."""

    relations: list[RelationSchema] = field(default_factory=list)

    def add(self, schema: RelationSchema) -> None:
        if any(r.binding == schema.binding for r in self.relations):
            raise BindError(f'table name "{schema.binding}" specified more than once')
        self.relations.append(schema)

    def resolve(self, ref: ast.ColumnRef) -> tuple[str, SqlType]:
        """Resolve *ref*, returning (binding, type)."""
        if ref.table is not None:
            for relation in self.relations:
                if relation.binding == ref.table:
                    if not relation.has(ref.column):
                        raise BindError(
                            f'column {ref.table}.{ref.column} does not exist',
                            position=ref.position,
                        )
                    return relation.binding, relation.columns[ref.column]
            raise BindError(
                f'missing FROM-clause entry for table "{ref.table}"',
                position=ref.position,
            )
        matches = [r for r in self.relations if r.has(ref.column)]
        if not matches:
            raise BindError(
                f'column "{ref.column}" does not exist', position=ref.position
            )
        if len(matches) > 1:
            raise BindError(
                f'column reference "{ref.column}" is ambiguous',
                position=ref.position,
            )
        return matches[0].binding, matches[0].columns[ref.column]

    @property
    def binding_names(self) -> list[str]:
        return [r.binding for r in self.relations]


@dataclass
class BoundQuery:
    """A bound statement: the AST plus its scope and output schema.

    DML statements (INSERT/UPDATE/DELETE) bind to a one-column
    ``rows_affected BIGINT`` output schema — executing them yields a single
    row carrying the affected-row count, PostgreSQL command-tag style.
    """

    statement: ast.SelectStatement | ast.CompoundSelect | ast.InsertStatement | ast.UpdateStatement | ast.DeleteStatement
    scope: Scope
    output_names: list[str]
    output_types: list[SqlType]


class Binder:
    """Binds statements against a :class:`~repro.sqldb.catalog.Catalog`.

    *placeholder_types* switches the binder into template mode: instead of
    rejecting ``{name}`` placeholders, each one binds to the declared type
    (the type its rendered literal will have once instantiated).  This is
    what lets :mod:`repro.fastpath` bind a template once and re-plan it per
    predicate binding without re-running name resolution.
    """

    def __init__(
        self,
        catalog: Catalog,
        placeholder_types: dict[str, SqlType] | None = None,
    ):
        self._catalog = catalog
        self._placeholder_types = placeholder_types

    def bind(
        self,
        statement: (
            ast.SelectStatement
            | ast.CompoundSelect
            | ast.InsertStatement
            | ast.UpdateStatement
            | ast.DeleteStatement
        ),
    ) -> BoundQuery:
        if isinstance(statement, ast.CompoundSelect):
            return self._bind_compound(statement)
        if isinstance(statement, ast.InsertStatement):
            return self._bind_insert(statement)
        if isinstance(statement, ast.UpdateStatement):
            return self._bind_update(statement)
        if isinstance(statement, ast.DeleteStatement):
            return self._bind_delete(statement)
        scope = self._build_scope(statement.from_clause)
        statement.select_items = self._expand_stars(statement.select_items, scope)
        for item in statement.select_items:
            self._bind_expression(item.expression, scope, allow_aggregates=True)
        if statement.where is not None:
            self._bind_expression(statement.where, scope, allow_aggregates=False)
        for expression in statement.group_by:
            self._bind_expression(expression, scope, allow_aggregates=False)
        if statement.having is not None:
            self._bind_expression(statement.having, scope, allow_aggregates=True)
        aliases = {item.alias for item in statement.select_items if item.alias}
        for order in statement.order_by:
            expression = order.expression
            if (
                isinstance(expression, ast.ColumnRef)
                and expression.table is None
                and expression.column in aliases
            ):
                continue  # ORDER BY <output alias>, resolved by the planner
            if isinstance(expression, ast.Literal) and isinstance(expression.value, int):
                if not 1 <= expression.value <= len(statement.select_items):
                    raise BindError(
                        f"ORDER BY position {expression.value} is not in select list"
                    )
                continue  # ORDER BY <position>
            self._bind_expression(expression, scope, allow_aggregates=True)
        self._check_aggregate_usage(statement, scope)
        names, types = self._output_schema(statement, scope)
        return BoundQuery(statement, scope, names, types)

    def _bind_compound(self, statement: ast.CompoundSelect) -> BoundQuery:
        """Bind every UNION branch and merge their output schemas."""
        branches = [self.bind(s) for s in statement.selects]
        first = branches[0]
        for branch in branches[1:]:
            if len(branch.output_types) != len(first.output_types):
                raise BindError(
                    "each UNION query must have the same number of columns"
                )
        types = list(first.output_types)
        for branch in branches[1:]:
            for index, branch_type in enumerate(branch.output_types):
                if types[index] is branch_type:
                    continue
                if types[index].is_numeric and branch_type.is_numeric:
                    types[index] = _merge_types(types[index], branch_type)
                else:
                    raise BindError(
                        f"UNION column {index + 1} has mismatched types "
                        f"{types[index].value} and {branch_type.value}"
                    )
        return BoundQuery(statement, Scope(), list(first.output_names), types)

    # -- DML binding ----------------------------------------------------------

    def _dml_result(self, statement, scope: Scope) -> BoundQuery:
        """Every DML statement binds to a ``rows_affected BIGINT`` schema."""
        return BoundQuery(statement, scope, ["rows_affected"], [SqlType.BIGINT])

    def _target_meta(self, ref: ast.TableRef):
        if not self._catalog.has_table(ref.name):
            raise BindError(
                f'relation "{ref.name}" does not exist', position=ref.position
            )
        return self._catalog.table(ref.name)

    def _bind_insert(self, statement: ast.InsertStatement) -> BoundQuery:
        meta = self._target_meta(statement.target)
        if statement.columns is None:
            targets = list(meta.columns)
        else:
            seen: set[str] = set()
            targets = []
            for name in statement.columns:
                if not meta.has_column(name):
                    raise BindError(
                        f'column "{name}" of relation "{meta.name}" '
                        "does not exist"
                    )
                if name in seen:
                    raise BindError(
                        f'column "{name}" specified more than once'
                    )
                seen.add(name)
                targets.append(meta.column(name))
        empty = Scope()
        if statement.source is not None:
            bound_source = self.bind(statement.source)
            if len(bound_source.output_types) != len(targets):
                raise BindError(
                    f"INSERT has {len(bound_source.output_types)} expressions "
                    f"but {len(targets)} target columns"
                )
            for target, source_type in zip(targets, bound_source.output_types):
                self._check_writable(None, source_type, target)
        else:
            for row in statement.rows:
                if len(row) != len(targets):
                    raise BindError(
                        f"INSERT has {len(row)} expressions but "
                        f"{len(targets)} target columns"
                    )
                for target, value in zip(targets, row):
                    value_type = self._bind_expression(
                        value, empty, allow_aggregates=False
                    )
                    self._check_writable(value, value_type, target)
        return self._dml_result(statement, empty)

    def _bind_update(self, statement: ast.UpdateStatement) -> BoundQuery:
        meta = self._target_meta(statement.target)
        scope = Scope()
        scope.add(
            RelationSchema(
                binding=statement.target.binding_name,
                columns={c.name: c.sql_type for c in meta.columns},
            )
        )
        assigned: set[str] = set()
        for assignment in statement.assignments:
            if not meta.has_column(assignment.column):
                raise BindError(
                    f'column "{assignment.column}" of relation '
                    f'"{meta.name}" does not exist',
                    position=assignment.position,
                )
            if assignment.column in assigned:
                raise BindError(
                    f'multiple assignments to same column "{assignment.column}"',
                    position=assignment.position,
                )
            assigned.add(assignment.column)
            value_type = self._bind_expression(
                assignment.value, scope, allow_aggregates=False
            )
            self._check_writable(
                assignment.value, value_type, meta.column(assignment.column)
            )
        if statement.where is not None:
            self._bind_expression(statement.where, scope, allow_aggregates=False)
        return self._dml_result(statement, scope)

    def _bind_delete(self, statement: ast.DeleteStatement) -> BoundQuery:
        meta = self._target_meta(statement.target)
        scope = Scope()
        scope.add(
            RelationSchema(
                binding=statement.target.binding_name,
                columns={c.name: c.sql_type for c in meta.columns},
            )
        )
        if statement.where is not None:
            self._bind_expression(statement.where, scope, allow_aggregates=False)
        return self._dml_result(statement, scope)

    def _check_writable(
        self,
        expression: ast.Expression | None,
        value_type: SqlType,
        target,
    ) -> None:
        """Reject writes whose static type cannot coerce into the column.

        An explicit NULL literal is always bindable — nullability is a
        *runtime* constraint (ConstraintError), not a binder one, matching
        how a real system reports ``null value violates not-null`` only on
        execution.
        """
        if isinstance(expression, ast.Literal) and expression.value is None:
            return
        column_type = target.sql_type
        if value_type is column_type:
            return
        if value_type.is_numeric and column_type.is_numeric:
            return
        # ISO date strings are writable into DATE columns (and dates render
        # back as TEXT), mirroring the comparison rule in _check_comparable.
        if {value_type, column_type} == {SqlType.TEXT, SqlType.DATE}:
            return
        raise BindError(
            f'column "{target.name}" is of type {column_type.value} '
            f"but expression is of type {value_type.value}"
        )

    # -- scope construction ---------------------------------------------------

    def _build_scope(self, from_clause: ast.TableExpression | None) -> Scope:
        scope = Scope()
        if from_clause is not None:
            self._collect_relations(from_clause, scope)
        return scope

    def _collect_relations(self, node: ast.TableExpression, scope: Scope) -> None:
        if isinstance(node, ast.TableRef):
            if not self._catalog.has_table(node.name):
                raise BindError(
                    f'relation "{node.name}" does not exist',
                    position=node.position,
                )
            meta = self._catalog.table(node.name)
            scope.add(
                RelationSchema(
                    binding=node.binding_name,
                    columns={c.name: c.sql_type for c in meta.columns},
                )
            )
        elif isinstance(node, ast.DerivedTable):
            bound = self.bind(node.subquery)
            scope.add(
                RelationSchema(
                    binding=node.alias,
                    columns=dict(zip(bound.output_names, bound.output_types)),
                )
            )
        elif isinstance(node, ast.Join):
            self._collect_relations(node.left, scope)
            self._collect_relations(node.right, scope)
            if node.condition is not None:
                self._bind_expression(node.condition, scope, allow_aggregates=False)
        else:  # pragma: no cover - parser cannot produce other types
            raise UnsupportedSqlError(f"unsupported FROM item: {type(node).__name__}")

    def _expand_stars(
        self, items: list[ast.SelectItem], scope: Scope
    ) -> list[ast.SelectItem]:
        """Rewrite ``*`` / ``t.*`` select items into explicit column refs."""
        expanded: list[ast.SelectItem] = []
        for item in items:
            star = item.expression
            if not isinstance(star, ast.Star):
                expanded.append(item)
                continue
            if star.table is not None and star.table not in scope.binding_names:
                raise BindError(
                    f'missing FROM-clause entry for table "{star.table}"'
                )
            if not scope.relations:
                raise BindError("SELECT * requires a FROM clause")
            relations = (
                [r for r in scope.relations if r.binding == star.table]
                if star.table
                else scope.relations
            )
            for relation in relations:
                for column in relation.columns:
                    expanded.append(
                        ast.SelectItem(
                            ast.ColumnRef(column=column, table=relation.binding)
                        )
                    )
        return expanded

    # -- expression binding -----------------------------------------------------

    def _bind_expression(
        self, expression: ast.Expression, scope: Scope, allow_aggregates: bool
    ) -> SqlType:
        """Resolve names under *expression* and return its inferred type."""
        if isinstance(expression, ast.Literal):
            return _literal_type(expression.value)
        if isinstance(expression, ast.Placeholder):
            if self._placeholder_types is not None:
                return self._placeholder_types.get(
                    expression.name, SqlType.INTEGER
                )
            raise BindError(
                f"template placeholder {{{expression.name}}} cannot be executed; "
                "instantiate the template first"
            )
        if isinstance(expression, ast.ColumnRef):
            binding, sql_type = scope.resolve(expression)
            expression.table = binding  # qualify in place
            return sql_type
        if isinstance(expression, ast.Star):
            raise BindError("'*' is only allowed in the select list or COUNT(*)")
        if isinstance(expression, ast.BinaryOp):
            return self._bind_binary(expression, scope, allow_aggregates)
        if isinstance(expression, ast.UnaryOp):
            inner = self._bind_expression(expression.operand, scope, allow_aggregates)
            if expression.op == "not":
                return SqlType.BOOLEAN
            if not inner.is_numeric:
                raise BindError(f"cannot negate type {inner.value}")
            return inner
        if isinstance(expression, ast.IsNull):
            self._bind_expression(expression.operand, scope, allow_aggregates)
            return SqlType.BOOLEAN
        if isinstance(expression, ast.Between):
            self._bind_expression(expression.operand, scope, allow_aggregates)
            self._bind_expression(expression.low, scope, allow_aggregates)
            self._bind_expression(expression.high, scope, allow_aggregates)
            return SqlType.BOOLEAN
        if isinstance(expression, ast.InList):
            self._bind_expression(expression.operand, scope, allow_aggregates)
            for item in expression.items:
                self._bind_expression(item, scope, allow_aggregates)
            return SqlType.BOOLEAN
        if isinstance(expression, ast.InSubquery):
            self._bind_expression(expression.operand, scope, allow_aggregates)
            self._bind_subquery(expression.subquery, expected_columns=1)
            return SqlType.BOOLEAN
        if isinstance(expression, ast.Exists):
            self._bind_subquery(expression.subquery, expected_columns=None)
            return SqlType.BOOLEAN
        if isinstance(expression, ast.ScalarSubquery):
            bound = self._bind_subquery(expression.subquery, expected_columns=1)
            return bound.output_types[0]
        if isinstance(expression, ast.Like):
            self._bind_expression(expression.operand, scope, allow_aggregates)
            self._bind_expression(expression.pattern, scope, allow_aggregates)
            return SqlType.BOOLEAN
        if isinstance(expression, ast.FunctionCall):
            return self._bind_function(expression, scope, allow_aggregates)
        if isinstance(expression, ast.Cast):
            self._bind_expression(expression.operand, scope, allow_aggregates)
            try:
                return parse_type_name(expression.type_name)
            except ValueError as exc:
                raise BindError(str(exc)) from None
        if isinstance(expression, ast.CaseWhen):
            result: SqlType | None = None
            for condition, value in expression.whens:
                self._bind_expression(condition, scope, allow_aggregates)
                value_type = self._bind_expression(value, scope, allow_aggregates)
                result = value_type if result is None else _merge_types(result, value_type)
            if expression.default is not None:
                default_type = self._bind_expression(
                    expression.default, scope, allow_aggregates
                )
                result = default_type if result is None else _merge_types(result, default_type)
            return result or SqlType.TEXT
        raise UnsupportedSqlError(f"unsupported expression: {type(expression).__name__}")

    def _bind_binary(
        self, expression: ast.BinaryOp, scope: Scope, allow_aggregates: bool
    ) -> SqlType:
        left = self._bind_expression(expression.left, scope, allow_aggregates)
        right = self._bind_expression(expression.right, scope, allow_aggregates)
        op = expression.op
        if op in ("and", "or"):
            return SqlType.BOOLEAN
        if op in ("=", "<>", "<", "<=", ">", ">="):
            _check_comparable(left, right)
            return SqlType.BOOLEAN
        if op == "||":
            return SqlType.TEXT
        if op in ("+", "-", "*", "/", "%"):
            if left is SqlType.DATE and right.is_numeric and op in ("+", "-"):
                return SqlType.DATE
            if left is SqlType.DATE and right is SqlType.DATE and op == "-":
                return SqlType.INTEGER
            if not (left.is_numeric and right.is_numeric):
                raise BindError(
                    f"operator {op} does not accept types "
                    f"{left.value} and {right.value}"
                )
            if op == "/":
                return SqlType.DOUBLE
            return common_numeric_type(left, right)
        raise UnsupportedSqlError(f"unsupported operator: {op}")

    def _bind_function(
        self, call: ast.FunctionCall, scope: Scope, allow_aggregates: bool
    ) -> SqlType:
        name = call.name
        if call.is_aggregate:
            if not allow_aggregates:
                raise BindError(
                    f"aggregate function {name.upper()} is not allowed here",
                    position=call.position,
                )
            if name == "count":
                if call.args and not isinstance(call.args[0], ast.Star):
                    self._bind_expression(call.args[0], scope, allow_aggregates=False)
                return SqlType.BIGINT
            if len(call.args) != 1:
                raise BindError(f"{name.upper()} takes exactly one argument")
            arg_type = self._bind_expression(call.args[0], scope, allow_aggregates=False)
            if name in ("sum", "avg") and not arg_type.is_numeric:
                raise BindError(f"{name.upper()} requires a numeric argument")
            if name == "avg":
                return SqlType.DOUBLE
            if name == "sum":
                return SqlType.DOUBLE if arg_type is SqlType.DOUBLE else SqlType.BIGINT
            return arg_type  # min/max
        if name not in SCALAR_FUNCTIONS:
            raise BindError(
                f"function {name}() does not exist", position=call.position
            )
        arg_types = [
            self._bind_expression(arg, scope, allow_aggregates) for arg in call.args
        ]
        fixed = SCALAR_FUNCTIONS[name]
        if fixed is not None:
            return fixed
        if not arg_types:
            raise BindError(f"function {name}() requires arguments")
        result = arg_types[0]
        for other in arg_types[1:]:
            result = _merge_types(result, other)
        return result

    def _bind_subquery(
        self, subquery: ast.SelectStatement, expected_columns: int | None
    ) -> BoundQuery:
        """Bind a (non-correlated) subquery in its own fresh scope."""
        try:
            bound = self.bind(subquery)
        except BindError as exc:
            # Unknown columns inside a subquery usually indicate correlation,
            # which the engine does not support — say so explicitly.
            raise BindError(
                f"{exc} (note: correlated subqueries are not supported)"
            ) from None
        if expected_columns is not None and len(bound.output_names) != expected_columns:
            raise BindError(
                f"subquery must return {expected_columns} column(s), "
                f"got {len(bound.output_names)}"
            )
        return bound

    # -- aggregate / output checks -------------------------------------------

    def _check_aggregate_usage(
        self, statement: ast.SelectStatement, scope: Scope
    ) -> None:
        has_aggregate = _contains_aggregate_in_outputs(statement)
        if not statement.group_by:
            if has_aggregate:
                # A global aggregate: every output must be aggregate-only.
                for item in statement.select_items:
                    _check_grouped(item.expression, [])
            return
        group_keys = [_expression_key(g) for g in statement.group_by]
        for item in statement.select_items:
            if isinstance(item.expression, ast.Star):
                raise BindError("SELECT * is not allowed with GROUP BY")
            _check_grouped(item.expression, group_keys)

    def _output_schema(
        self, statement: ast.SelectStatement, scope: Scope
    ) -> tuple[list[str], list[SqlType]]:
        names: list[str] = []
        types: list[SqlType] = []
        for index, item in enumerate(statement.select_items):
            expression = item.expression
            if isinstance(expression, ast.Star):
                relations = (
                    [r for r in scope.relations if r.binding == expression.table]
                    if expression.table
                    else scope.relations
                )
                for relation in relations:
                    for column, sql_type in relation.columns.items():
                        names.append(column)
                        types.append(sql_type)
                continue
            if item.alias:
                names.append(item.alias)
            elif isinstance(expression, ast.ColumnRef):
                names.append(expression.column)
            elif isinstance(expression, ast.FunctionCall):
                names.append(expression.name)
            else:
                names.append(f"column_{index + 1}")
            types.append(self._bind_expression(expression, scope, True))
        # SQL allows duplicate output names; downstream we deduplicate.
        deduped: list[str] = []
        seen: dict[str, int] = {}
        for name in names:
            if name in seen:
                seen[name] += 1
                deduped.append(f"{name}_{seen[name]}")
            else:
                seen[name] = 0
                deduped.append(name)
        return deduped, types


def _literal_type(value) -> SqlType:
    if value is None:
        return SqlType.TEXT  # untyped NULL; coerced on use
    if isinstance(value, bool):
        return SqlType.BOOLEAN
    if isinstance(value, int):
        return SqlType.BIGINT if abs(value) > 2**31 else SqlType.INTEGER
    if isinstance(value, float):
        return SqlType.DOUBLE
    return SqlType.TEXT


def _check_comparable(left: SqlType, right: SqlType) -> None:
    if left.is_numeric and right.is_numeric:
        return
    if left is right:
        return
    # TEXT literals compare against dates (ISO strings), matching PostgreSQL.
    if {left, right} == {SqlType.TEXT, SqlType.DATE}:
        return
    raise BindError(f"cannot compare {left.value} with {right.value}")


def _merge_types(a: SqlType, b: SqlType) -> SqlType:
    if a is b:
        return a
    if a.is_numeric and b.is_numeric:
        return common_numeric_type(a, b)
    return SqlType.TEXT


def _contains_aggregate_in_outputs(statement: ast.SelectStatement) -> bool:
    for item in statement.select_items:
        for node in ast.shallow_walk(item.expression):
            if isinstance(node, ast.FunctionCall) and node.is_aggregate:
                return True
    return False


def _expression_key(expression: ast.Expression) -> str:
    """A stable structural key for GROUP BY matching."""
    parts: list[str] = []
    for node in expression.walk():
        if isinstance(node, ast.ColumnRef):
            parts.append(f"col:{node.table}.{node.column}")
        elif isinstance(node, ast.Literal):
            parts.append(f"lit:{node.value!r}")
        elif isinstance(node, ast.BinaryOp):
            parts.append(f"op:{node.op}")
        elif isinstance(node, ast.FunctionCall):
            parts.append(f"fn:{node.name}")
        else:
            parts.append(type(node).__name__)
    return "|".join(parts)


def _check_grouped(expression: ast.Expression, group_keys: list[str]) -> None:
    """Every output column must be grouped or inside an aggregate."""
    if _expression_key(expression) in group_keys:
        return
    if isinstance(expression, ast.FunctionCall) and expression.is_aggregate:
        return
    if isinstance(expression, (ast.Literal, ast.ScalarSubquery)):
        return
    if isinstance(expression, ast.ColumnRef):
        raise BindError(
            f'column "{expression}" must appear in the GROUP BY clause '
            "or be used in an aggregate function"
        )
    for child in expression.children():
        if isinstance(child, ast.Expression):
            _check_grouped(child, group_keys)
