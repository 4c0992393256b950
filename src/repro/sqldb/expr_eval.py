"""Vectorized expression evaluation with SQL three-valued logic.

Expressions are evaluated over a batch of rows.  Every intermediate result is
a :class:`Vec` — a numpy array plus an optional null mask — so NULL semantics
(``NULL = 3`` is unknown, ``WHERE`` treats unknown as false, aggregates skip
NULLs) behave like a real DBMS.
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import ast_nodes as ast
from .errors import ExecutionError, UnsupportedSqlError
from .storage import Column
from .types import SqlType, date_to_days, parse_type_name


@dataclass
class Vec:
    """A vector of values with an optional null mask (True = NULL)."""

    data: np.ndarray
    mask: np.ndarray | None
    sql_type: SqlType

    def __len__(self) -> int:
        return len(self.data)

    @staticmethod
    def from_column(column: Column) -> "Vec":
        return Vec(column.data, column.null_mask, column.sql_type)

    def to_column(self, name: str) -> Column:
        mask = self.mask if self.mask is not None and self.mask.any() else None
        return Column(name, self.sql_type, self.data, mask)

    @staticmethod
    def constant(value, length: int) -> "Vec":
        if value is None:
            return Vec(
                np.zeros(length, dtype=np.float64),
                np.ones(length, dtype=bool),
                SqlType.DOUBLE,
            )
        if isinstance(value, bool):
            return Vec(np.full(length, value, dtype=bool), None, SqlType.BOOLEAN)
        if isinstance(value, (int, np.integer)):
            return Vec(np.full(length, int(value), dtype=np.int64), None, SqlType.BIGINT)
        if isinstance(value, (float, np.floating)):
            return Vec(np.full(length, float(value)), None, SqlType.DOUBLE)
        if isinstance(value, (str,)):
            return Vec(np.full(length, value, dtype=object), None, SqlType.TEXT)
        if isinstance(value, datetime.date):
            return Vec(
                np.full(length, date_to_days(value), dtype=np.int64),
                None,
                SqlType.DATE,
            )
        raise ExecutionError(f"unsupported literal type: {type(value).__name__}")


@dataclass
class SubqueryValue:
    """The materialized result of an uncorrelated subquery expression."""

    kind: str  # 'in' | 'exists' | 'scalar'
    values: np.ndarray | None = None  # for 'in': the value set (non-null)
    had_null: bool = False  # whether the IN set contained NULLs
    exists: bool = False  # for 'exists'
    scalar: object = None  # for 'scalar' (None = NULL / empty result)
    scalar_type: SqlType = SqlType.DOUBLE


@dataclass(frozen=True)
class Params:
    """One execution's parameters, read by every expression of a statement:
    its pre-executed subquery results, keyed by expression identity, and the
    literal each placeholder is bound to (a prepared template's binding)."""

    subquery_values: dict[int, SubqueryValue]
    literals: Mapping[str, ast.Expression]


class EvalContext:
    """Everything an expression needs to evaluate over one batch."""

    def __init__(
        self,
        columns: dict[str, Vec],
        row_count: int,
        aggregate_values: dict[int, Vec],
        params: Params,
    ):
        self.columns = columns
        self.row_count = row_count
        self.aggregate_values = aggregate_values
        self.subquery_values = params.subquery_values
        self.literals = params.literals

    def column(self, binding: str | None, name: str) -> Vec:
        key = f"{binding}.{name}" if binding else name
        if key in self.columns:
            return self.columns[key]
        # Unqualified lookup fallback (post-aggregation columns).
        if binding is None:
            matches = [v for k, v in self.columns.items() if k.endswith(f".{name}")]
            if len(matches) == 1:
                return matches[0]
        raise ExecutionError(f"column {key!r} not found at execution time")


def evaluate(expression: ast.Expression, context: EvalContext) -> Vec:
    """Evaluate *expression* over the batch described by *context*."""
    if isinstance(expression, ast.Literal):
        return Vec.constant(expression.value, context.row_count)
    if isinstance(expression, ast.Placeholder):
        literal = context.literals.get(expression.name)
        if literal is None:
            raise ExecutionError(
                "cannot execute a template containing placeholder "
                f"{{{expression.name}}}"
            )
        return evaluate(literal, context)
    if isinstance(expression, ast.ColumnRef):
        return context.column(expression.table, expression.column)
    if isinstance(expression, ast.FunctionCall):
        if id(expression) in context.aggregate_values:
            return context.aggregate_values[id(expression)]
        if expression.is_aggregate:
            raise ExecutionError(
                f"aggregate {expression.name.upper()} evaluated outside aggregation"
            )
        return _evaluate_scalar_function(expression, context)
    if isinstance(expression, ast.BinaryOp):
        return _evaluate_binary(expression, context)
    if isinstance(expression, ast.UnaryOp):
        return _evaluate_unary(expression, context)
    if isinstance(expression, ast.IsNull):
        operand = evaluate(expression.operand, context)
        is_null = (
            operand.mask.copy()
            if operand.mask is not None
            else np.zeros(len(operand), dtype=bool)
        )
        result = ~is_null if expression.negated else is_null
        return Vec(result, None, SqlType.BOOLEAN)
    if isinstance(expression, ast.Between):
        operand = evaluate(expression.operand, context)
        low = evaluate(expression.low, context)
        high = evaluate(expression.high, context)
        ge = _compare(operand, low, ">=")
        le = _compare(operand, high, "<=")
        result = _logical_and(ge, le)
        return _negate_bool(result) if expression.negated else result
    if isinstance(expression, ast.InList):
        return _evaluate_in_list(expression, context)
    if isinstance(expression, ast.InSubquery):
        return _evaluate_in_subquery(expression, context)
    if isinstance(expression, ast.Exists):
        sub = context.subquery_values.get(id(expression))
        if sub is None:
            raise ExecutionError("EXISTS subquery was not pre-executed")
        exists = sub.exists != expression.negated
        return Vec(np.full(context.row_count, exists, dtype=bool), None, SqlType.BOOLEAN)
    if isinstance(expression, ast.ScalarSubquery):
        sub = context.subquery_values.get(id(expression))
        if sub is None:
            raise ExecutionError("scalar subquery was not pre-executed")
        if sub.scalar is None:
            vec = Vec.constant(None, context.row_count)
            vec.sql_type = sub.scalar_type
            return vec
        return Vec.constant(sub.scalar, context.row_count)
    if isinstance(expression, ast.Like):
        return _evaluate_like(expression, context)
    if isinstance(expression, ast.Cast):
        return _evaluate_cast(expression, context)
    if isinstance(expression, ast.CaseWhen):
        return _evaluate_case(expression, context)
    if isinstance(expression, ast.Star):
        raise ExecutionError("'*' cannot be evaluated as a scalar expression")
    raise UnsupportedSqlError(f"unsupported expression: {type(expression).__name__}")


# -- boolean helpers (Kleene three-valued logic) -------------------------------


def truthy(vec: Vec) -> np.ndarray:
    """Collapse a boolean Vec to a filter mask: NULL counts as false."""
    values = vec.data.astype(bool)
    if vec.mask is not None:
        values = values & ~vec.mask
    return values


def _logical_and(a: Vec, b: Vec) -> Vec:
    av, bv = a.data.astype(bool), b.data.astype(bool)
    am = a.mask if a.mask is not None else np.zeros(len(av), dtype=bool)
    bm = b.mask if b.mask is not None else np.zeros(len(bv), dtype=bool)
    data = av & bv
    # unknown unless one side is definitely false
    false_a = ~av & ~am
    false_b = ~bv & ~bm
    mask = (am | bm) & ~(false_a | false_b)
    return Vec(data & ~mask, mask if mask.any() else None, SqlType.BOOLEAN)


def _logical_or(a: Vec, b: Vec) -> Vec:
    av, bv = a.data.astype(bool), b.data.astype(bool)
    am = a.mask if a.mask is not None else np.zeros(len(av), dtype=bool)
    bm = b.mask if b.mask is not None else np.zeros(len(bv), dtype=bool)
    true_a = av & ~am
    true_b = bv & ~bm
    data = true_a | true_b
    mask = (am | bm) & ~data
    return Vec(data, mask if mask.any() else None, SqlType.BOOLEAN)


def _negate_bool(vec: Vec) -> Vec:
    return Vec(~vec.data.astype(bool), vec.mask, SqlType.BOOLEAN)


# -- operators ---------------------------------------------------------------


def _evaluate_binary(expression: ast.BinaryOp, context: EvalContext) -> Vec:
    op = expression.op
    if op == "and":
        return _logical_and(
            evaluate(expression.left, context), evaluate(expression.right, context)
        )
    if op == "or":
        return _logical_or(
            evaluate(expression.left, context), evaluate(expression.right, context)
        )
    left = evaluate(expression.left, context)
    right = evaluate(expression.right, context)
    if op in ("=", "<>", "<", "<=", ">", ">="):
        return _compare(left, right, op)
    if op == "||":
        return _concat(left, right)
    return _arithmetic(left, right, op)


def _combined_mask(left: Vec, right: Vec) -> np.ndarray | None:
    if left.mask is None and right.mask is None:
        return None
    lm = left.mask if left.mask is not None else np.zeros(len(left), dtype=bool)
    rm = right.mask if right.mask is not None else np.zeros(len(right), dtype=bool)
    combined = lm | rm
    return combined if combined.any() else None


def _coerce_pair(left: Vec, right: Vec) -> tuple[np.ndarray, np.ndarray, SqlType]:
    """Bring both operands to a common comparable representation."""
    lt, rt = left.sql_type, right.sql_type
    # DATE vs TEXT: parse the text side as ISO dates.
    if lt is SqlType.DATE and rt is SqlType.TEXT:
        return left.data, _text_to_days(right.data, right.mask), SqlType.DATE
    if rt is SqlType.DATE and lt is SqlType.TEXT:
        return _text_to_days(left.data, left.mask), right.data, SqlType.DATE
    if lt is SqlType.TEXT or rt is SqlType.TEXT:
        return left.data.astype(object), right.data.astype(object), SqlType.TEXT
    if lt is SqlType.BOOLEAN or rt is SqlType.BOOLEAN:
        return left.data.astype(bool), right.data.astype(bool), SqlType.BOOLEAN
    if lt is SqlType.DOUBLE or rt is SqlType.DOUBLE:
        return (
            left.data.astype(np.float64),
            right.data.astype(np.float64),
            SqlType.DOUBLE,
        )
    return left.data.astype(np.int64), right.data.astype(np.int64), SqlType.BIGINT


_STR = np.frompyfunc(str, 1, 1)


def _text_values(data: np.ndarray) -> np.ndarray:
    """``str()`` of every element of *data*, as an object array.

    One numpy call: the engine's one way of turning values into the text
    that TEXT comparison, grouping, sorting and join keys work on.
    """
    return _STR(data)


def _text_to_days(values: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """ISO date text to epoch days, parsing each distinct text once.

    NULL rows (*mask* True) are not parsed; they come out as 0 under the
    caller's mask.  The first unparsable non-NULL value in row order raises.
    """
    out = np.zeros(len(values), dtype=np.int64)
    rows = np.arange(len(values)) if mask is None else np.flatnonzero(~mask)
    if not len(rows):
        return out
    texts, first, inverse = np.unique(
        _text_values(values[rows]), return_index=True, return_inverse=True
    )
    days = np.empty(len(texts), dtype=np.int64)
    # Parse in order of first appearance, so the first failure is the
    # first bad row, as a row-by-row parse would report it.
    for index in np.argsort(first):
        try:
            days[index] = date_to_days(texts[index])
        except ValueError as exc:
            value = values[rows[first[index]]]
            raise ExecutionError(f"invalid date literal: {value!r}") from exc
    out[rows] = days[inverse]
    return out


_COMPARISONS = {
    "=": np.equal,
    "<>": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def _compare(left: Vec, right: Vec, op: str) -> Vec:
    lv, rv, common = _coerce_pair(left, right)
    if common is SqlType.TEXT:
        lv, rv = _text_values(lv), _text_values(rv)
    result = _COMPARISONS[op](lv, rv)
    mask = _combined_mask(left, right)
    if mask is not None:
        result = result & ~mask
    return Vec(np.asarray(result, dtype=bool), mask, SqlType.BOOLEAN)


def _concat(left: Vec, right: Vec) -> Vec:
    lv = left.data.astype(object)
    rv = right.data.astype(object)
    data = np.array([f"{_fmt(a)}{_fmt(b)}" for a, b in zip(lv, rv)], dtype=object)
    return Vec(data, _combined_mask(left, right), SqlType.TEXT)


def _fmt(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _arithmetic(left: Vec, right: Vec, op: str) -> Vec:
    lt, rt = left.sql_type, right.sql_type
    mask = _combined_mask(left, right)
    if lt is SqlType.DATE and rt.is_numeric and op in ("+", "-"):
        rv = right.data.astype(np.int64)
        data = left.data + rv if op == "+" else left.data - rv
        return Vec(data.astype(np.int64), mask, SqlType.DATE)
    if lt is SqlType.DATE and rt is SqlType.DATE and op == "-":
        return Vec((left.data - right.data).astype(np.int64), mask, SqlType.INTEGER)
    if not (lt.is_numeric and rt.is_numeric):
        raise ExecutionError(f"operator {op} over {lt.value} and {rt.value}")
    use_float = SqlType.DOUBLE in (lt, rt) or op == "/"
    dtype = np.float64 if use_float else np.int64
    lv = left.data.astype(dtype)
    rv = right.data.astype(dtype)
    valid = ~mask if mask is not None else np.ones(len(lv), dtype=bool)
    if op == "+":
        data = lv + rv
    elif op == "-":
        data = lv - rv
    elif op == "*":
        data = lv * rv
    elif op in ("/", "%"):
        zero = (rv == 0) & valid
        if zero.any():
            raise ExecutionError("division by zero")
        safe = np.where(rv == 0, 1, rv)
        data = lv / safe if op == "/" else np.mod(lv, safe)
    else:  # pragma: no cover
        raise UnsupportedSqlError(f"operator {op}")
    result_type = SqlType.DOUBLE if use_float else SqlType.BIGINT
    return Vec(data, mask, result_type)


def _evaluate_unary(expression: ast.UnaryOp, context: EvalContext) -> Vec:
    operand = evaluate(expression.operand, context)
    if expression.op == "not":
        return _negate_bool(operand)
    if expression.op == "-":
        if not operand.sql_type.is_numeric:
            raise ExecutionError(f"cannot negate {operand.sql_type.value}")
        return Vec(-operand.data, operand.mask, operand.sql_type)
    raise UnsupportedSqlError(f"unary operator {expression.op}")


# -- IN / LIKE / CASE / CAST ----------------------------------------------------


def _evaluate_in_list(expression: ast.InList, context: EvalContext) -> Vec:
    operand = evaluate(expression.operand, context)
    result: Vec | None = None
    for item in expression.items:
        value = evaluate(item, context)
        eq = _compare(operand, value, "=")
        result = eq if result is None else _logical_or(result, eq)
    assert result is not None  # parser guarantees at least one item
    return _negate_bool(result) if expression.negated else result


def _evaluate_in_subquery(expression: ast.InSubquery, context: EvalContext) -> Vec:
    sub = context.subquery_values.get(id(expression))
    if sub is None:
        raise ExecutionError("IN subquery was not pre-executed")
    operand = evaluate(expression.operand, context)
    values = sub.values if sub.values is not None else np.array([], dtype=object)
    if operand.sql_type is SqlType.TEXT or values.dtype == np.dtype(object):
        member = np.isin(operand.data.astype(str), values.astype(str))
    else:
        member = np.isin(
            operand.data.astype(np.float64), values.astype(np.float64)
        )
    mask = operand.mask.copy() if operand.mask is not None else None
    if sub.had_null:
        # x IN (..., NULL) is NULL when x is not found — SQL semantics.
        unknown = ~member
        mask = unknown if mask is None else (mask | unknown)
        member = member & ~unknown
    if expression.negated:
        member = ~member
        if mask is not None:
            member = member & ~mask
    return Vec(member, mask, SqlType.BOOLEAN)


_LIKE_CACHE: dict[tuple[str, bool], re.Pattern] = {}


def like_to_regex(pattern: str, case_insensitive: bool = False) -> re.Pattern:
    """Compile a SQL LIKE pattern to an anchored regular expression."""
    key = (pattern, case_insensitive)
    if key not in _LIKE_CACHE:
        regex = "".join(
            ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
            for ch in pattern
        )
        flags = re.IGNORECASE if case_insensitive else 0
        _LIKE_CACHE[key] = re.compile(f"^{regex}$", flags | re.DOTALL)
    return _LIKE_CACHE[key]


def _evaluate_like(expression: ast.Like, context: EvalContext) -> Vec:
    operand = evaluate(expression.operand, context)
    pattern_vec = evaluate(expression.pattern, context)
    mask = _combined_mask(operand, pattern_vec)
    valid = ~mask if mask is not None else np.ones(len(operand), dtype=bool)
    patterns = pattern_vec.data
    uniform = len(set(patterns[valid].tolist())) <= 1 if valid.any() else True
    result = np.zeros(len(operand), dtype=bool)
    if uniform and valid.any():
        regex = like_to_regex(
            str(patterns[valid][0]), expression.case_insensitive
        )
        result[valid] = [
            bool(regex.match(str(v))) for v in operand.data[valid]
        ]
    else:
        for i in np.flatnonzero(valid):
            regex = like_to_regex(str(patterns[i]), expression.case_insensitive)
            result[i] = bool(regex.match(str(operand.data[i])))
    if expression.negated:
        result = ~result & valid
    return Vec(result, mask, SqlType.BOOLEAN)


def _evaluate_cast(expression: ast.Cast, context: EvalContext) -> Vec:
    operand = evaluate(expression.operand, context)
    try:
        target = parse_type_name(expression.type_name)
    except ValueError as exc:
        raise ExecutionError(str(exc)) from None
    if target is operand.sql_type:
        return operand
    if target.is_numeric:
        if operand.sql_type is SqlType.TEXT:
            # NULL rows stay NULL (and 0 underneath); only values convert.
            data = np.zeros(len(operand), dtype=np.float64)
            rows = (
                slice(None) if operand.mask is None else np.flatnonzero(~operand.mask)
            )
            try:
                data[rows] = [float(v) for v in operand.data[rows]]
            except ValueError as exc:
                raise ExecutionError(f"invalid numeric cast: {exc}") from None
        else:
            data = operand.data.astype(np.float64)
        if target in (SqlType.INTEGER, SqlType.BIGINT):
            data = data.astype(np.int64)
        return Vec(data, operand.mask, target)
    if target is SqlType.TEXT:
        data = np.array([_fmt(v) for v in operand.data], dtype=object)
        return Vec(data, operand.mask, SqlType.TEXT)
    if target is SqlType.DATE:
        if operand.sql_type is SqlType.TEXT:
            return Vec(
                _text_to_days(operand.data, operand.mask), operand.mask, SqlType.DATE
            )
        return Vec(operand.data.astype(np.int64), operand.mask, SqlType.DATE)
    if target is SqlType.BOOLEAN:
        return Vec(operand.data.astype(bool), operand.mask, SqlType.BOOLEAN)
    raise ExecutionError(f"unsupported cast target {target.value}")


def _evaluate_case(expression: ast.CaseWhen, context: EvalContext) -> Vec:
    length = context.row_count
    decided = np.zeros(length, dtype=bool)
    result_data: np.ndarray | None = None
    result_mask = np.zeros(length, dtype=bool)
    result_type = SqlType.TEXT
    for condition, value in expression.whens:
        cond_vec = evaluate(condition, context)
        take = truthy(cond_vec) & ~decided
        value_vec = evaluate(value, context)
        if result_data is None:
            result_type = value_vec.sql_type
            if result_type is SqlType.TEXT:
                result_data = np.full(length, None, dtype=object)
            else:
                result_data = np.zeros(length, dtype=value_vec.data.dtype)
            result_mask[:] = True  # undecided rows default to NULL
        result_data[take] = value_vec.data[take]
        value_nulls = (
            value_vec.mask[take]
            if value_vec.mask is not None
            else np.zeros(int(take.sum()), dtype=bool)
        )
        result_mask[take] = value_nulls
        decided |= take
    remaining = ~decided
    if expression.default is not None and remaining.any():
        default_vec = evaluate(expression.default, context)
        if result_data is None:
            result_type = default_vec.sql_type
            result_data = np.zeros(length, dtype=default_vec.data.dtype)
            result_mask[:] = True
        if result_data.dtype != default_vec.data.dtype and result_data.dtype != object:
            result_data = result_data.astype(np.float64)
            result_type = SqlType.DOUBLE
        result_data[remaining] = default_vec.data[remaining]
        default_nulls = (
            default_vec.mask[remaining]
            if default_vec.mask is not None
            else np.zeros(int(remaining.sum()), dtype=bool)
        )
        result_mask[remaining] = default_nulls
    if result_data is None:  # pragma: no cover - parser requires WHEN
        result_data = np.full(length, None, dtype=object)
    mask = result_mask if result_mask.any() else None
    return Vec(result_data, mask, result_type)


# -- scalar functions ------------------------------------------------------------


def _evaluate_scalar_function(call: ast.FunctionCall, context: EvalContext) -> Vec:
    name = call.name
    args = [evaluate(arg, context) for arg in call.args]
    if name == "coalesce":
        return _coalesce(args, context.row_count)
    if name in ("greatest", "least"):
        return _greatest_least(args, name == "greatest")
    if name == "concat":
        result = args[0]
        for other in args[1:]:
            result = _concat(result, other)
        return result
    if name == "extract":
        return _extract(args)
    if name in ("substr", "substring"):
        return _substring(args)
    if name in ("upper", "lower"):
        func = str.upper if name == "upper" else str.lower
        data = np.array([func(str(v)) for v in args[0].data], dtype=object)
        return Vec(data, args[0].mask, SqlType.TEXT)
    if name == "length":
        data = np.array([len(str(v)) for v in args[0].data], dtype=np.int64)
        return Vec(data, args[0].mask, SqlType.INTEGER)
    numeric = {
        "abs": np.abs,
        "floor": np.floor,
        "ceil": np.ceil,
        "sqrt": _safe_sqrt,
        "exp": np.exp,
        "ln": _safe_log,
        "log": _safe_log10,
    }
    if name in numeric:
        arg = args[0]
        data = numeric[name](arg.data.astype(np.float64))
        out_type = SqlType.DOUBLE
        if name in ("floor", "ceil"):
            data = data.astype(np.int64)
            out_type = SqlType.BIGINT
        if name == "abs":
            out_type = arg.sql_type if arg.sql_type.is_numeric else SqlType.DOUBLE
            if out_type is not SqlType.DOUBLE:
                data = data.astype(np.int64)
        return Vec(data, arg.mask, out_type)
    if name == "round":
        arg = args[0]
        digits = int(args[1].data[0]) if len(args) > 1 else 0
        data = np.round(arg.data.astype(np.float64), digits)
        return Vec(data, arg.mask, SqlType.DOUBLE)
    if name == "mod":
        return _arithmetic(args[0], args[1], "%")
    if name == "power":
        data = np.power(args[0].data.astype(np.float64), args[1].data.astype(np.float64))
        return Vec(data, _combined_mask(args[0], args[1]), SqlType.DOUBLE)
    raise UnsupportedSqlError(f"function {name}() is not implemented")


def _safe_sqrt(values: np.ndarray) -> np.ndarray:
    if (values < 0).any():
        raise ExecutionError("cannot take square root of a negative number")
    return np.sqrt(values)


def _safe_log(values: np.ndarray) -> np.ndarray:
    if (values <= 0).any():
        raise ExecutionError("cannot take logarithm of a non-positive number")
    return np.log(values)


def _safe_log10(values: np.ndarray) -> np.ndarray:
    if (values <= 0).any():
        raise ExecutionError("cannot take logarithm of a non-positive number")
    return np.log10(values)


def _substring(args: list[Vec]) -> Vec:
    """substr(text, start[, length]) with SQL's 1-based start position."""
    if len(args) < 2:
        raise ExecutionError("substr() requires at least two arguments")
    source = args[0]
    starts = args[1].data.astype(np.int64)
    lengths = args[2].data.astype(np.int64) if len(args) > 2 else None
    out = np.empty(len(source), dtype=object)
    for i, value in enumerate(source.data):
        text = str(value)
        begin = max(int(starts[i]) - 1, 0)
        if lengths is None:
            out[i] = text[begin:]
        else:
            out[i] = text[begin : begin + max(int(lengths[i]), 0)]
    mask = source.mask
    for other in args[1:]:
        mask = _combined_mask(Vec(out, mask, SqlType.TEXT), other)
    return Vec(out, mask, SqlType.TEXT)


def _coalesce(args: list[Vec], length: int) -> Vec:
    if not args:
        raise ExecutionError("COALESCE requires arguments")
    result = args[0]
    data = result.data.copy()
    mask = (
        result.mask.copy() if result.mask is not None else np.zeros(length, dtype=bool)
    )
    for other in args[1:]:
        fill = mask & (
            ~other.mask if other.mask is not None else np.ones(length, dtype=bool)
        )
        if data.dtype != other.data.dtype:
            data = data.astype(object)
        data[fill] = other.data[fill]
        mask = mask & ~fill
    return Vec(data, mask if mask.any() else None, result.sql_type)


def _greatest_least(args: list[Vec], greatest: bool) -> Vec:
    result = args[0]
    for other in args[1:]:
        lv, rv, common = _coerce_pair(result, other)
        picked = np.where(lv >= rv, lv, rv) if greatest else np.where(lv <= rv, lv, rv)
        result = Vec(picked, _combined_mask(result, other), common)
    return result


def _extract(args: list[Vec]) -> Vec:
    part = str(args[0].data[0]).lower()
    days = args[1].data.astype(np.int64)
    epoch = np.datetime64("1970-01-01")
    dates = epoch + days.astype("timedelta64[D]")
    years = dates.astype("datetime64[Y]").astype(int) + 1970
    if part == "year":
        out = years
    elif part == "month":
        months = dates.astype("datetime64[M]").astype(int)
        out = months % 12 + 1
    elif part == "day":
        month_start = dates.astype("datetime64[M]").astype("datetime64[D]")
        out = (dates - month_start).astype(int) + 1
    else:
        raise ExecutionError(f"EXTRACT field {part!r} not supported")
    return Vec(out.astype(np.int64), args[1].mask, SqlType.INTEGER)
