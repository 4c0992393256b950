"""Predicate selectivity estimation over the AST.

This is the glue between the statistics in :mod:`repro.sqldb.stats` and the
planner: given a WHERE-clause expression and a way to look up column
statistics, estimate the fraction of rows that survive.

The estimators also accept template ASTs, whose ``{name}`` placeholders
stand for literals that are only known per binding.  Every estimate is then
*compiled* rather than computed: the result is a plain number when the
expression holds no placeholder, and otherwise a closure ``fn(ctx)`` over a
binding context (see :func:`binding_context`) in which every
placeholder-free subtree is already folded to a number.  Calling the
closure performs exactly the stats lookups and float operations the plain
estimate performs on the AST with the literals substituted, in the same
order, so both agree bit for bit.  :func:`evaluate` reads either form.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from . import ast_nodes as ast
from .stats import (
    DEFAULT_EQ_SELECTIVITY,
    DEFAULT_RANGE_SELECTIVITY,
    ColumnStats,
    like_selectivity,
)
from .types import date_to_days

StatsResolver = Callable[[Optional[str], str], Optional[ColumnStats]]

IN_SUBQUERY_SELECTIVITY = 0.5
EXISTS_SELECTIVITY = 0.5
BOOL_EXPR_SELECTIVITY = 0.5
COLUMN_EQ_COLUMN_SELECTIVITY = 0.05

_OPERATOR_NODES = (
    ast.BinaryOp,
    ast.UnaryOp,
    ast.Between,
    ast.Like,
    ast.IsNull,
    ast.FunctionCall,
    ast.CaseWhen,
)

_ARITHMETIC = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b if b else None,
}

_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


# -- binding contexts -------------------------------------------------------


def binding_context(literals: Mapping[str, ast.Expression]) -> dict[str, tuple]:
    """Fold each placeholder's literal once for a compiled estimate.

    *literals* maps placeholder names to the literal expression a binding
    substitutes for them.  The context maps each name to ``(literal,
    constant_value(literal), operator count of literal)``.
    """
    return {
        name: (literal, constant_value(literal), _literal_operators(literal))
        for name, literal in literals.items()
    }


def _literal_operators(literal: ast.Expression) -> int:
    if isinstance(literal, ast.Literal):
        return 0  # the common case, without walking the node
    return _operator_count(literal)[0]


def evaluate(value, ctx):
    """A compiled estimate's value under the binding context *ctx*."""
    return value(ctx) if callable(value) else value


def _apply(fn, value):
    """``fn(value)``, deferred to a closure when *value* is compiled."""
    if callable(value):
        return lambda ctx: fn(value(ctx))
    return fn(value)


def _apply2(fn, left, right):
    """``fn(left, right)``, deferred to a closure when either is compiled."""
    if callable(left):
        if callable(right):
            return lambda ctx: fn(left(ctx), right(ctx))
        return lambda ctx: fn(left(ctx), right)
    if callable(right):
        return lambda ctx: fn(left, right(ctx))
    return fn(left, right)


# -- constants --------------------------------------------------------------


def constant_value(expression: ast.Expression):
    """Fold *expression* to a Python constant, or return ``None`` if dynamic.

    Handles literals, unary minus over literals, casts of literals, and ISO
    date strings (converted to day numbers so they are comparable with DATE
    column statistics).  Placeholders are dynamic.
    """
    value = compile_constant(expression)
    return None if callable(value) else value


def compile_constant(expression: ast.Expression):
    """:func:`constant_value` over a template AST: the folded constant, or
    ``fn(ctx)`` computing it when a placeholder feeds the fold."""
    if isinstance(expression, ast.Placeholder):
        name = expression.name
        return lambda ctx: ctx[name][1]
    if isinstance(expression, ast.Literal):
        value = expression.value
        if isinstance(value, str) and _looks_like_date(value):
            try:
                return date_to_days(value)
            except ValueError:
                return value
        return value
    if isinstance(expression, ast.UnaryOp) and expression.op == "-":
        return _apply(_negate, compile_constant(expression.operand))
    if isinstance(expression, ast.Cast):
        return compile_constant(expression.operand)
    if isinstance(expression, ast.BinaryOp) and expression.op in "+-*/":
        op = _ARITHMETIC[expression.op]

        def fold(left, right):
            if _is_number(left) and _is_number(right):
                try:
                    return op(left, right)
                except Exception:
                    return None
            return None

        return _apply2(
            fold,
            compile_constant(expression.left),
            compile_constant(expression.right),
        )
    return None


def _negate(value):
    if _is_number(value):
        return -value
    return None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _looks_like_date(value: str) -> bool:
    return (
        len(value) == 10 and value[4] == "-" and value[7] == "-"
        and value[:4].isdigit()
    )


# -- selectivity ------------------------------------------------------------


def estimate_selectivity(
    expression: ast.Expression | None, resolve: StatsResolver
):
    """Estimate the fraction of rows satisfying *expression* (1.0 for None),
    clamped to [0, 1]; compiled when placeholders feed it."""
    if expression is None:
        return 1.0
    return _apply(_clamp, compile_selectivity(expression, resolve))


def _clamp(selectivity) -> float:
    return float(min(max(selectivity, 0.0), 1.0))


def compile_selectivity(expression: ast.Expression, resolve: StatsResolver):
    """The unclamped selectivity of *expression*: a float, or ``fn(ctx)``
    when placeholders feed it.  A placeholder estimates exactly like the
    literal the binding substitutes for it."""
    if isinstance(expression, ast.BinaryOp):
        if expression.op == "and":
            return _apply2(
                _both,
                compile_selectivity(expression.left, resolve),
                compile_selectivity(expression.right, resolve),
            )
        if expression.op == "or":
            return _apply2(
                _either,
                compile_selectivity(expression.left, resolve),
                compile_selectivity(expression.right, resolve),
            )
        if expression.op in ("=", "<>", "<", "<=", ">", ">="):
            return _compile_comparison(expression, resolve)
        return BOOL_EXPR_SELECTIVITY
    if isinstance(expression, ast.UnaryOp) and expression.op == "not":
        return _apply(_complement, compile_selectivity(expression.operand, resolve))
    if isinstance(expression, ast.IsNull):
        stats = _column_stats(expression.operand, resolve)
        fraction = stats.null_fraction if stats else DEFAULT_EQ_SELECTIVITY
        return 1.0 - fraction if expression.negated else fraction
    if isinstance(expression, ast.Between):
        stats = _column_stats(expression.operand, resolve)

        def between(low, high):
            if stats is not None and low is not None and high is not None:
                return stats.between_selectivity(low, high)
            return DEFAULT_RANGE_SELECTIVITY * 0.5

        sel = _apply2(
            between,
            compile_constant(expression.low),
            compile_constant(expression.high),
        )
        return _apply(_complement, sel) if expression.negated else sel
    if isinstance(expression, ast.InList):
        sel = _compile_in_list(expression, resolve)
        return _apply(_complement, sel) if expression.negated else sel
    if isinstance(expression, ast.InSubquery):
        sel = IN_SUBQUERY_SELECTIVITY
        return 1.0 - sel if expression.negated else sel
    if isinstance(expression, ast.Exists):
        sel = EXISTS_SELECTIVITY
        return 1.0 - sel if expression.negated else sel
    if isinstance(expression, ast.Like):
        sel = _apply(_like, compile_constant(expression.pattern))
        return _apply(_complement, sel) if expression.negated else sel
    if isinstance(expression, ast.Literal):
        if expression.value is True:
            return 1.0
        if expression.value in (False, None):
            return 0.0
        return BOOL_EXPR_SELECTIVITY
    if isinstance(expression, ast.Placeholder):
        name = expression.name
        return lambda ctx: compile_selectivity(ctx[name][0], resolve)
    return BOOL_EXPR_SELECTIVITY


def _both(left: float, right: float) -> float:
    return left * right


def _either(left: float, right: float) -> float:
    return left + right - left * right


def _complement(selectivity: float) -> float:
    return 1.0 - selectivity


def _like(pattern) -> float:
    if isinstance(pattern, str):
        return like_selectivity(pattern)
    return like_selectivity("%abc%")


def _column_stats(
    expression: ast.Expression, resolve: StatsResolver
) -> ColumnStats | None:
    if isinstance(expression, ast.ColumnRef):
        return resolve(expression.table, expression.column)
    return None


def _compile_comparison(expression: ast.BinaryOp, resolve: StatsResolver):
    op = expression.op
    left_stats = _column_stats(expression.left, resolve)
    right_stats = _column_stats(expression.right, resolve)

    def comparison(left_const, right_const) -> float:
        # Normalize to column <op> constant.
        column_stats, flipped_op = left_stats, op
        if left_stats is None and right_stats is not None and left_const is not None:
            flipped_op = _FLIPPED.get(op, op)
            column_stats, right_const = right_stats, left_const
        if column_stats is not None and right_const is not None:
            if flipped_op == "=":
                return column_stats.eq_selectivity(right_const)
            if flipped_op == "<>":
                return 1.0 - column_stats.eq_selectivity(right_const)
            return column_stats.range_selectivity(flipped_op, right_const)
        if column_stats is not None and right_stats is not None:
            # column-to-column comparison (usually a join predicate handled
            # elsewhere; as a residual filter use a flat default).
            if flipped_op == "=":
                largest = max(
                    column_stats.distinct_count, right_stats.distinct_count, 1.0
                )
                return 1.0 / largest
            return DEFAULT_RANGE_SELECTIVITY
        if flipped_op == "=":
            return DEFAULT_EQ_SELECTIVITY
        if flipped_op == "<>":
            return 1.0 - DEFAULT_EQ_SELECTIVITY
        return DEFAULT_RANGE_SELECTIVITY

    return _apply2(
        comparison,
        compile_constant(expression.left),
        compile_constant(expression.right),
    )


def _compile_in_list(expression: ast.InList, resolve: StatsResolver):
    stats = _column_stats(expression.operand, resolve)
    items = [compile_constant(item) for item in expression.items]

    def in_list(values) -> float:
        total = 0.0
        for value in values:
            if stats is not None and value is not None:
                total += stats.eq_selectivity(value)
            else:
                total += DEFAULT_EQ_SELECTIVITY
        return min(total, 1.0)

    if any(callable(item) for item in items):
        return lambda ctx: in_list([evaluate(item, ctx) for item in items])
    return in_list(items)


# -- operator counts ----------------------------------------------------------


def count_operators(expression: ast.Expression | None):
    """Number of operator applications, used to charge per-row CPU cost;
    compiled when placeholders stand in for (possibly negative) literals."""
    if expression is None:
        return 0
    count, names = _operator_count(expression)
    if names:
        return lambda ctx: max(count + sum(ctx[name][2] for name in names), 1)
    return max(count, 1)


def _operator_count(expression: ast.Expression) -> tuple[int, list[str]]:
    """The operator nodes under *expression*, and the placeholders whose
    literals add their own."""
    count = 0
    names = []
    for node in expression.walk():
        if isinstance(node, _OPERATOR_NODES):
            count += 1
        elif isinstance(node, ast.InList):
            count += max(len(node.items), 1)
        elif isinstance(node, ast.Placeholder):
            names.append(node.name)
    return count, names
