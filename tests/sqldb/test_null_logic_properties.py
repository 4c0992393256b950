"""Property tests for NULL three-valued logic, driven by the fuzz grammar.

SQL's WHERE clause keeps a row iff the predicate is TRUE — FALSE and
UNKNOWN both drop it.  Kleene logic therefore implies machine-checkable
laws over *any* predicate P:

* partition: every row is exactly one of P, NOT P, or (P) IS NULL;
* double negation: NOT NOT P keeps exactly the rows P keeps;
* De Morgan: NOT (P AND Q) == (NOT P) OR (NOT Q), likewise for OR;
* monotonicity: (P) AND (Q) never keeps a row P drops.

The predicates come from the fuzz grammar's expression production
(:meth:`FuzzGrammar.predicate`), so the laws are exercised over the same
operator mix (LIKE, IN, BETWEEN, IS NULL, nested NOT/AND/OR...) the fuzzer
generates, against columns with real NULLs.
"""

from __future__ import annotations

import random

import pytest

from repro.fuzz import FuzzGrammar
from repro.sqldb import ast_nodes as ast
from repro.sqldb.sql_render import render_expression

N_USERS = 200  # rows in the conftest users table; city is NULL every 17th


def _count(db, predicate_sql: str) -> int:
    sql = f"SELECT count(*) AS n FROM users AS t0 WHERE {predicate_sql}"
    table = db.execute(sql).table
    return int(table.columns[0].data[0])


def _signature(db, predicate_sql: str) -> tuple:
    """A strong row-set fingerprint: count plus user_id aggregates."""
    sql = (
        "SELECT count(*) AS n, min(t0.user_id) AS lo, max(t0.user_id) AS hi, "
        f"sum(t0.user_id) AS s FROM users AS t0 WHERE {predicate_sql}"
    )
    table = db.execute(sql).table
    return tuple(
        None
        if column.null_mask is not None and column.null_mask[0]
        else column.data[0]
        for column in table.columns
    )


def _predicates(db, count: int = 25) -> list[str]:
    grammar = FuzzGrammar(db.catalog, seed=29)
    scope = grammar.columns_of("users", "t0")
    out = []
    for i in range(count):
        rng = random.Random(f"null3vl:{i}")
        expr = grammar.predicate(scope, rng, allow_subqueries=False)
        out.append(render_expression(expr))
    return out


class TestPartitionLaw:
    """P, NOT P, and (P) IS NULL partition the table."""

    def test_grammar_predicates_partition_all_rows(self, db):
        for pred in _predicates(db):
            true_n = _count(db, f"({pred})")
            false_n = _count(db, f"NOT ({pred})")
            unknown_n = _count(db, f"({pred}) IS NULL")
            assert true_n + false_n + unknown_n == N_USERS, pred

    def test_some_generated_predicate_is_unknown_somewhere(self, db):
        # The grammar must actually exercise the UNKNOWN branch (NULL
        # comparisons, IS NULL over nullable columns...), otherwise the
        # partition law above degenerates to two-valued logic.
        assert any(
            _count(db, f"({pred}) IS NULL") > 0 for pred in _predicates(db)
        )


class TestNegationLaws:
    def test_double_negation_preserves_the_row_set(self, db):
        for pred in _predicates(db, count=15):
            assert _signature(db, f"({pred})") == _signature(
                db, f"NOT (NOT ({pred}))"
            ), pred

    def test_negation_never_overlaps(self, db):
        for pred in _predicates(db, count=15):
            both = _count(db, f"({pred}) AND NOT ({pred})")
            assert both == 0, pred


class TestDeMorgan:
    def _pairs(self, db):
        preds = _predicates(db, count=16)
        return list(zip(preds[::2], preds[1::2]))

    def test_de_morgan_for_and(self, db):
        for p, q in self._pairs(db):
            lhs = _signature(db, f"NOT (({p}) AND ({q}))")
            rhs = _signature(db, f"(NOT ({p})) OR (NOT ({q}))")
            assert lhs == rhs, (p, q)

    def test_de_morgan_for_or(self, db):
        for p, q in self._pairs(db):
            lhs = _signature(db, f"NOT (({p}) OR ({q}))")
            rhs = _signature(db, f"(NOT ({p})) AND (NOT ({q}))")
            assert lhs == rhs, (p, q)


class TestMonotonicity:
    def test_predicate_tightening_never_adds_rows(self, db):
        # ANDing any conjunct can only shrink the row set: the law the
        # profiling loop's cost model leans on.
        preds = _predicates(db, count=16)
        for p, q in zip(preds[:8], preds[8:]):
            assert _count(db, f"({p}) AND ({q})") <= _count(db, f"({p})"), (p, q)


class TestKleeneTruthTable:
    """Pin the three-valued AND/OR/NOT tables with explicit operands."""

    TRUE = "t0.user_id >= 0"
    FALSE = "t0.user_id < 0"
    UNKNOWN = "t0.city = NULL"  # NULL = anything is UNKNOWN for every row

    @pytest.mark.parametrize(
        "expr, expected",
        [
            # AND: UNKNOWN dominates TRUE, FALSE dominates UNKNOWN.
            ("%u% AND %t%", 0),
            ("%u% AND %f%", 0),
            ("%u% AND %u%", 0),
            # OR: TRUE dominates UNKNOWN, UNKNOWN dominates FALSE.
            ("%u% OR %t%", N_USERS),
            ("%u% OR %f%", 0),
            ("%u% OR %u%", 0),
            # NOT UNKNOWN is UNKNOWN.
            ("NOT %u%", 0),
            # UNKNOWN is detectable only via IS NULL.
            ("(%u%) IS NULL", N_USERS),
            ("(%u%) IS NOT NULL", 0),
        ],
    )
    def test_truth_table(self, db, expr, expected):
        spelled = (
            expr.replace("%u%", f"({self.UNKNOWN})")
            .replace("%t%", f"({self.TRUE})")
            .replace("%f%", f"({self.FALSE})")
        )
        assert _count(db, spelled) == expected, spelled

    def test_where_keeps_only_true_rows(self, db):
        # FALSE and UNKNOWN are both filtered: the partition law's SQL
        # reading.  city IS NULL every 17th row => 12 NULL cities.
        nulls = _count(db, "t0.city IS NULL")
        not_null = _count(db, "t0.city IS NOT NULL")
        assert nulls + not_null == N_USERS
        eq_self = _count(db, "t0.city = t0.city")  # UNKNOWN on NULL rows
        assert eq_self == not_null

    def test_null_in_in_list_is_never_true(self, db):
        # x IN (a, NULL) is TRUE if x = a, else UNKNOWN — never FALSE, so
        # NOT IN with a NULL in the list drops every row.
        n_match = _count(db, "t0.city IN ('city_1', NULL)")
        assert n_match == _count(db, "t0.city = 'city_1'")
        assert _count(db, "t0.city NOT IN ('city_1', NULL)") == 0


def test_predicate_production_is_deterministic(db):
    grammar = FuzzGrammar(db.catalog, seed=29)
    scope = grammar.columns_of("users", "t0")
    a = grammar.predicate(scope, random.Random("x"), allow_subqueries=False)
    b = grammar.predicate(scope, random.Random("x"), allow_subqueries=False)
    assert isinstance(a, ast.Expression)
    assert a == b
