"""Binder: name resolution, type inference, and PostgreSQL-style errors."""

import pytest

from repro.fuzz.runner import build_fuzz_database
from repro.sqldb import SqlType
from repro.sqldb.binder import Binder
from repro.sqldb.errors import BindError
from repro.sqldb.parser import parse_select


@pytest.fixture()
def binder(db):
    return Binder(db.catalog)


def bind(binder, sql):
    return binder.bind(parse_select(sql))


class TestResolution:
    def test_unqualified_column_gets_qualified(self, binder):
        bound = bind(binder, "SELECT age FROM users")
        assert bound.statement.select_items[0].expression.table == "users"

    def test_alias_binding(self, binder):
        bound = bind(binder, "SELECT u.age FROM users u")
        assert bound.output_types == [SqlType.INTEGER]

    def test_unknown_column(self, binder):
        with pytest.raises(BindError, match='column "nope" does not exist'):
            bind(binder, "SELECT nope FROM users")

    def test_unknown_table(self, binder):
        with pytest.raises(BindError, match='relation "ghosts" does not exist'):
            bind(binder, "SELECT a FROM ghosts")

    def test_unknown_qualifier(self, binder):
        with pytest.raises(BindError, match="missing FROM-clause entry"):
            bind(binder, "SELECT x.age FROM users")

    def test_ambiguous_column(self, binder):
        with pytest.raises(BindError, match="ambiguous"):
            bind(binder, "SELECT user_id FROM users JOIN orders ON users.user_id = orders.user_id")

    def test_duplicate_binding(self, binder):
        with pytest.raises(BindError, match="more than once"):
            bind(binder, "SELECT 1 FROM users, users")

    def test_self_join_with_aliases_ok(self, binder):
        bind(binder, "SELECT a.age FROM users a JOIN users b ON a.user_id = b.user_id")


class TestStarExpansion:
    def test_star_expands_to_all_columns(self, binder):
        bound = bind(binder, "SELECT * FROM users")
        assert bound.output_names == ["user_id", "name", "age", "city"]

    def test_qualified_star(self, binder):
        bound = bind(
            binder,
            "SELECT u.* FROM users u JOIN orders o ON u.user_id = o.user_id",
        )
        assert bound.output_names == ["user_id", "name", "age", "city"]

    def test_star_without_from(self, binder):
        with pytest.raises(BindError):
            bind(binder, "SELECT *")

    def test_join_star_concatenates(self, binder):
        bound = bind(
            binder,
            "SELECT * FROM users u JOIN orders o ON u.user_id = o.user_id",
        )
        assert len(bound.output_names) == 4 + 5
        # duplicate names are disambiguated
        assert "user_id_1" in bound.output_names


class TestTypeInference:
    def cases(self):
        return [
            ("SELECT age + 1 FROM users", SqlType.INTEGER),
            ("SELECT age / 2 FROM users", SqlType.DOUBLE),
            ("SELECT amount * 2 FROM orders", SqlType.DOUBLE),
            ("SELECT name || '!' FROM users", SqlType.TEXT),
            ("SELECT age > 5 FROM users", SqlType.BOOLEAN),
            ("SELECT count(*) FROM users", SqlType.BIGINT),
            ("SELECT avg(age) FROM users", SqlType.DOUBLE),
            ("SELECT sum(age) FROM users", SqlType.BIGINT),
            ("SELECT sum(amount) FROM orders", SqlType.DOUBLE),
            ("SELECT min(name) FROM users", SqlType.TEXT),
            ("SELECT CAST(age AS text) FROM users", SqlType.TEXT),
            ("SELECT order_date - 30 FROM orders", SqlType.DATE),
            ("SELECT CASE WHEN age > 30 THEN 1 ELSE 0 END FROM users", SqlType.INTEGER),
        ]

    def test_output_types(self, binder):
        for sql, expected in self.cases():
            bound = bind(binder, sql)
            assert bound.output_types[0] is expected, sql


class TestSemanticChecks:
    def test_aggregate_in_where_rejected(self, binder):
        with pytest.raises(BindError, match="not allowed"):
            bind(binder, "SELECT age FROM users WHERE count(*) > 1")

    def test_ungrouped_column_rejected(self, binder):
        with pytest.raises(BindError, match="GROUP BY"):
            bind(binder, "SELECT name, age FROM users GROUP BY name")

    def test_grouped_column_ok(self, binder):
        bind(binder, "SELECT name, count(*) FROM users GROUP BY name")

    def test_group_by_expression_match(self, binder):
        bind(binder, "SELECT age + 1, count(*) FROM users GROUP BY age + 1")

    def test_sum_of_text_rejected(self, binder):
        with pytest.raises(BindError, match="numeric"):
            bind(binder, "SELECT sum(name) FROM users")

    def test_unknown_function(self, binder):
        with pytest.raises(BindError, match="does not exist"):
            bind(binder, "SELECT frobnicate(age) FROM users")

    def test_incomparable_types(self, binder):
        with pytest.raises(BindError, match="cannot compare"):
            bind(binder, "SELECT 1 FROM users WHERE name > 5")

    def test_arithmetic_on_text_rejected(self, binder):
        with pytest.raises(BindError):
            bind(binder, "SELECT name + 1 FROM users")

    def test_placeholder_rejected(self, binder):
        with pytest.raises(BindError, match="placeholder"):
            bind(binder, "SELECT age FROM users WHERE age > {p_1}")


class TestSubqueries:
    def test_in_subquery_binds(self, binder):
        bind(
            binder,
            "SELECT name FROM users WHERE user_id IN (SELECT user_id FROM orders)",
        )

    def test_scalar_subquery_type(self, binder):
        bound = bind(binder, "SELECT (SELECT max(age) FROM users) FROM orders")
        assert bound.output_types[0] is SqlType.INTEGER

    def test_subquery_column_count_checked(self, binder):
        with pytest.raises(BindError, match="1 column"):
            bind(
                binder,
                "SELECT 1 FROM users WHERE user_id IN (SELECT user_id, age FROM users)",
            )

    def test_correlated_subquery_gets_hint(self, binder):
        with pytest.raises(BindError, match="correlated"):
            bind(
                binder,
                "SELECT name FROM users u WHERE EXISTS "
                "(SELECT 1 FROM orders o WHERE o.user_id = u.user_id)",
            )

    def test_derived_table_schema(self, binder):
        bound = bind(
            binder,
            "SELECT sub.c FROM (SELECT count(*) AS c FROM users) sub",
        )
        assert bound.output_types == [SqlType.BIGINT]


@pytest.fixture(scope="module")
def fuzz_db():
    return build_fuzz_database(0)


def rows(db, sql):
    return list(db.execute(sql).table.rows())


class TestAggregateInsideScalarSubquery:
    """An aggregate inside a scalar subquery in the select list belongs to
    the subquery: the outer query is not aggregated by it."""

    def test_subquery_value_beside_plain_column(self, fuzz_db):
        (maximum,), = rows(fuzz_db, "SELECT max(i.price) FROM items i")
        got = rows(
            fuzz_db,
            "SELECT o.order_id, (SELECT max(i.price) FROM items i) "
            "FROM orders o",
        )
        order_ids = [r[0] for r in rows(fuzz_db, "SELECT o.order_id FROM orders o")]
        assert [r[0] for r in got] == order_ids
        assert {r[1] for r in got} == {maximum}

    def test_comparison_with_subquery_beside_plain_column(self, fuzz_db):
        (average,), = rows(fuzz_db, "SELECT avg(i.price) FROM items i")
        got = rows(
            fuzz_db,
            "SELECT o.order_id, o.amount > (SELECT avg(i.price) FROM items i) "
            "FROM orders o",
        )
        expected = [
            (order_id, None if amount is None else amount > average)
            for order_id, amount in rows(
                fuzz_db, "SELECT o.order_id, o.amount FROM orders o"
            )
        ]
        assert got == expected
        assert {r[1] for r in got} == {None, True, False}

    def test_count_star_beside_subquery_still_aggregates(self, fuzz_db):
        (maximum,), = rows(fuzz_db, "SELECT max(i.price) FROM items i")
        (orders,), = rows(fuzz_db, "SELECT count(*) FROM orders o")
        assert rows(
            fuzz_db,
            "SELECT count(*), (SELECT max(i.price) FROM items i) FROM orders o",
        ) == [(orders, maximum)]

    def test_outer_aggregate_beside_plain_column_still_rejected(self, fuzz_db):
        with pytest.raises(BindError, match="GROUP BY"):
            fuzz_db.execute("SELECT o.order_id, max(o.amount) FROM orders o")


class TestOrderByBinding:
    def test_order_by_alias_allowed(self, binder):
        bind(binder, "SELECT age AS a FROM users ORDER BY a")

    def test_order_by_position_allowed(self, binder):
        bind(binder, "SELECT age FROM users ORDER BY 1")

    def test_order_by_bad_position(self, binder):
        with pytest.raises(BindError, match="position"):
            bind(binder, "SELECT age FROM users ORDER BY 3")

    def test_order_by_unknown_column(self, binder):
        with pytest.raises(BindError):
            bind(binder, "SELECT age FROM users ORDER BY salary")


class TestErrorPositions:
    """Bind errors carry the source offset of the offending token, and
    Database.plan attaches line/column plus a caret snippet."""

    def test_unknown_column_position(self, binder):
        sql = "SELECT nope FROM users"
        with pytest.raises(BindError) as excinfo:
            bind(binder, sql)
        assert excinfo.value.position == sql.index("nope")

    def test_unknown_table_position(self, binder):
        sql = "SELECT age FROM ghosts"
        with pytest.raises(BindError) as excinfo:
            bind(binder, sql)
        assert excinfo.value.position == sql.index("ghosts")

    def test_unknown_function_position(self, binder):
        sql = "SELECT frobnicate(age) FROM users"
        with pytest.raises(BindError) as excinfo:
            bind(binder, sql)
        assert excinfo.value.position == sql.index("frobnicate")

    def test_ambiguous_column_position(self, binder):
        sql = (
            "SELECT user_id FROM users "
            "JOIN orders ON users.user_id = orders.user_id"
        )
        with pytest.raises(BindError) as excinfo:
            bind(binder, sql)
        assert excinfo.value.position == sql.index("user_id")

    def test_database_plan_attaches_line_column(self, db):
        sql = "SELECT age,\n       nope\nFROM users"
        with pytest.raises(BindError) as excinfo:
            db.plan(sql)
        err = excinfo.value
        assert (err.line, err.column) == (2, 8)
        snippet = err.context_snippet()
        assert snippet.startswith("LINE 2:        nope")
        assert snippet.splitlines()[1].index("^") == len("LINE 2: ") + 7
