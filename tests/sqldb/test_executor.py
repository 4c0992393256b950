"""End-to-end execution correctness against hand-computed expectations."""

import pytest

from repro.sqldb import Database, ExecutionError, SqlType, Table


def rows(db, sql):
    return list(db.execute(sql).table.rows())


@pytest.fixture(scope="module")
def tiny():
    """A database small enough to verify results by hand."""
    db = Database("tiny")
    db.create_table(
        Table.from_dict(
            "emp",
            {
                "id": [1, 2, 3, 4, 5],
                "dept": ["eng", "eng", "ops", "ops", None],
                "salary": [100.0, 200.0, 150.0, None, 50.0],
                "hired": [10, 20, 30, 40, 50],
            },
            {
                "id": SqlType.INTEGER,
                "dept": SqlType.TEXT,
                "salary": SqlType.DOUBLE,
                "hired": SqlType.DATE,
            },
        ),
        primary_key=["id"],
    )
    db.create_table(
        Table.from_dict(
            "dept",
            {"name": ["eng", "ops", "hr"], "budget": [1000, 500, 200]},
            {"name": SqlType.TEXT, "budget": SqlType.INTEGER},
        ),
        primary_key=["name"],
    )
    return db


class TestScansAndFilters:
    def test_full_scan(self, tiny):
        assert len(rows(tiny, "SELECT id FROM emp")) == 5

    def test_comparison_filter(self, tiny):
        assert rows(tiny, "SELECT id FROM emp WHERE salary > 120 ORDER BY id") == [
            (2,), (3,),
        ]

    def test_null_never_matches_comparison(self, tiny):
        # id=4 has NULL salary: excluded from both sides
        low = rows(tiny, "SELECT id FROM emp WHERE salary <= 120")
        high = rows(tiny, "SELECT id FROM emp WHERE salary > 120")
        assert len(low) + len(high) == 4

    def test_is_null(self, tiny):
        assert rows(tiny, "SELECT id FROM emp WHERE salary IS NULL") == [(4,)]

    def test_is_not_null(self, tiny):
        assert len(rows(tiny, "SELECT id FROM emp WHERE salary IS NOT NULL")) == 4

    def test_between(self, tiny):
        assert rows(
            tiny, "SELECT id FROM emp WHERE salary BETWEEN 100 AND 150 ORDER BY id"
        ) == [(1,), (3,)]

    def test_in_list(self, tiny):
        assert rows(tiny, "SELECT id FROM emp WHERE id IN (1, 3, 9)") == [(1,), (3,)]

    def test_not_in_list(self, tiny):
        assert rows(
            tiny, "SELECT id FROM emp WHERE id NOT IN (1, 3) ORDER BY id"
        ) == [(2,), (4,), (5,)]

    def test_like(self, tiny):
        assert rows(tiny, "SELECT name FROM dept WHERE name LIKE 'e%'") == [("eng",)]

    def test_not_like(self, tiny):
        got = rows(tiny, "SELECT name FROM dept WHERE name NOT LIKE 'e%' ORDER BY name")
        assert got == [("hr",), ("ops",)]

    def test_and_or(self, tiny):
        got = rows(
            tiny,
            "SELECT id FROM emp WHERE dept = 'eng' OR (dept = 'ops' AND salary > 140) "
            "ORDER BY id",
        )
        assert got == [(1,), (2,), (3,)]

    def test_case_expression(self, tiny):
        got = rows(
            tiny,
            "SELECT id, CASE WHEN salary >= 150 THEN 'high' WHEN salary IS NULL "
            "THEN 'unknown' ELSE 'low' END FROM emp ORDER BY id",
        )
        assert got == [
            (1, "low"), (2, "high"), (3, "high"), (4, "unknown"), (5, "low"),
        ]


class TestArithmetic:
    def test_expressions(self, tiny):
        got = rows(tiny, "SELECT salary * 2 + 1 FROM emp WHERE id = 1")
        assert got == [(201.0,)]

    def test_division_is_float(self, tiny):
        assert rows(tiny, "SELECT 5 / 2 FROM dept LIMIT 1") == [(2.5,)]

    def test_division_by_zero_raises(self, tiny):
        with pytest.raises(ExecutionError, match="division by zero"):
            tiny.execute("SELECT budget / 0 FROM dept")

    def test_modulo(self, tiny):
        assert rows(tiny, "SELECT mod(budget, 300) FROM dept WHERE name = 'eng'") == [
            (100,)
        ]

    def test_null_propagates(self, tiny):
        assert rows(tiny, "SELECT salary + 1 FROM emp WHERE id = 4") == [(None,)]

    def test_concat(self, tiny):
        assert rows(tiny, "SELECT name || '-x' FROM dept WHERE name = 'hr'") == [
            ("hr-x",)
        ]

    def test_scalar_functions(self, tiny):
        assert rows(tiny, "SELECT abs(-5), upper('ab'), length('abc') FROM dept LIMIT 1") == [
            (5, "AB", 3)
        ]

    def test_coalesce(self, tiny):
        got = rows(tiny, "SELECT coalesce(salary, 0.0) FROM emp WHERE id = 4")
        assert got == [(0.0,)]


class TestJoins:
    def test_inner_join(self, tiny):
        got = rows(
            tiny,
            "SELECT e.id, d.budget FROM emp e JOIN dept d ON e.dept = d.name "
            "ORDER BY e.id",
        )
        assert got == [(1, 1000), (2, 1000), (3, 500), (4, 500)]

    def test_null_join_keys_do_not_match(self, tiny):
        got = rows(
            tiny, "SELECT e.id FROM emp e JOIN dept d ON e.dept = d.name"
        )
        assert (5,) not in got

    def test_left_join_preserves_unmatched(self, tiny):
        got = rows(
            tiny,
            "SELECT e.id, d.budget FROM emp e LEFT JOIN dept d ON e.dept = d.name "
            "ORDER BY e.id",
        )
        assert (5, None) in got
        assert len(got) == 5

    def test_right_join(self, tiny):
        got = rows(
            tiny,
            "SELECT d.name, e.id FROM emp e RIGHT JOIN dept d ON e.dept = d.name",
        )
        assert ("hr", None) in got

    def test_full_join(self, tiny):
        got = rows(
            tiny,
            "SELECT e.id, d.name FROM emp e FULL JOIN dept d ON e.dept = d.name",
        )
        assert (5, None) in got
        assert (None, "hr") in got

    def test_cross_join_count(self, tiny):
        assert len(rows(tiny, "SELECT 1 FROM emp, dept")) == 15

    def test_join_with_residual_filter(self, tiny):
        got = rows(
            tiny,
            "SELECT e.id FROM emp e JOIN dept d ON e.dept = d.name "
            "WHERE e.salary > d.budget / 5 ORDER BY e.id",
        )
        # eng budget/5=200 -> salary>200: none; ops budget/5=100 -> salary>100: id=3
        assert got == [(3,)]

    def test_three_way_join(self, tiny):
        got = rows(
            tiny,
            "SELECT count(*) FROM emp e JOIN dept d ON e.dept = d.name "
            "JOIN emp e2 ON e2.dept = d.name",
        )
        assert got == [(8,)]  # eng 2x2 + ops 2x2


class TestAggregation:
    def test_count_star(self, tiny):
        assert rows(tiny, "SELECT count(*) FROM emp") == [(5,)]

    def test_count_column_skips_nulls(self, tiny):
        assert rows(tiny, "SELECT count(salary) FROM emp") == [(4,)]

    def test_count_distinct(self, tiny):
        assert rows(tiny, "SELECT count(DISTINCT dept) FROM emp") == [(2,)]

    def test_sum_avg_min_max(self, tiny):
        got = rows(
            tiny, "SELECT sum(salary), avg(salary), min(salary), max(salary) FROM emp"
        )
        assert got == [(500.0, 125.0, 50.0, 200.0)]

    def test_group_by(self, tiny):
        got = rows(
            tiny,
            "SELECT dept, count(*), sum(salary) FROM emp "
            "WHERE dept IS NOT NULL GROUP BY dept ORDER BY dept",
        )
        assert got == [("eng", 2, 300.0), ("ops", 2, 150.0)]

    def test_group_with_null_key(self, tiny):
        got = rows(tiny, "SELECT dept, count(*) FROM emp GROUP BY dept")
        assert len(got) == 3  # eng, ops, NULL group

    def test_having(self, tiny):
        got = rows(
            tiny,
            "SELECT dept FROM emp GROUP BY dept HAVING sum(salary) > 200",
        )
        assert got == [("eng",)]

    def test_sum_empty_is_null(self, tiny):
        assert rows(tiny, "SELECT sum(salary) FROM emp WHERE id > 100") == [(None,)]

    def test_count_empty_is_zero(self, tiny):
        assert rows(tiny, "SELECT count(*) FROM emp WHERE id > 100") == [(0,)]

    def test_group_by_expression(self, tiny):
        got = rows(
            tiny,
            "SELECT id % 2, count(*) FROM emp GROUP BY id % 2 ORDER BY 1",
        )
        assert got == [(0, 2), (1, 3)]

    def test_min_max_text(self, tiny):
        assert rows(tiny, "SELECT min(name), max(name) FROM dept") == [("eng", "ops")]


class TestSortDistinctLimit:
    def test_order_desc(self, tiny):
        got = rows(tiny, "SELECT id FROM emp ORDER BY salary DESC")
        # DESC puts NULL first (PostgreSQL default)
        assert got[0] == (4,)
        assert got[1] == (2,)

    def test_order_asc_nulls_last(self, tiny):
        got = rows(tiny, "SELECT id FROM emp ORDER BY salary")
        assert got[-1] == (4,)

    def test_multi_key_sort(self, tiny):
        got = rows(tiny, "SELECT dept, id FROM emp WHERE dept IS NOT NULL "
                         "ORDER BY dept, id DESC")
        assert got == [("eng", 2), ("eng", 1), ("ops", 4), ("ops", 3)]

    def test_order_by_alias(self, tiny):
        got = rows(tiny, "SELECT salary * 2 AS double_pay FROM emp "
                         "WHERE salary IS NOT NULL ORDER BY double_pay")
        assert got[0] == (100.0,)

    def test_distinct(self, tiny):
        got = rows(tiny, "SELECT DISTINCT dept FROM emp WHERE dept IS NOT NULL "
                         "ORDER BY dept")
        assert got == [("eng",), ("ops",)]

    def test_limit(self, tiny):
        assert len(rows(tiny, "SELECT id FROM emp LIMIT 2")) == 2

    def test_offset(self, tiny):
        got = rows(tiny, "SELECT id FROM emp ORDER BY id LIMIT 2 OFFSET 3")
        assert got == [(4,), (5,)]

    def test_limit_zero(self, tiny):
        assert rows(tiny, "SELECT id FROM emp LIMIT 0") == []


class TestSubqueries:
    def test_in_subquery(self, tiny):
        got = rows(
            tiny,
            "SELECT name FROM dept WHERE name IN (SELECT dept FROM emp) ORDER BY name",
        )
        assert got == [("eng",), ("ops",)]

    def test_not_in_subquery_with_nulls_is_empty(self, tiny):
        # emp.dept contains NULL, so NOT IN returns no rows (SQL semantics)
        got = rows(tiny, "SELECT name FROM dept WHERE name NOT IN (SELECT dept FROM emp)")
        assert got == []

    def test_exists(self, tiny):
        got = rows(tiny, "SELECT count(*) FROM dept WHERE EXISTS (SELECT 1 FROM emp)")
        assert got == [(3,)]

    def test_not_exists_empty_subquery(self, tiny):
        got = rows(
            tiny,
            "SELECT count(*) FROM dept WHERE NOT EXISTS "
            "(SELECT 1 FROM emp WHERE id > 99)",
        )
        assert got == [(3,)]

    def test_scalar_subquery(self, tiny):
        got = rows(
            tiny,
            "SELECT id FROM emp WHERE salary = (SELECT max(salary) FROM emp)",
        )
        assert got == [(2,)]

    def test_scalar_subquery_multiple_rows_raises(self, tiny):
        with pytest.raises(ExecutionError, match="more than one row"):
            tiny.execute("SELECT id FROM emp WHERE salary = (SELECT salary FROM emp)")

    def test_derived_table(self, tiny):
        got = rows(
            tiny,
            "SELECT sub.d, sub.c FROM (SELECT dept AS d, count(*) AS c FROM emp "
            "GROUP BY dept) sub WHERE sub.c > 1 AND sub.d IS NOT NULL ORDER BY sub.d",
        )
        assert got == [("eng", 2), ("ops", 2)]

    def test_nested_subquery(self, tiny):
        got = rows(
            tiny,
            "SELECT name FROM dept WHERE name IN (SELECT dept FROM emp WHERE salary > "
            "(SELECT avg(salary) FROM emp))",
        )
        assert got == [("eng",)] or got == [("eng",), ("ops",)]


class TestDates:
    def test_date_comparison_with_iso_string(self, tiny):
        # hired stored as day numbers 10..50 => 1970-01-11 .. 1970-02-20
        got = rows(tiny, "SELECT id FROM emp WHERE hired < '1970-02-01' ORDER BY id")
        assert got == [(1,), (2,), (3,)]

    def test_extract_year(self, tiny):
        got = rows(tiny, "SELECT extract(year FROM hired) FROM emp WHERE id = 1")
        assert got == [(1970,)]

    def test_date_arithmetic(self, tiny):
        got = rows(tiny, "SELECT hired - 5 FROM emp WHERE id = 1")
        assert got == [(5,)]


class TestNullText:
    """NULL rows of a TEXT value are not converted: NULL in, NULL out."""

    @pytest.fixture(scope="class")
    def fuzz_db(self):
        from repro.fuzz import build_fuzz_database

        return build_fuzz_database(0)

    def test_date_compared_with_text_that_has_nulls(self, fuzz_db):
        via_case = rows(
            fuzz_db,
            "SELECT COUNT(*) FROM orders WHERE orders.order_date > "
            "CASE WHEN orders.amount > 100 THEN '2000-01-01' END",
        )
        via_and = rows(
            fuzz_db,
            "SELECT COUNT(*) FROM orders WHERE orders.amount > 100 "
            "AND orders.order_date > '2000-01-01'",
        )
        assert via_case == via_and == [(86,)]

    @pytest.mark.parametrize(
        "text, type_name, value",
        [("2001-02-03", "DATE", 11356), ("5", "INTEGER", 5)],
    )
    def test_cast_keeps_null_rows_null(self, fuzz_db, text, type_name, value):
        got = rows(
            fuzz_db,
            f"SELECT users.age, CAST(CASE WHEN users.age > 30 THEN '{text}' END "
            f"AS {type_name}) FROM users",
        )
        assert any(age is None for age, _ in got)
        for age, cast in got:
            assert cast == (value if age is not None and age > 30 else None)

    @pytest.mark.parametrize(
        "sql, message",
        [
            (
                "SELECT COUNT(*) FROM orders WHERE orders.order_date > "
                "CASE WHEN orders.amount > 100 THEN 'nope' END",
                "invalid date literal: 'nope'",
            ),
            (
                "SELECT COUNT(*) FROM users WHERE "
                "CAST(CASE WHEN users.age > 30 THEN 'x' END AS DATE) IS NULL",
                "invalid date literal: 'x'",
            ),
            (
                "SELECT COUNT(*) FROM users WHERE "
                "CAST(CASE WHEN users.age > 30 THEN 'x' END AS INTEGER) > 1",
                "invalid numeric cast: could not convert string to float: 'x'",
            ),
        ],
        ids=["date-compare", "date-cast", "integer-cast"],
    )
    def test_bad_text_still_raises(self, fuzz_db, sql, message):
        with pytest.raises(ExecutionError) as excinfo:
            fuzz_db.execute(sql)
        assert str(excinfo.value).splitlines()[0] == message
