"""Parser coverage: clause structure, precedence, subqueries, templates."""

import pytest

from repro.sqldb import ast_nodes as ast
from repro.sqldb.errors import SqlSyntaxError, UnsupportedSqlError
from repro.sqldb.parser import parse_select


class TestSelectStructure:
    def test_minimal_select(self):
        stmt = parse_select("SELECT 1")
        assert stmt.from_clause is None
        assert isinstance(stmt.select_items[0].expression, ast.Literal)

    def test_select_star(self):
        stmt = parse_select("SELECT * FROM t")
        assert isinstance(stmt.select_items[0].expression, ast.Star)

    def test_qualified_star(self):
        stmt = parse_select("SELECT t.* FROM t")
        star = stmt.select_items[0].expression
        assert isinstance(star, ast.Star)
        assert star.table == "t"

    def test_aliases(self):
        stmt = parse_select("SELECT a AS x, b y FROM t")
        assert stmt.select_items[0].alias == "x"
        assert stmt.select_items[1].alias == "y"

    def test_distinct(self):
        assert parse_select("SELECT DISTINCT a FROM t").distinct
        assert not parse_select("SELECT ALL a FROM t").distinct

    def test_limit_offset(self):
        stmt = parse_select("SELECT a FROM t LIMIT 10 OFFSET 5")
        assert stmt.limit == 10
        assert stmt.offset == 5

    def test_limit_requires_integer(self):
        with pytest.raises(SqlSyntaxError):
            parse_select("SELECT a FROM t LIMIT 1.5")

    def test_group_by_having(self):
        stmt = parse_select(
            "SELECT a, count(*) FROM t GROUP BY a HAVING count(*) > 2"
        )
        assert len(stmt.group_by) == 1
        assert stmt.having is not None

    def test_order_by_direction(self):
        stmt = parse_select("SELECT a FROM t ORDER BY a DESC, b ASC, c")
        assert [o.descending for o in stmt.order_by] == [True, False, False]

    def test_trailing_semicolon_ok(self):
        parse_select("SELECT 1;")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_select("SELECT 1 1")

    def test_union_parses_as_compound(self):
        statement = parse_select("SELECT a FROM t UNION SELECT b FROM s")
        assert isinstance(statement, ast.CompoundSelect)
        assert statement.ops == ["union"]
        assert statement.deduplicates

    def test_union_all_chain(self):
        statement = parse_select(
            "SELECT a FROM t UNION ALL SELECT b FROM s UNION ALL SELECT c FROM u"
        )
        assert len(statement.selects) == 3
        assert not statement.deduplicates

    def test_intersect_unsupported(self):
        with pytest.raises(UnsupportedSqlError):
            parse_select("SELECT a FROM t INTERSECT SELECT b FROM s")

    def test_union_in_subquery_unsupported(self):
        with pytest.raises(UnsupportedSqlError):
            parse_select(
                "SELECT 1 FROM t WHERE a IN "
                "(SELECT b FROM s UNION SELECT c FROM u)"
            )


class TestJoins:
    def test_inner_join(self):
        stmt = parse_select("SELECT * FROM a JOIN b ON a.x = b.x")
        join = stmt.from_clause
        assert isinstance(join, ast.Join)
        assert join.join_type == "inner"
        assert join.condition is not None

    def test_left_outer_join(self):
        stmt = parse_select("SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.x")
        assert stmt.from_clause.join_type == "left"

    def test_cross_join(self):
        stmt = parse_select("SELECT * FROM a CROSS JOIN b")
        assert stmt.from_clause.join_type == "cross"
        assert stmt.from_clause.condition is None

    def test_comma_join_is_cross(self):
        stmt = parse_select("SELECT * FROM a, b")
        assert stmt.from_clause.join_type == "cross"

    def test_join_chain(self):
        stmt = parse_select(
            "SELECT * FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y"
        )
        outer = stmt.from_clause
        assert isinstance(outer.left, ast.Join)

    def test_table_aliases(self):
        stmt = parse_select("SELECT * FROM orders AS o JOIN users u ON o.a = u.a")
        join = stmt.from_clause
        assert join.left.alias == "o"
        assert join.right.alias == "u"

    def test_derived_table(self):
        stmt = parse_select("SELECT * FROM (SELECT a FROM t) AS sub")
        derived = stmt.from_clause
        assert isinstance(derived, ast.DerivedTable)
        assert derived.alias == "sub"

    def test_join_requires_on(self):
        with pytest.raises(SqlSyntaxError):
            parse_select("SELECT * FROM a JOIN b")


class TestExpressions:
    def where(self, condition):
        return parse_select(f"SELECT a FROM t WHERE {condition}").where

    def test_precedence_and_or(self):
        expr = self.where("a = 1 OR b = 2 AND c = 3")
        assert isinstance(expr, ast.BinaryOp) and expr.op == "or"
        assert expr.right.op == "and"

    def test_precedence_arithmetic(self):
        expr = self.where("a + b * c = 1")
        left = expr.left
        assert left.op == "+"
        assert left.right.op == "*"

    def test_parentheses(self):
        expr = self.where("(a + b) * c = 1")
        assert expr.left.op == "*"

    def test_not(self):
        expr = self.where("NOT a = 1")
        assert isinstance(expr, ast.UnaryOp) and expr.op == "not"

    def test_between(self):
        expr = self.where("a BETWEEN 1 AND 10")
        assert isinstance(expr, ast.Between)

    def test_not_between(self):
        assert self.where("a NOT BETWEEN 1 AND 10").negated

    def test_in_list(self):
        expr = self.where("a IN (1, 2, 3)")
        assert isinstance(expr, ast.InList)
        assert len(expr.items) == 3

    def test_in_subquery(self):
        expr = self.where("a IN (SELECT b FROM s)")
        assert isinstance(expr, ast.InSubquery)

    def test_not_in(self):
        assert self.where("a NOT IN (1)").negated

    def test_exists(self):
        expr = self.where("EXISTS (SELECT 1 FROM s)")
        assert isinstance(expr, ast.Exists)

    def test_scalar_subquery(self):
        expr = self.where("a > (SELECT max(b) FROM s)")
        assert isinstance(expr.right, ast.ScalarSubquery)

    def test_like(self):
        expr = self.where("name LIKE 'a%'")
        assert isinstance(expr, ast.Like)
        assert not expr.case_insensitive

    def test_ilike(self):
        assert self.where("name ILIKE 'a%'").case_insensitive

    def test_is_null(self):
        expr = self.where("a IS NULL")
        assert isinstance(expr, ast.IsNull) and not expr.negated

    def test_is_not_null(self):
        assert self.where("a IS NOT NULL").negated

    def test_case_when(self):
        expr = parse_select(
            "SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t"
        ).select_items[0].expression
        assert isinstance(expr, ast.CaseWhen)
        assert expr.default is not None

    def test_case_requires_when(self):
        with pytest.raises(SqlSyntaxError):
            parse_select("SELECT CASE ELSE 1 END FROM t")

    def test_cast(self):
        expr = parse_select("SELECT CAST(a AS double precision) FROM t")
        cast = expr.select_items[0].expression
        assert isinstance(cast, ast.Cast)
        assert cast.type_name == "double precision"

    def test_extract(self):
        expr = parse_select("SELECT EXTRACT(year FROM d) FROM t")
        call = expr.select_items[0].expression
        assert isinstance(call, ast.FunctionCall)
        assert call.name == "extract"

    def test_unary_minus(self):
        expr = self.where("a = -5")
        assert isinstance(expr.right, ast.UnaryOp)

    def test_neq_normalized(self):
        assert self.where("a != 1").op == "<>"

    def test_concat_operator(self):
        expr = parse_select("SELECT a || b FROM t").select_items[0].expression
        assert expr.op == "||"


class TestAggregatesAndFunctions:
    def test_count_star(self):
        call = parse_select("SELECT count(*) FROM t").select_items[0].expression
        assert call.is_aggregate
        assert isinstance(call.args[0], ast.Star)

    def test_count_distinct(self):
        call = parse_select("SELECT count(DISTINCT a) FROM t").select_items[0].expression
        assert call.distinct

    def test_nested_function(self):
        call = parse_select("SELECT sum(abs(a)) FROM t").select_items[0].expression
        assert call.name == "sum"
        assert call.args[0].name == "abs"


class TestTemplates:
    def test_placeholder_expression(self):
        stmt = parse_select("SELECT a FROM t WHERE a > {p_1}")
        assert isinstance(stmt.where.right, ast.Placeholder)

    def test_find_placeholders_order_and_dedup(self):
        stmt = parse_select(
            "SELECT a FROM t WHERE a > {p_2} AND b < {p_1} AND c = {p_2}"
        )
        assert ast.find_placeholders(stmt) == ["p_2", "p_1"]

    def test_placeholder_in_in_list(self):
        stmt = parse_select("SELECT a FROM t WHERE a IN ({p_1}, {p_2})")
        assert len(ast.find_placeholders(stmt)) == 2


class TestWalk:
    def test_walk_reaches_subquery(self):
        stmt = parse_select("SELECT a FROM t WHERE a IN (SELECT b FROM s WHERE c = 1)")
        tables = [n.name for n in stmt.walk() if isinstance(n, ast.TableRef)]
        assert set(tables) == {"t", "s"}

    def test_walk_case_children(self):
        stmt = parse_select("SELECT CASE WHEN a = 1 THEN b ELSE c END FROM t")
        refs = [n.column for n in stmt.walk() if isinstance(n, ast.ColumnRef)]
        assert set(refs) == {"a", "b", "c"}


class TestErrorPositions:
    """Syntax errors point at the offending token (offset + line/column)."""

    def test_position_and_line_column(self):
        with pytest.raises(SqlSyntaxError) as excinfo:
            parse_select("select from t")
        err = excinfo.value
        assert err.position == 7  # the FROM keyword
        assert (err.line, err.column) == (1, 8)

    def test_multiline_position(self):
        with pytest.raises(SqlSyntaxError) as excinfo:
            parse_select("select a\nfrom t\nwhere a >")
        err = excinfo.value
        assert err.position == len("select a\nfrom t\nwhere a >")
        assert err.line == 3

    def test_context_snippet_caret(self):
        with pytest.raises(SqlSyntaxError) as excinfo:
            parse_select("select a,, b from t")
        snippet = excinfo.value.context_snippet()
        assert snippet is not None
        line, caret = snippet.split("\n")
        assert line == "LINE 1: select a,, b from t"
        # The caret column lines up with the second comma.
        assert caret.index("^") == len("LINE 1: ") + line[len("LINE 1: "):].index(",,") + 1

    def test_trailing_input_position(self):
        sql = "select a from t banana extra"
        with pytest.raises(SqlSyntaxError) as excinfo:
            parse_select(sql)
        assert excinfo.value.position == sql.index("extra")

    def test_string_literal_error_points_at_its_start(self):
        sql = "select 'abc' 'x' from t"
        with pytest.raises(SqlSyntaxError) as excinfo:
            parse_select(sql)
        err = excinfo.value
        assert err.position == sql.index("'x'") == 13
        assert 'at or near "x" (position 13)' in str(err)
        line, caret = err.context_snippet().split("\n")
        assert caret.index("^") == len("LINE 1: ") + 13

    def test_number_literal_error_points_at_its_start(self):
        sql = "select a from t limit 5 7"
        with pytest.raises(SqlSyntaxError) as excinfo:
            parse_select(sql)
        assert excinfo.value.position == sql.index("7")
