"""Recursive-descent parser for the engine's SQL dialect.

The dialect covers the subset that SQLBarber's workloads exercise:

* ``SELECT [DISTINCT] ... FROM ... [JOIN ... ON ...]*``
* ``WHERE`` with AND/OR/NOT, comparisons, BETWEEN, IN (list or subquery),
  LIKE/ILIKE, IS [NOT] NULL, EXISTS, scalar subqueries
* ``GROUP BY`` / ``HAVING`` with the aggregates COUNT/SUM/AVG/MIN/MAX
* ``ORDER BY`` / ``LIMIT`` / ``OFFSET``
* scalar expressions: arithmetic, string concatenation, CASE WHEN, CAST,
  and a library of scalar functions
* derived tables (subqueries in FROM)
* ``{name}`` placeholders anywhere an expression may appear, so the very
  same grammar parses SQL *templates*
* top-level ``UNION [ALL]`` chains (INTERSECT/EXCEPT and set operations
  inside subqueries are rejected with :class:`UnsupportedSqlError`)

SQLBarber passes SQL as text between its LLM and the database, so the
same text is parsed again and again: by validation, by template
compilation, by the workload analyzer and by each rewrite the LLM tries.
A small memo keyed by (entry point, SQL text) keeps the trees the parser
built, and every call, the first included, returns a fresh
:func:`~repro.sqldb.ast_nodes.copy_tree` copy, so each caller owns and may
mutate the tree it gets.  Parsing reads no catalog, so nothing ever
invalidates an entry.  A failed parse is not stored: every call raises a
fresh, positioned error.
"""

from __future__ import annotations

import functools

from . import ast_nodes as ast
from .errors import SqlSyntaxError, UnsupportedSqlError
from .lexer import Token, TokenType, tokenize

_COMPARISON_OPS = frozenset({"=", "<>", "!=", "<", "<=", ">", ">="})
_JOIN_KEYWORDS = frozenset({"join", "inner", "left", "right", "full", "cross"})

# Keywords that may still be used as table/column identifiers, matching how
# real dialects treat DDL-only and type-name words as non-reserved.
_NON_RESERVED = frozenset(
    """
    key primary foreign references index unique table insert into values
    create date text integer bigint boolean double precision varchar char
    numeric decimal float real interval update set delete
    """.split()
)

#: Any statement :func:`parse_sql` can return.
SqlStatement = (
    ast.SelectStatement
    | ast.CompoundSelect
    | ast.InsertStatement
    | ast.UpdateStatement
    | ast.DeleteStatement
)


def parse_select(sql: str) -> ast.SelectStatement | ast.CompoundSelect:
    """Parse *sql* into a (possibly UNION-compound) SELECT statement.

    Syntax errors leave the parser with line/column information attached
    (see :meth:`~repro.sqldb.errors.SqlError.attach_source`).
    """
    return ast.copy_tree(_parse_once(_Parser.parse_statement, sql))


def parse_sql(sql: str) -> SqlStatement:
    """Parse any supported statement: SELECT or DML (INSERT/UPDATE/DELETE).

    The statement kind is dispatched on the leading keyword, so a SELECT
    parses exactly as :func:`parse_select` would parse it (same AST, same
    errors).  Syntax errors carry attached source like ``parse_select``'s.
    """
    return ast.copy_tree(_parse_once(_Parser.parse_any_statement, sql))


#: Trees kept by the memo.  Replaying each perfbench workload's parse calls,
#: the hit ratio stopped rising at 16 entries on ``plan_cost`` and
#: ``actual_rows`` and at 32 on ``serve_small_jobs``.
_MEMO_SIZE = 64


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _parse_once(entry, sql: str) -> SqlStatement:
    """Parse *sql* from the ``_Parser`` method *entry*.  Never hand the
    result out: it is the memo's copy.  ``lru_cache`` stores no exception,
    and it is safe to call from several threads."""
    try:
        parser = _Parser(tokenize(sql))
        statement = entry(parser)
        parser.expect_end()
    except SqlSyntaxError as exc:
        raise exc.attach_source(sql)
    return statement


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token helpers -----------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _peek(self, offset: int = 1) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._current
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _accept_keyword(self, *keywords: str) -> bool:
        if self._current.matches_keyword(*keywords):
            self._advance()
            return True
        return False

    def _expect_keyword(self, keyword: str) -> None:
        if not self._accept_keyword(keyword):
            self._error(f'expected "{keyword.upper()}"')

    def _accept_punct(self, value: str) -> bool:
        token = self._current
        if token.type is TokenType.PUNCTUATION and token.value == value:
            self._advance()
            return True
        return False

    def _expect_punct(self, value: str) -> None:
        if not self._accept_punct(value):
            self._error(f'expected "{value}"')

    def _accept_operator(self, *values: str) -> str | None:
        token = self._current
        if token.type is TokenType.OPERATOR and token.value in values:
            self._advance()
            return token.value
        return None

    def _error(self, message: str) -> None:
        token = self._current
        near = token.value if token.type is not TokenType.EOF else "end of input"
        raise SqlSyntaxError(f'{message}, at or near "{near}"', position=token.position)

    def expect_end(self) -> None:
        self._accept_punct(";")
        if self._current.type is not TokenType.EOF:
            self._error("unexpected trailing input")

    # -- statements --------------------------------------------------------

    def parse_any_statement(self) -> "SqlStatement":
        token = self._current
        if token.matches_keyword("insert"):
            return self._parse_insert()
        if token.matches_keyword("update"):
            return self._parse_update()
        if token.matches_keyword("delete"):
            return self._parse_delete()
        return self.parse_statement()

    def _parse_insert(self) -> ast.InsertStatement:
        self._expect_keyword("insert")
        self._expect_keyword("into")
        position = self._current.position
        name = self._expect_identifier("table name")
        target = ast.TableRef(name=name, position=position)
        columns: list[str] | None = None
        if self._accept_punct("("):
            columns = [self._expect_identifier("column name")]
            while self._accept_punct(","):
                columns.append(self._expect_identifier("column name"))
            self._expect_punct(")")
        if self._accept_keyword("values"):
            rows = [self._parse_value_row()]
            while self._accept_punct(","):
                rows.append(self._parse_value_row())
            return ast.InsertStatement(target=target, columns=columns, rows=rows)
        if self._current.matches_keyword("select"):
            source = self.parse_statement()
            return ast.InsertStatement(
                target=target, columns=columns, source=source
            )
        self._error("expected VALUES or SELECT in INSERT")
        raise AssertionError("unreachable")

    def _parse_value_row(self) -> list[ast.Expression]:
        self._expect_punct("(")
        row = [self._parse_expression()]
        while self._accept_punct(","):
            row.append(self._parse_expression())
        self._expect_punct(")")
        return row

    def _parse_update(self) -> ast.UpdateStatement:
        self._expect_keyword("update")
        position = self._current.position
        name = self._expect_identifier("table name")
        target = ast.TableRef(name=name, position=position)
        self._expect_keyword("set")
        assignments = [self._parse_assignment()]
        while self._accept_punct(","):
            assignments.append(self._parse_assignment())
        where = self._parse_expression() if self._accept_keyword("where") else None
        return ast.UpdateStatement(
            target=target, assignments=assignments, where=where
        )

    def _parse_assignment(self) -> ast.Assignment:
        position = self._current.position
        column = self._expect_identifier("column name")
        if self._accept_operator("=") is None:
            self._error('expected "=" in SET assignment')
        return ast.Assignment(
            column=column, value=self._parse_expression(), position=position
        )

    def _parse_delete(self) -> ast.DeleteStatement:
        self._expect_keyword("delete")
        self._expect_keyword("from")
        position = self._current.position
        name = self._expect_identifier("table name")
        target = ast.TableRef(name=name, position=position)
        where = self._parse_expression() if self._accept_keyword("where") else None
        return ast.DeleteStatement(target=target, where=where)

    def parse_statement(self) -> ast.SelectStatement | ast.CompoundSelect:
        statement = self._parse_select()
        if not self._current.matches_keyword("union", "intersect", "except"):
            return statement
        selects = [statement]
        ops: list[str] = []
        while True:
            if self._current.matches_keyword("intersect", "except"):
                raise UnsupportedSqlError(
                    f"set operation {self._current.value.upper()} "
                    "is not supported"
                )
            if not self._accept_keyword("union"):
                break
            op = "union all" if self._accept_keyword("all") else "union"
            ops.append(op)
            selects.append(self._parse_select())
        return ast.CompoundSelect(selects=selects, ops=ops)

    def _parse_subselect(self) -> ast.SelectStatement:
        """A nested SELECT (derived table / subquery): no set operations."""
        statement = self.parse_statement()
        if isinstance(statement, ast.CompoundSelect):
            raise UnsupportedSqlError(
                "set operations are not supported inside subqueries"
            )
        return statement

    def _parse_select(self) -> ast.SelectStatement:
        self._expect_keyword("select")
        distinct = False
        if self._accept_keyword("distinct"):
            distinct = True
        else:
            self._accept_keyword("all")
        select_items = self._parse_select_list()
        from_clause = None
        if self._accept_keyword("from"):
            from_clause = self._parse_table_expression()
        where = self._parse_expression() if self._accept_keyword("where") else None
        group_by: list[ast.Expression] = []
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            group_by.append(self._parse_expression())
            while self._accept_punct(","):
                group_by.append(self._parse_expression())
        having = self._parse_expression() if self._accept_keyword("having") else None
        order_by: list[ast.OrderItem] = []
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            order_by.append(self._parse_order_item())
            while self._accept_punct(","):
                order_by.append(self._parse_order_item())
        limit = offset = None
        if self._accept_keyword("limit"):
            limit = self._parse_nonnegative_int("LIMIT")
        if self._accept_keyword("offset"):
            offset = self._parse_nonnegative_int("OFFSET")
        return ast.SelectStatement(
            select_items=select_items,
            from_clause=from_clause,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _parse_nonnegative_int(self, clause: str) -> int:
        token = self._current
        if token.type is not TokenType.NUMBER or "." in token.value:
            self._error(f"{clause} expects an integer literal")
        self._advance()
        return int(token.value)

    def _parse_select_list(self) -> list[ast.SelectItem]:
        items = [self._parse_select_item()]
        while self._accept_punct(","):
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> ast.SelectItem:
        expression = self._parse_expression()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_identifier("alias")
        elif self._current.type is TokenType.IDENTIFIER:
            alias = self._advance().value
        return ast.SelectItem(expression=expression, alias=alias)

    def _parse_order_item(self) -> ast.OrderItem:
        expression = self._parse_expression()
        descending = False
        if self._accept_keyword("desc"):
            descending = True
        else:
            self._accept_keyword("asc")
        return ast.OrderItem(expression=expression, descending=descending)

    def _expect_identifier(self, what: str) -> str:
        token = self._current
        if token.type is not TokenType.IDENTIFIER and not (
            token.type is TokenType.KEYWORD and token.value in _NON_RESERVED
        ):
            self._error(f"expected {what}")
        self._advance()
        return token.value

    # -- FROM clause -------------------------------------------------------

    def _parse_table_expression(self) -> ast.TableExpression:
        left = self._parse_table_primary()
        while True:
            join_type = self._parse_join_type()
            if join_type is None:
                if self._accept_punct(","):
                    right = self._parse_table_primary()
                    left = ast.Join("cross", left, right, condition=None)
                    continue
                return left
            right = self._parse_table_primary()
            condition = None
            if join_type != "cross":
                self._expect_keyword("on")
                condition = self._parse_expression()
            left = ast.Join(join_type, left, right, condition)

    def _parse_join_type(self) -> str | None:
        token = self._current
        if token.type is not TokenType.KEYWORD or token.value not in _JOIN_KEYWORDS:
            return None
        if self._accept_keyword("join"):
            return "inner"
        if self._accept_keyword("inner"):
            self._expect_keyword("join")
            return "inner"
        if self._accept_keyword("cross"):
            self._expect_keyword("join")
            return "cross"
        for side in ("left", "right", "full"):
            if self._accept_keyword(side):
                self._accept_keyword("outer")
                self._expect_keyword("join")
                return side
        return None

    def _parse_table_primary(self) -> ast.TableExpression:
        if self._accept_punct("("):
            if self._current.matches_keyword("select"):
                subquery = self._parse_subselect()
                self._expect_punct(")")
                self._accept_keyword("as")
                alias = self._expect_identifier("derived table alias")
                return ast.DerivedTable(subquery=subquery, alias=alias)
            # Parenthesized join tree.
            inner = self._parse_table_expression()
            self._expect_punct(")")
            return inner
        position = self._current.position
        name = self._expect_identifier("table name")
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_identifier("table alias")
        elif self._current.type is TokenType.IDENTIFIER:
            alias = self._advance().value
        return ast.TableRef(name=name, alias=alias, position=position)

    # -- expressions (precedence climbing) ----------------------------------

    def _parse_expression(self) -> ast.Expression:
        return self._parse_or()

    def _parse_or(self) -> ast.Expression:
        left = self._parse_and()
        while self._accept_keyword("or"):
            left = ast.BinaryOp("or", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expression:
        left = self._parse_not()
        while self._accept_keyword("and"):
            left = ast.BinaryOp("and", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expression:
        if self._accept_keyword("not"):
            return ast.UnaryOp("not", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expression:
        left = self._parse_additive()
        op = self._accept_operator(*_COMPARISON_OPS)
        if op is not None:
            if op == "!=":
                op = "<>"
            return ast.BinaryOp(op, left, self._parse_additive())
        if self._current.matches_keyword("is"):
            self._advance()
            negated = self._accept_keyword("not")
            self._expect_keyword("null")
            return ast.IsNull(left, negated=negated)
        negated = False
        if self._current.matches_keyword("not") and self._peek().matches_keyword(
            "between", "in", "like", "ilike"
        ):
            self._advance()
            negated = True
        if self._accept_keyword("between"):
            low = self._parse_additive()
            self._expect_keyword("and")
            high = self._parse_additive()
            return ast.Between(left, low, high, negated=negated)
        if self._accept_keyword("in"):
            return self._parse_in(left, negated)
        if self._accept_keyword("like"):
            return ast.Like(left, self._parse_additive(), negated=negated)
        if self._accept_keyword("ilike"):
            return ast.Like(
                left, self._parse_additive(), negated=negated, case_insensitive=True
            )
        if negated:
            self._error("expected BETWEEN, IN, or LIKE after NOT")
        return left

    def _parse_in(self, operand: ast.Expression, negated: bool) -> ast.Expression:
        self._expect_punct("(")
        if self._current.matches_keyword("select"):
            subquery = self._parse_subselect()
            self._expect_punct(")")
            return ast.InSubquery(operand, subquery, negated=negated)
        items = [self._parse_expression()]
        while self._accept_punct(","):
            items.append(self._parse_expression())
        self._expect_punct(")")
        return ast.InList(operand, items, negated=negated)

    def _parse_additive(self) -> ast.Expression:
        left = self._parse_multiplicative()
        while True:
            op = self._accept_operator("+", "-", "||")
            if op is None:
                return left
            left = ast.BinaryOp(op, left, self._parse_multiplicative())

    def _parse_multiplicative(self) -> ast.Expression:
        left = self._parse_unary()
        while True:
            op = self._accept_operator("*", "/", "%")
            if op is None:
                return left
            left = ast.BinaryOp(op, left, self._parse_unary())

    def _parse_unary(self) -> ast.Expression:
        if self._accept_operator("-"):
            return ast.UnaryOp("-", self._parse_unary())
        if self._accept_operator("+"):
            return self._parse_unary()
        return self._parse_primary()

    # -- primary expressions -------------------------------------------------

    def _parse_primary(self) -> ast.Expression:
        token = self._current
        if token.type is TokenType.NUMBER:
            self._advance()
            if "." in token.value or "e" in token.value or "E" in token.value:
                return ast.Literal(float(token.value))
            return ast.Literal(int(token.value))
        if token.type is TokenType.STRING:
            self._advance()
            return ast.Literal(token.value)
        if token.type is TokenType.PLACEHOLDER:
            self._advance()
            return ast.Placeholder(token.value)
        if token.matches_keyword("true"):
            self._advance()
            return ast.Literal(True)
        if token.matches_keyword("false"):
            self._advance()
            return ast.Literal(False)
        if token.matches_keyword("null"):
            self._advance()
            return ast.Literal(None)
        if token.matches_keyword("case"):
            return self._parse_case()
        if token.matches_keyword("cast"):
            return self._parse_cast()
        if token.matches_keyword("exists"):
            self._advance()
            self._expect_punct("(")
            subquery = self._parse_subselect()
            self._expect_punct(")")
            return ast.Exists(subquery)
        if token.matches_keyword("extract"):
            return self._parse_extract()
        if token.matches_keyword("count", "sum", "avg", "min", "max", "substring"):
            return self._parse_function_call(token.value)
        if token.type is TokenType.OPERATOR and token.value == "*":
            self._advance()
            return ast.Star()
        if self._accept_punct("("):
            if self._current.matches_keyword("select"):
                subquery = self._parse_subselect()
                self._expect_punct(")")
                return ast.ScalarSubquery(subquery)
            expression = self._parse_expression()
            self._expect_punct(")")
            return expression
        if token.type is TokenType.IDENTIFIER or (
            token.type is TokenType.KEYWORD and token.value in _NON_RESERVED
        ):
            return self._parse_identifier_expression()
        self._error("expected expression")
        raise AssertionError("unreachable")

    def _parse_identifier_expression(self) -> ast.Expression:
        start = self._current
        name = self._advance().value
        # Function call?
        if self._current.type is TokenType.PUNCTUATION and self._current.value == "(":
            return self._parse_function_call(
                name, already_consumed_name=True, position=start.position
            )
        # Qualified reference?
        if self._accept_operator("."):
            token = self._current
            if token.type is TokenType.OPERATOR and token.value == "*":
                self._advance()
                return ast.Star(table=name)
            column = self._expect_identifier("column name")
            return ast.ColumnRef(column=column, table=name, position=start.position)
        return ast.ColumnRef(column=name, position=start.position)

    def _parse_function_call(
        self,
        name: str,
        already_consumed_name: bool = False,
        position: int | None = None,
    ) -> ast.Expression:
        if not already_consumed_name:
            position = self._current.position
            self._advance()
        self._expect_punct("(")
        distinct = self._accept_keyword("distinct")
        args: list[ast.Expression] = []
        if not self._accept_punct(")"):
            args.append(self._parse_expression())
            while self._accept_punct(","):
                args.append(self._parse_expression())
            self._expect_punct(")")
        return ast.FunctionCall(
            name=name, args=args, distinct=distinct, position=position
        )

    def _parse_case(self) -> ast.Expression:
        self._expect_keyword("case")
        whens: list[tuple[ast.Expression, ast.Expression]] = []
        while self._accept_keyword("when"):
            condition = self._parse_expression()
            self._expect_keyword("then")
            whens.append((condition, self._parse_expression()))
        if not whens:
            self._error("CASE requires at least one WHEN branch")
        default = self._parse_expression() if self._accept_keyword("else") else None
        self._expect_keyword("end")
        return ast.CaseWhen(whens=whens, default=default)

    def _parse_cast(self) -> ast.Expression:
        self._expect_keyword("cast")
        self._expect_punct("(")
        operand = self._parse_expression()
        self._expect_keyword("as")
        type_tokens: list[str] = []
        while self._current.type in (TokenType.KEYWORD, TokenType.IDENTIFIER):
            type_tokens.append(self._advance().value)
        if not type_tokens:
            self._error("expected type name in CAST")
        self._expect_punct(")")
        return ast.Cast(operand, " ".join(type_tokens))

    def _parse_extract(self) -> ast.Expression:
        self._expect_keyword("extract")
        self._expect_punct("(")
        part_token = self._advance()
        if part_token.type not in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            self._error("expected date part in EXTRACT")
        self._expect_keyword("from")
        operand = self._parse_expression()
        self._expect_punct(")")
        return ast.FunctionCall("extract", [ast.Literal(part_token.value), operand])
