"""SQL scripts: CREATE TABLE, CREATE INDEX and INSERT INTO.

The query engine's grammar lives in :mod:`repro.sqldb.parser`; this module
adds the two statements it lacks, CREATE TABLE and CREATE [UNIQUE] INDEX,
so users can load their own schemas from a plain SQL script instead of the
built-in generators::

    db = Database("mine")
    run_script(db, '''
        CREATE TABLE users (
            id integer PRIMARY KEY,
            name text NOT NULL
        );
        CREATE TABLE orders (
            oid integer PRIMARY KEY,
            uid integer REFERENCES users(id),
            amount double precision
        );
        INSERT INTO users VALUES (1, 'ann'), (2, 'bob');
    ''')

A script is tokenized once by the engine's lexer and split at its ``;``
tokens.  CREATE statements parse with :class:`_DdlParser`, the engine's
parser plus the DDL grammar; INSERT statements are the engine's own and
run through :meth:`Database.execute`, so their binding, value coercion,
constraint checks and errors are the engine's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast_nodes as ast
from .catalog import IndexMeta
from .database import Database
from .errors import SqlError, SqlSyntaxError, UnsupportedSqlError
from .lexer import Token, TokenType, tokenize
from .parser import _Parser, parse_sql
from .storage import Column, Table
from .types import ColumnType, SqlType, parse_type_name


@dataclass
class ColumnDef:
    """One column in a CREATE TABLE statement."""

    name: str
    sql_type: SqlType
    not_null: bool = False
    primary_key: bool = False
    references: tuple[str, str] | None = None  # (table, column)


@dataclass
class CreateTable:
    """A parsed CREATE TABLE statement."""

    name: str
    columns: list[ColumnDef] = field(default_factory=list)
    primary_key: list[str] = field(default_factory=list)
    foreign_keys: list[tuple[str, str, str]] = field(default_factory=list)
    # (column, ref_table, ref_column)


@dataclass
class CreateIndex:
    """A parsed CREATE [UNIQUE] INDEX statement."""

    name: str
    table: str
    column: str
    unique: bool = False


Statement = CreateTable | CreateIndex | ast.InsertStatement


def split_statements(script: str) -> list[str]:
    """The text of each statement of *script*, split at its ``;`` tokens."""
    return [text for text, _ in _statements(script)]


def _statements(script: str) -> list[tuple[str, list[Token]]]:
    """Each statement of *script* as (text, tokens).

    The tokens are a run of ``tokenize(script)`` between ``;`` tokens,
    closed by an EOF token at the run's end; runs that hold no token (an
    empty statement, a trailing comment) are skipped.
    """
    tokens = tokenize(script)
    statements: list[tuple[str, list[Token]]] = []
    start = 0
    for end, token in enumerate(tokens):
        if token.type is TokenType.EOF or (
            token.type is TokenType.PUNCTUATION and token.value == ";"
        ):
            if end > start:
                text = script[tokens[start].position : token.position].rstrip()
                run = tokens[start:end] + [Token(TokenType.EOF, "", token.position)]
                statements.append((text, run))
            start = end + 1
    return statements


class _DdlParser(_Parser):
    """The engine's parser plus CREATE TABLE and CREATE [UNIQUE] INDEX."""

    def _expect_identifier(self, what: str) -> str:
        # DDL names may be any word, reserved ones such as count included.
        token = self._current
        if token.type not in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            self._error(f"expected {what}")
        return self._advance().value

    def parse_create(self) -> CreateTable | CreateIndex:
        self._expect_keyword("create")
        unique = self._accept_keyword("unique")
        if self._accept_keyword("index"):
            return self._parse_create_index(unique)
        if unique:
            self._error("expected INDEX after UNIQUE")
        self._expect_keyword("table")
        return self._parse_create_table()

    def _parse_create_table(self) -> CreateTable:
        statement = CreateTable(name=self._expect_identifier("table name"))
        self._expect_punct("(")
        while True:
            if self._accept_keyword("primary"):
                self._expect_keyword("key")
                self._expect_punct("(")
                statement.primary_key.append(
                    self._expect_identifier("primary key column")
                )
                while self._accept_punct(","):
                    statement.primary_key.append(
                        self._expect_identifier("primary key column")
                    )
                self._expect_punct(")")
            elif self._accept_keyword("foreign"):
                self._expect_keyword("key")
                self._expect_punct("(")
                column = self._expect_identifier("foreign key column")
                self._expect_punct(")")
                statement.foreign_keys.append((column, *self._parse_reference()))
            else:
                statement.columns.append(self._parse_column_def())
            if self._accept_punct(","):
                continue
            self._expect_punct(")")
            break
        for column in statement.columns:
            if column.primary_key and column.name not in statement.primary_key:
                statement.primary_key.append(column.name)
            if column.references is not None:
                statement.foreign_keys.append((column.name, *column.references))
        return statement

    def _parse_reference(self) -> tuple[str, str]:
        """``REFERENCES table (column)``."""
        self._expect_keyword("references")
        ref_table = self._expect_identifier("referenced table")
        self._expect_punct("(")
        ref_column = self._expect_identifier("referenced column")
        self._expect_punct(")")
        return ref_table, ref_column

    def _parse_column_def(self) -> ColumnDef:
        name = self._expect_identifier("column name")
        type_token = self._current
        type_words = [self._expect_identifier("type name")]
        if type_words[0] == "double" and self._accept_keyword("precision"):
            type_words.append("precision")
        if self._accept_punct("("):  # a length suffix: varchar(25), numeric(10, 2)
            self._parse_nonnegative_int("type modifier")
            while self._accept_punct(","):
                self._parse_nonnegative_int("type modifier")
            self._expect_punct(")")
        try:
            sql_type = parse_type_name(" ".join(type_words))
        except ValueError as exc:
            raise SqlSyntaxError(str(exc), position=type_token.position) from None
        column = ColumnDef(name=name, sql_type=sql_type)
        while True:
            if self._accept_keyword("not"):
                self._expect_keyword("null")
                column.not_null = True
            elif self._accept_keyword("primary"):
                self._expect_keyword("key")
                column.primary_key = True
            elif self._current.matches_keyword("references"):
                column.references = self._parse_reference()
            elif self._accept_keyword("unique"):
                pass  # accepted and ignored (single-column indexes cover it)
            else:
                return column

    def _parse_create_index(self, unique: bool) -> CreateIndex:
        name = self._expect_identifier("index name")
        self._expect_keyword("on")
        table = self._expect_identifier("table name")
        self._expect_punct("(")
        column = self._expect_identifier("column name")
        self._expect_punct(")")
        return CreateIndex(name=name, table=table, column=column, unique=unique)


def _parse_statement(text: str, tokens: list[Token]) -> Statement:
    """Parse one statement: its text and its tokens, which end in EOF.  An
    INSERT parses with :func:`parse_sql`."""
    first = tokens[0]
    if first.matches_keyword("insert"):
        return parse_sql(text)
    if not first.matches_keyword("create"):
        raise UnsupportedSqlError(
            "only CREATE TABLE / CREATE INDEX / INSERT INTO are supported here",
            position=first.position,
        )
    parser = _DdlParser(tokens)
    statement = parser.parse_create()
    parser.expect_end()
    return statement


def parse_ddl(sql: str) -> Statement:
    """Parse one CREATE TABLE / CREATE INDEX / INSERT statement."""
    try:
        return _parse_statement(sql, tokenize(sql))
    except SqlError as exc:
        raise exc.attach_source(sql)


def run_script(db: Database, script: str) -> Database:
    """Run a script of CREATE TABLE, CREATE INDEX and INSERT statements.

    Every statement is parsed before any runs, so a syntax error (or a
    CREATE TABLE of a name already taken) registers nothing.  Then, in
    script order, CREATE TABLE registers an empty table with its NOT NULL
    columns, primary key and foreign keys, CREATE INDEX registers the index
    under its own name, and each INSERT runs its parsed tree through
    :meth:`Database.execute`, which does not parse it again.  Each table the
    script created is analyzed once, after the last statement.
    """
    try:
        statements = [
            (text, _parse_statement(text, tokens))
            for text, tokens in _statements(script)
        ]
    except SqlError as exc:
        raise exc.attach_source(script)
    created: list[str] = []
    for _, statement in statements:
        if isinstance(statement, CreateTable):
            if statement.name in created or db.catalog.has_table(statement.name):
                raise SqlSyntaxError(f"table {statement.name!r} already exists")
            created.append(statement.name)
    for text, statement in statements:
        if isinstance(statement, CreateTable):
            _create_table(db, statement)
        elif isinstance(statement, CreateIndex):
            db.catalog.add_index(
                IndexMeta(
                    statement.name, statement.table, statement.column, statement.unique
                )
            )
        else:
            db.execute(text, statement=statement)
    for name in created:
        db.analyze(name)
    return db


def _create_table(db: Database, statement: CreateTable) -> None:
    """Register *statement*'s table, empty, with its constraints."""
    db.create_table(
        Table(
            statement.name,
            [Column.from_values(c.name, c.sql_type, []) for c in statement.columns],
        ),
        primary_key=statement.primary_key or None,
        column_types={
            c.name: ColumnType(c.sql_type, nullable=not c.not_null)
            for c in statement.columns
        },
    )
    for column, ref_table, ref_column in statement.foreign_keys:
        db.add_foreign_key(statement.name, column, ref_table, ref_column)
