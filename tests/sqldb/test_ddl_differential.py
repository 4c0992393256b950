"""The script loader against the one it replaced.

``run_script`` once had its own statement splitter, INSERT parser and value
coercion; it now splits at the engine lexer's ``;`` tokens and runs every
INSERT through ``Database.execute``.  The former loader is kept below
verbatim as the reference.  On every script it accepts -- the test module's
``SCRIPT``, the custom-schema example's script and a few hundred seeded
random scripts -- both loaders must build the same storage (per-column type,
dtype, values and null mask), the same ``TableMeta`` (statistics included),
foreign keys and indexes; only a CREATE INDEX's name differs, because the
reference derived ``{table}_{column}_idx`` instead of keeping it.  On
scripts in the reference's five bug classes the loader now does what the
engine does.
"""

from __future__ import annotations

import importlib.util
import pathlib
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.sqldb import (
    BindError,
    ConstraintError,
    Database,
    SqlSyntaxError,
    UnsupportedSqlError,
    ddl,
)
from repro.sqldb.lexer import Token, TokenType, tokenize
from repro.sqldb.storage import Table
from repro.sqldb.types import ColumnType, SqlType, date_to_days, parse_type_name

from .test_ddl import SCRIPT

RANDOM_SCRIPTS = 240
INJECTED_SCRIPTS = 40


# -- the reference: the former loader, verbatim --------------------------------


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
class Insert:
    """A parsed INSERT INTO ... VALUES statement."""

    table: str
    columns: list[str] | None
    rows: list[list[object]] = field(default_factory=list)


@dataclass
class CreateIndex:
    """A parsed CREATE [UNIQUE] INDEX statement."""

    table: str
    column: str
    unique: bool = False


Statement = CreateTable | Insert | CreateIndex


def split_statements(script: str) -> list[str]:
    """Split a SQL script on top-level semicolons (strings respected)."""
    statements: list[str] = []
    depth = 0
    current: list[str] = []
    in_string = False
    i = 0
    while i < len(script):
        ch = script[i]
        if in_string:
            current.append(ch)
            if ch == "'":
                if i + 1 < len(script) and script[i + 1] == "'":
                    current.append("'")
                    i += 1
                else:
                    in_string = False
        elif ch == "'":
            in_string = True
            current.append(ch)
        elif ch == "(":
            depth += 1
            current.append(ch)
        elif ch == ")":
            depth -= 1
            current.append(ch)
        elif ch == ";" and depth == 0:
            text = "".join(current).strip()
            if text:
                statements.append(text)
            current = []
        else:
            current.append(ch)
        i += 1
    tail = "".join(current).strip()
    if tail:
        statements.append(tail)
    return statements


class _DdlParser:
    """A small recursive-descent parser over the shared lexer's tokens."""

    def __init__(self, sql: str):
        self._tokens = tokenize(sql)
        self._pos = 0

    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._current
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _accept_word(self, *words: str) -> bool:
        token = self._current
        if (
            token.type in (TokenType.KEYWORD, TokenType.IDENTIFIER)
            and token.value in words
        ):
            self._advance()
            return True
        return False

    def _expect_word(self, word: str) -> None:
        if not self._accept_word(word):
            self._error(f'expected "{word.upper()}"')

    def _expect_identifier(self, what: str) -> str:
        token = self._current
        if token.type not in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            self._error(f"expected {what}")
        self._advance()
        return token.value

    def _accept_punct(self, value: str) -> bool:
        token = self._current
        if token.type is TokenType.PUNCTUATION and token.value == value:
            self._advance()
            return True
        return False

    def _expect_punct(self, value: str) -> None:
        if not self._accept_punct(value):
            self._error(f'expected "{value}"')

    def _error(self, message: str) -> None:
        token = self._current
        near = token.value or "end of input"
        raise SqlSyntaxError(
            f'{message}, at or near "{near}"', position=token.position
        )

    # -- statements --------------------------------------------------------------

    def parse(self) -> Statement:
        if self._accept_word("create"):
            unique = self._accept_word("unique")
            if self._accept_word("index"):
                return self._parse_create_index(unique)
            if unique:
                self._error("expected INDEX after UNIQUE")
            self._expect_word("table")
            return self._parse_create_table()
        if self._accept_word("insert"):
            self._expect_word("into")
            return self._parse_insert()
        raise UnsupportedSqlError(
            "only CREATE TABLE / CREATE INDEX / INSERT INTO are supported here"
        )

    def _parse_create_table(self) -> CreateTable:
        statement = CreateTable(name=self._expect_identifier("table name"))
        self._expect_punct("(")
        while True:
            if self._accept_word("primary"):
                self._expect_word("key")
                self._expect_punct("(")
                statement.primary_key.append(
                    self._expect_identifier("primary key column")
                )
                while self._accept_punct(","):
                    statement.primary_key.append(
                        self._expect_identifier("primary key column")
                    )
                self._expect_punct(")")
            elif self._accept_word("foreign"):
                self._expect_word("key")
                self._expect_punct("(")
                column = self._expect_identifier("foreign key column")
                self._expect_punct(")")
                self._expect_word("references")
                ref_table = self._expect_identifier("referenced table")
                self._expect_punct("(")
                ref_column = self._expect_identifier("referenced column")
                self._expect_punct(")")
                statement.foreign_keys.append((column, ref_table, ref_column))
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
                statement.foreign_keys.append(
                    (column.name, column.references[0], column.references[1])
                )
        return statement

    def _parse_column_def(self) -> ColumnDef:
        name = self._expect_identifier("column name")
        type_words = [self._expect_identifier("type name")]
        # Multi-word types: "double precision"; skip length suffix "(25)".
        if type_words[0] == "double" and self._accept_word("precision"):
            type_words.append("precision")
        if self._accept_punct("("):
            while not self._accept_punct(")"):
                self._advance()
        try:
            sql_type = parse_type_name(" ".join(type_words))
        except ValueError as exc:
            raise SqlSyntaxError(str(exc)) from None
        column = ColumnDef(name=name, sql_type=sql_type)
        while True:
            if self._accept_word("not"):
                self._expect_word("null")
                column.not_null = True
            elif self._accept_word("primary"):
                self._expect_word("key")
                column.primary_key = True
            elif self._accept_word("references"):
                ref_table = self._expect_identifier("referenced table")
                self._expect_punct("(")
                ref_column = self._expect_identifier("referenced column")
                self._expect_punct(")")
                column.references = (ref_table, ref_column)
            elif self._accept_word("unique"):
                pass  # accepted and ignored (single-column indexes cover it)
            else:
                return column

    def _parse_insert(self) -> Insert:
        table = self._expect_identifier("table name")
        columns: list[str] | None = None
        if self._accept_punct("("):
            columns = [self._expect_identifier("column name")]
            while self._accept_punct(","):
                columns.append(self._expect_identifier("column name"))
            self._expect_punct(")")
        self._expect_word("values")
        insert = Insert(table=table, columns=columns)
        while True:
            self._expect_punct("(")
            row: list[object] = [self._parse_literal()]
            while self._accept_punct(","):
                row.append(self._parse_literal())
            self._expect_punct(")")
            insert.rows.append(row)
            if not self._accept_punct(","):
                break
        return insert

    def _parse_literal(self):
        token = self._current
        if token.type is TokenType.NUMBER:
            self._advance()
            return float(token.value) if "." in token.value else int(token.value)
        if token.type is TokenType.STRING:
            self._advance()
            return token.value
        if token.matches_keyword("null"):
            self._advance()
            return None
        if token.matches_keyword("true"):
            self._advance()
            return True
        if token.matches_keyword("false"):
            self._advance()
            return False
        if token.type is TokenType.OPERATOR and token.value == "-":
            self._advance()
            value = self._parse_literal()
            if not isinstance(value, (int, float)):
                self._error("expected a number after '-'")
            return -value
        self._error("expected a literal value")

    def _parse_create_index(self, unique: bool) -> CreateIndex:
        self._expect_identifier("index name")  # name accepted, derived anyway
        self._expect_word("on")
        table = self._expect_identifier("table name")
        self._expect_punct("(")
        column = self._expect_identifier("column name")
        self._expect_punct(")")
        return CreateIndex(table=table, column=column, unique=unique)


def parse_ddl(sql: str) -> Statement:
    """Parse one CREATE TABLE / CREATE INDEX / INSERT statement."""
    parser = _DdlParser(sql.strip().rstrip(";"))
    statement = parser.parse()
    return statement


def run_script(db: Database, script: str) -> Database:
    """Execute a DDL/DML script against *db* and analyze the new tables.

    Rows from all INSERTs into a table are buffered and the table is
    registered once, with statistics, after the whole script is processed.
    """
    pending: dict[str, CreateTable] = {}
    rows: dict[str, list[list[object]]] = {}
    indexes: list[CreateIndex] = []
    for text in split_statements(script):
        statement = parse_ddl(text)
        if isinstance(statement, CreateTable):
            if statement.name in pending or db.catalog.has_table(statement.name):
                raise SqlSyntaxError(f"table {statement.name!r} already exists")
            pending[statement.name] = statement
            rows[statement.name] = []
        elif isinstance(statement, Insert):
            if statement.table not in pending:
                raise SqlSyntaxError(
                    f"INSERT into unknown table {statement.table!r} "
                    "(CREATE TABLE must appear in the same script)"
                )
            definition = pending[statement.table]
            for row in statement.rows:
                rows[statement.table].append(
                    _reorder(row, statement.columns, definition)
                )
        else:
            indexes.append(statement)
    for name, definition in pending.items():
        _materialize(db, definition, rows[name])
    for index in indexes:
        db.add_index(index.table, index.column, unique=index.unique)
    return db


def _reorder(
    row: list[object], columns: list[str] | None, definition: CreateTable
) -> list[object]:
    names = [c.name for c in definition.columns]
    if columns is None:
        if len(row) != len(names):
            raise SqlSyntaxError(
                f"INSERT into {definition.name!r}: expected {len(names)} "
                f"values, got {len(row)}"
            )
        return list(row)
    if len(row) != len(columns):
        raise SqlSyntaxError(
            f"INSERT into {definition.name!r}: {len(columns)} columns "
            f"but {len(row)} values"
        )
    by_name = dict(zip(columns, row))
    unknown = set(columns) - set(names)
    if unknown:
        raise SqlSyntaxError(
            f"INSERT into {definition.name!r}: unknown columns {sorted(unknown)}"
        )
    return [by_name.get(name) for name in names]


def _coerce(value, sql_type: SqlType):
    if value is None:
        return None
    if sql_type is SqlType.DATE and isinstance(value, str):
        return date_to_days(value)
    if sql_type in (SqlType.INTEGER, SqlType.BIGINT) and isinstance(value, float):
        return int(value)
    if sql_type is SqlType.DOUBLE and isinstance(value, int):
        return float(value)
    return value


def _materialize(db: Database, definition: CreateTable, rows: list[list[object]]):
    for column in definition.columns:
        if column.not_null:
            index = [c.name for c in definition.columns].index(column.name)
            for row in rows:
                if row[index] is None:
                    raise SqlSyntaxError(
                        f"NULL in NOT NULL column {definition.name}.{column.name}"
                    )
    data = {
        column.name: [
            _coerce(row[i], column.sql_type) for row in rows
        ]
        for i, column in enumerate(definition.columns)
    }
    types = {c.name: c.sql_type for c in definition.columns}
    # Record nullability in the catalog so the DML engine can enforce NOT
    # NULL at runtime (the load-time check above only covers script rows).
    column_types = {
        c.name: ColumnType(c.sql_type, nullable=not c.not_null)
        for c in definition.columns
    }
    db.create_table(
        Table.from_dict(definition.name, data, types),
        primary_key=definition.primary_key or None,
        column_types=column_types,
    )
    for column, ref_table, ref_column in definition.foreign_keys:
        db.add_foreign_key(definition.name, column, ref_table, ref_column)


# -- comparing what two loaders built -------------------------------------------


def stats_state(stats):
    if stats is None:
        return None
    histogram = None if stats.histogram is None else stats.histogram.bounds.tolist()
    return (
        stats.null_fraction,
        stats.distinct_count,
        stats.min_value,
        stats.max_value,
        list(stats.mcv_values),
        list(stats.mcv_fractions),
        histogram,
        stats.row_count,
    )


def database_state(db: Database, index_names: dict[str, str] | None = None):
    """Everything a load registers, as plain comparable values.

    *index_names* renames indexes (a CREATE INDEX name to the name the
    reference derived for it).
    """
    index_names = index_names or {}
    catalog = db.catalog
    tables = {}
    for name in catalog.table_names:
        meta = catalog.table(name)
        tables[name] = {
            "meta": (
                meta.name,
                meta.primary_key,
                meta.row_count,
                meta.row_width,
                [(c.name, c.column_type, stats_state(c.stats)) for c in meta.columns],
            ),
            "storage": [
                (
                    c.name,
                    c.sql_type,
                    c.data.dtype,
                    c.data.tolist(),
                    None if c.null_mask is None else c.null_mask.tolist(),
                )
                for c in catalog.data(name).columns
            ],
            "indexes": [
                (index_names.get(i.name, i.name), i.table, i.column, i.unique)
                for i in catalog.indexes_of(name)
            ],
        }
    return tables, catalog.foreign_keys


def assert_same_load(script: str, index_names: dict[str, str] | None = None):
    expected = run_script(Database("reference"), script)
    actual = ddl.run_script(Database("engine"), script)
    assert database_state(actual, index_names) == database_state(expected)
    return actual


# -- seeded random scripts ------------------------------------------------------------

TYPE_NAMES = {
    SqlType.INTEGER: ["integer", "int", "INT4", "Integer"],
    SqlType.BIGINT: ["bigint", "int8"],
    SqlType.DOUBLE: [
        "double precision", "float", "real", "numeric(10, 2)", "decimal", "float8",
    ],
    SqlType.TEXT: ["text", "varchar(25)", "char(4)", "string"],
    SqlType.DATE: ["date"],
    SqlType.BOOLEAN: ["boolean", "bool"],
}
TEXT_PIECES = [
    "a", "Bo", "x y", "it''s", "semi;colon", "(paren", "dash--dash", "/*", "", "Zz9",
]


def keyword(rng, word: str) -> str:
    return word.upper() if rng.random() < 0.5 else word.lower()


def literal(rng, sql_type: SqlType, nullable: bool) -> str:
    """One VALUES entry the reference and the engine both accept."""
    if nullable and rng.random() < 0.15:
        return keyword(rng, "null")
    if sql_type in (SqlType.INTEGER, SqlType.BIGINT):
        if rng.random() < 0.2:  # a float truncates into an integer
            return f"{rng.uniform(-1000, 1000):.2f}"
        bound = 10**6 if sql_type is SqlType.INTEGER else 10**12
        return str(int(rng.integers(-bound, bound)))
    if sql_type is SqlType.DOUBLE:
        if rng.random() < 0.3:  # an integer widens into a double
            return str(int(rng.integers(-5000, 5000)))
        return f"{rng.normal(0.0, 100.0):.4f}"
    if sql_type is SqlType.TEXT:
        pieces = rng.choice(TEXT_PIECES, size=int(rng.integers(1, 4)))
        return "'" + "".join(pieces) + "'"
    if sql_type is SqlType.DATE:
        year, month, day = rng.integers([1990, 1, 1], [2030, 13, 29])
        return f"'{year}-{month:02d}-{day:02d}'"
    return keyword(rng, "true" if rng.random() < 0.5 else "false")


class ScriptTable:
    """One random table: its columns and constraints, written out as a
    CREATE TABLE and as INSERTs of fresh rows."""

    def __init__(self, rng, index: int, earlier: list["ScriptTable"]):
        self.name = f"t{index}"
        self.columns: list[tuple[str, SqlType, bool]] = []  # (name, type, not null)
        self.primary_key: list[str] = []
        self.references: dict[str, tuple[str, str]] = {}
        self.next_key = int(rng.integers(-50, 50))
        for position in range(int(rng.integers(1, 6))):
            sql_type = SqlType(rng.choice([t.value for t in TYPE_NAMES]))
            self.columns.append((f"c{position}", sql_type, bool(rng.random() < 0.25)))
        if rng.random() < 0.6:
            self.columns.insert(0, ("id", SqlType.INTEGER, False))
            self.primary_key = ["id"]
            if rng.random() < 0.2:
                self.columns.insert(1, ("part", SqlType.BIGINT, False))
                self.primary_key.append("part")
        parents = [t for t in earlier if len(t.primary_key) == 1]
        if parents and rng.random() < 0.6:
            parent = parents[int(rng.integers(len(parents)))]
            self.columns.append(("ref", SqlType.INTEGER, False))
            self.references["ref"] = (parent.name, parent.primary_key[0])

    def create(self, rng) -> str:
        parts = []
        inline_key = len(self.primary_key) == 1 and rng.random() < 0.5
        foreign_keys = []
        for name, sql_type, not_null in self.columns:
            words = [name, rng.choice(TYPE_NAMES[sql_type])]
            if not_null:
                words.append(f"{keyword(rng, 'not')} {keyword(rng, 'null')}")
            if inline_key and name in self.primary_key:
                words.append(keyword(rng, "primary key"))
            if name in self.references:
                table, column = self.references[name]
                clause = f"{keyword(rng, 'references')} {table}({column})"
                if rng.random() < 0.5:
                    words.append(clause)
                else:
                    key = keyword(rng, "foreign key")
                    foreign_keys.append(f"{key} ({name}) {clause}")
            if rng.random() < 0.1:
                words.append(keyword(rng, "unique"))
            parts.append(" ".join(words))
        if self.primary_key and not inline_key:
            key = keyword(rng, "primary key")
            parts.append(f"{key} ({', '.join(self.primary_key)})")
        parts.extend(foreign_keys)
        separator = ",\n    " if rng.random() < 0.5 else ", "
        return f"{keyword(rng, 'create table')} {self.name} ({separator.join(parts)})"

    def insert(self, rng) -> str:
        columns = list(self.columns)
        listed = rng.random() < 0.5
        if listed:  # any order; a nullable column may be left out
            order = rng.permutation(len(columns))
            kept = [
                i for i in order[1:]
                if columns[i][2]  # NOT NULL
                or columns[i][0] in self.primary_key
                or rng.random() < 0.8
            ]
            columns = [columns[i] for i in [order[0], *kept]]
        rows = []
        for _ in range(int(rng.integers(1, 6)) if rng.random() < 0.7 else 1):
            values = []
            for name, sql_type, not_null in columns:
                if name == "id":
                    values.append(str(self.next_key))
                    self.next_key += int(rng.integers(1, 4))
                else:
                    nullable = not not_null and name not in self.primary_key
                    values.append(literal(rng, sql_type, nullable))
            rows.append("(" + ", ".join(values) + ")")
        target = self.name
        if listed:
            target += " (" + ", ".join(name for name, _, _ in columns) + ")"
        return (
            f"{keyword(rng, 'insert into')} {target} {keyword(rng, 'values')} "
            + ",\n  ".join(rows)
        )

    def index_candidates(self) -> list[str]:
        return [name for name, _, _ in self.columns if name not in self.references]


def random_script(seed: int) -> tuple[str, dict[str, str]]:
    """A random script and the reference's name for each CREATE INDEX."""
    rng = np.random.default_rng(seed)
    tables: list[ScriptTable] = []
    slotted: list[tuple[float, str | ScriptTable]] = []  # (place, statement)
    index_names: dict[str, str] = {}
    count = int(rng.integers(1, 4))
    for position in range(count):
        table = ScriptTable(rng, position, tables)
        tables.append(table)
        slotted.append((position, table.create(rng)))
        for _ in range(int(rng.integers(1, 5)) if rng.random() < 0.9 else 0):
            slotted.append((position + 0.5 + rng.random() * (count - position), table))
        candidates = table.index_candidates()
        for column in rng.permutation(candidates)[: int(rng.integers(0, 3))]:
            name = f"ix_{table.name}_{column}"
            index_names[name] = f"{table.name}_{column}_idx"
            unique = table.primary_key == [column] and rng.random() < 0.5
            slotted.append((
                position + 0.5 + rng.random() * (count - position),
                f"{keyword(rng, 'create unique index' if unique else 'create index')} "
                f"{name} {keyword(rng, 'on')} {table.name} ({column})",
            ))
    slotted.sort(key=lambda entry: entry[0])
    lines = []
    for _, statement in slotted:
        if isinstance(statement, ScriptTable):
            statement = statement.insert(rng)
        if rng.random() < 0.2:
            lines.append("-- a note\n" if rng.random() < 0.5 else "/* a note */ ")
        lines.append(statement + (";\n" if rng.random() < 0.8 else " ;\n\n"))
    script = "".join(lines)
    if rng.random() < 0.3:
        script = script.rstrip().rstrip(";")
    return script, index_names


def load_example_script() -> str:
    examples = pathlib.Path(__file__).parents[2] / "examples"
    path = examples / "custom_schema_and_metric.py"
    spec = importlib.util.spec_from_file_location("custom_schema_example", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_script()


# -- the tests -----------------------------------------------------------------------


class TestSameLoad:
    def test_module_script(self):
        db = assert_same_load(SCRIPT, {"users_age_idx": "users_age_idx"})
        assert db.catalog.table("orders").row_count == 3

    def test_example_script(self):
        db = assert_same_load(load_example_script())
        assert db.catalog.table("readings").row_count == 2000

    @pytest.mark.parametrize("seed", range(RANDOM_SCRIPTS))
    def test_random_script(self, seed):
        script, index_names = random_script(seed)
        assert_same_load(script, index_names)

    def test_random_scripts_cover_the_value_kinds(self):
        scripts = "\n".join(random_script(seed)[0] for seed in range(RANDOM_SCRIPTS))
        for needle in (
            "NULL", "null", "-", ".", "''", "REFERENCES", "FOREIGN KEY",
            "PRIMARY KEY (id, part)", "INSERT INTO t0 (", "),\n  (",
            "bool", "date", "double precision", "bigint", "varchar(25)",
            "CREATE UNIQUE INDEX", "-- a note",
        ):
            assert needle.lower() in scripts.lower(), needle

    def test_syntax_error_in_the_last_statement_registers_nothing(self):
        script = random_script(3)[0].rstrip().rstrip(";")
        script += ";\nCREATE TABLE broken (a blob);"
        for load in (run_script, ddl.run_script):
            db = Database()
            with pytest.raises(SqlSyntaxError):
                load(db, script)
            assert db.catalog.table_names == []


class TestBugClasses:
    """The reference's five bug classes, planted in random scripts it
    accepts: the loader now does what the engine does."""

    @pytest.mark.parametrize("seed", range(INJECTED_SCRIPTS))
    def test_planted_in_a_random_script(self, seed):
        script, index_names = random_script(10_000 + seed)
        statements = script.rstrip().rstrip(";") + ";\n"
        expected = database_state(run_script(Database(), script))
        # A comment with an apostrophe before the first statement, and one
        # at the end: the same load.
        commented = "-- it's here\n" + statements + "/* the end */\n"
        actual = ddl.run_script(Database(), commented)
        assert database_state(actual, index_names) == expected
        # Trailing input after the last statement: a syntax error, and
        # nothing registered.
        db = Database()
        with pytest.raises(SqlSyntaxError, match="unexpected trailing input"):
            ddl.run_script(db, statements.rstrip().rstrip(";") + " trailing words")
        assert db.catalog.table_names == []
        # A text value for an integer column, and a duplicate key.
        create = "CREATE TABLE planted (k integer PRIMARY KEY, n integer); "
        for insert, error in (
            ("INSERT INTO planted VALUES (1, 'x');", BindError),
            ("INSERT INTO planted VALUES (1, 1), (1, 2);", ConstraintError),
        ):
            with pytest.raises(error):
                ddl.run_script(Database(), statements + create + insert)
