"""DDL scripts: CREATE TABLE, INSERT INTO, CREATE INDEX."""

import pytest

from repro.sqldb import (
    BindError,
    ConstraintError,
    Database,
    SqlSyntaxError,
    SqlType,
    UnsupportedSqlError,
    run_script,
    split_statements,
)
from repro.obs import Telemetry, use_telemetry
from repro.sqldb.ddl import CreateIndex, CreateTable, parse_ddl
from repro.sqldb.parser import _parse_once

SCRIPT = """
CREATE TABLE users (
    id integer PRIMARY KEY,
    name text NOT NULL,
    age integer,
    joined date
);
CREATE TABLE orders (
    oid integer PRIMARY KEY,
    uid integer REFERENCES users(id),
    amount double precision
);
INSERT INTO users VALUES
    (1, 'ann', 34, '2020-01-05'),
    (2, 'bob', NULL, '2021-06-30'),
    (3, 'cho', 29, '2019-11-11');
INSERT INTO orders (oid, uid, amount) VALUES (10, 1, 99.5), (11, 3, 12.0);
INSERT INTO orders VALUES (12, 1, -7.25);
CREATE INDEX users_age_idx ON users (age);
"""


@pytest.fixture()
def scripted_db():
    return run_script(Database("scripted"), SCRIPT)


class TestSplitStatements:
    def test_splits_on_semicolons(self):
        assert len(split_statements(SCRIPT)) == 6

    def test_semicolon_in_string_preserved(self):
        parts = split_statements("INSERT INTO t VALUES ('a;b'); SELECT 1")
        assert len(parts) == 2
        assert "'a;b'" in parts[0]

    def test_trailing_statement_without_semicolon(self):
        assert split_statements("CREATE TABLE t (a integer)") != []


class TestParse:
    def test_create_table_shape(self):
        statement = parse_ddl(
            "CREATE TABLE t (a integer PRIMARY KEY, b text, "
            "FOREIGN KEY (b) REFERENCES s(x))"
        )
        assert isinstance(statement, CreateTable)
        assert [c.name for c in statement.columns] == ["a", "b"]
        assert statement.primary_key == ["a"]
        assert statement.foreign_keys == [("b", "s", "x")]

    def test_varchar_length_ignored(self):
        statement = parse_ddl("CREATE TABLE t (s varchar(25))")
        assert statement.columns[0].sql_type is SqlType.TEXT

    def test_insert_with_negatives_and_nulls(self):
        db = run_script(
            Database(),
            "CREATE TABLE t (a integer, b integer, c text, d boolean); "
            "INSERT INTO t VALUES (-3, NULL, 'x', TRUE)",
        )
        assert list(db.catalog.data("t").rows()) == [(-3, None, "x", True)]

    def test_create_unique_index(self):
        statement = parse_ddl("CREATE UNIQUE INDEX i ON t (a)")
        assert isinstance(statement, CreateIndex)
        assert statement.unique

    def test_unknown_statement(self):
        with pytest.raises(UnsupportedSqlError):
            parse_ddl("DROP TABLE t")

    def test_unknown_type(self):
        with pytest.raises(SqlSyntaxError):
            parse_ddl("CREATE TABLE t (a blob)")


class TestRunScript:
    def test_tables_created_with_rows(self, scripted_db):
        assert scripted_db.catalog.table("users").row_count == 3
        assert scripted_db.catalog.table("orders").row_count == 3

    def test_types_coerced(self, scripted_db):
        result = scripted_db.execute(
            "SELECT name FROM users WHERE joined < '2020-06-01'"
        )
        assert list(result.table.rows()) == [("ann",), ("cho",)]

    def test_null_inserted(self, scripted_db):
        result = scripted_db.execute("SELECT count(*) FROM users WHERE age IS NULL")
        assert list(result.table.rows()) == [(1,)]

    def test_foreign_key_registered(self, scripted_db):
        fks = scripted_db.catalog.foreign_keys_of("orders")
        assert len(fks) == 1 and fks[0].ref_table == "users"

    def test_joins_work_on_scripted_schema(self, scripted_db):
        result = scripted_db.execute(
            "SELECT u.name, sum(o.amount) FROM users u "
            "JOIN orders o ON o.uid = u.id GROUP BY u.name ORDER BY u.name"
        )
        assert list(result.table.rows()) == [
            ("ann", pytest.approx(92.25)), ("cho", pytest.approx(12.0)),
        ]

    def test_statistics_analyzed(self, scripted_db):
        stats = scripted_db.catalog.column_stats("users", "age")
        assert stats is not None and stats.null_fraction > 0

    def test_index_created(self, scripted_db):
        assert scripted_db.catalog.index_on("users", "age") is not None

    def test_not_null_enforced(self):
        with pytest.raises(ConstraintError, match="violates not-null constraint"):
            run_script(
                Database(),
                "CREATE TABLE t (a text NOT NULL); INSERT INTO t VALUES (NULL)",
            )

    def test_insert_into_unknown_table(self):
        with pytest.raises(BindError, match='relation "ghosts" does not exist'):
            run_script(Database(), "INSERT INTO ghosts VALUES (1)")

    def test_column_count_mismatch(self):
        with pytest.raises(BindError, match="1 expressions but 2 target columns"):
            run_script(
                Database(),
                "CREATE TABLE t (a integer, b integer); "
                "INSERT INTO t VALUES (1)",
            )

    def test_duplicate_table(self):
        with pytest.raises(SqlSyntaxError, match="already exists"):
            run_script(
                Database(),
                "CREATE TABLE t (a integer); CREATE TABLE t (a integer)",
            )

    def test_sqlbarber_runs_on_scripted_database(self, scripted_db):
        from repro.core import BarberConfig, SQLBarber
        from repro.workload import CostDistribution, TemplateSpec

        barber = SQLBarber(scripted_db, config=BarberConfig(seed=0))
        templates, report = barber.generate_templates(
            [TemplateSpec(spec_id="s", num_joins=1, num_predicates=1)]
        )
        assert report.alignment_accuracy > 0
        assert templates


class TestCreateIndexNames:
    def test_name_is_kept(self):
        assert parse_ddl("CREATE UNIQUE INDEX i ON t (a)").name == "i"

    def test_index_on_a_foreign_key_column(self):
        db = run_script(
            Database(),
            "CREATE TABLE u (id integer PRIMARY KEY); "
            "CREATE TABLE o (uid integer REFERENCES u(id)); "
            "CREATE INDEX o_uid ON o (uid);",
        )
        names = [index.name for index in db.catalog.indexes_of("o")]
        assert names == ["o_uid_idx", "o_uid"]

    def test_two_named_indexes_on_one_column(self):
        db = run_script(
            Database(),
            "CREATE TABLE t (a integer); "
            "CREATE INDEX t_a_one ON t (a); CREATE UNIQUE INDEX t_a_two ON t (a);",
        )
        indexes = db.catalog.indexes_of("t")
        assert [(i.name, i.column, i.unique) for i in indexes] == [
            ("t_a_one", "a", False), ("t_a_two", "a", True),
        ]


class TestScriptsRunThroughTheEngine:
    """Scripts the loader's own splitter, INSERT parser and coercion got
    wrong: each now splits, parses and loads as the engine does."""

    def test_apostrophe_in_a_line_comment(self):
        db = run_script(
            Database(),
            "CREATE TABLE t (a integer); -- don't\n"
            "INSERT INTO t VALUES (1); INSERT INTO t VALUES (2);",
        )
        assert list(db.catalog.data("t").rows()) == [(1,), (2,)]

    @pytest.mark.parametrize(
        "sql",
        [
            "CREATE TABLE t (a integer) garbage here",
            "INSERT INTO t VALUES (1) WHERE nonsense",
        ],
    )
    def test_trailing_input_rejected(self, sql):
        with pytest.raises(SqlSyntaxError, match="unexpected trailing input"):
            parse_ddl(sql)

    @pytest.mark.parametrize("tail", ["-- end", "/* done */"])
    def test_script_ending_in_a_comment(self, tail):
        db = run_script(
            Database(),
            f"CREATE TABLE t (a integer);\nINSERT INTO t VALUES (1);\n{tail}\n",
        )
        assert db.catalog.table("t").row_count == 1

    def test_text_into_an_integer_column(self):
        with pytest.raises(BindError, match='column "a" is of type integer'):
            run_script(
                Database(),
                "CREATE TABLE t (a integer); INSERT INTO t VALUES ('x')",
            )

    def test_duplicate_primary_key(self):
        with pytest.raises(ConstraintError, match=r"duplicate key .*\(1\)"):
            run_script(
                Database(),
                "CREATE TABLE t (a integer PRIMARY KEY); "
                "INSERT INTO t VALUES (1), (1)",
            )

    def test_unclosed_type_modifier(self):
        with pytest.raises(SqlSyntaxError, match='expected "\\)"'):
            parse_ddl("CREATE TABLE t (s varchar(25")

    def test_syntax_error_positioned_in_the_script(self):
        with pytest.raises(SqlSyntaxError) as caught:
            run_script(
                Database(), "CREATE TABLE t (a integer);\nCREATE TABLE u (b blob);"
            )
        assert (caught.value.line, caught.value.column) == (2, 19)

    def test_reserved_names(self):
        # DDL takes any word as a name; an INSERT quotes reserved ones, as
        # a SELECT must.
        db = run_script(
            Database(),
            'CREATE TABLE count (order integer, sum text); '
            'INSERT INTO "count" ("order", "sum") VALUES (1, \'a\');',
        )
        assert list(db.catalog.data("count").rows()) == [(1, "a")]
        with pytest.raises(SqlSyntaxError):
            run_script(
                Database(),
                "CREATE TABLE t (order integer); INSERT INTO t (order) VALUES (1)",
            )

    def test_insert_into_a_table_held_before_the_script(self, scripted_db):
        run_script(scripted_db, "INSERT INTO users VALUES (4, 'dee', 41, NULL)")
        assert scripted_db.catalog.table("users").row_count == 4

    def test_insert_select_and_expressions(self):
        db = run_script(
            Database(),
            "CREATE TABLE t (a integer, b double precision); "
            "INSERT INTO t VALUES (1 + 2, 10 / 4.0); "
            "CREATE TABLE u (a integer); INSERT INTO u SELECT a * 2 FROM t;",
        )
        assert list(db.catalog.data("t").rows()) == [(3, 2.5)]
        assert list(db.catalog.data("u").rows()) == [(6,)]

    def test_constraint_error_keeps_the_tables_created_before_it(self):
        db = Database()
        with pytest.raises(ConstraintError):
            run_script(
                db,
                "CREATE TABLE t (a integer NOT NULL); INSERT INTO t VALUES (1); "
                "INSERT INTO t VALUES (NULL); CREATE TABLE u (b integer);",
            )
        assert db.catalog.table_names == ["t"]
        assert db.catalog.table("t").row_count == 1


class TestScriptParsesEachInsertOnce:
    """``run_script`` hands each INSERT's tree from its parse pass to
    ``Database.execute``, which binds and plans it without parsing the text
    again: one parse-memo miss per INSERT, however long the script."""

    @pytest.mark.parametrize("count", [50, 200])
    def test_one_miss_per_insert(self, count):
        table = f"once_{count}"  # texts no other test parses
        script = f"CREATE TABLE {table} (a integer PRIMARY KEY, b text);\n" + "".join(
            f"INSERT INTO {table} VALUES ({i}, 'v{i}');\n" for i in range(count)
        )
        telemetry = Telemetry()
        before = _parse_once.cache_info()
        with use_telemetry(telemetry):
            db = run_script(Database(), script)
        after = _parse_once.cache_info()
        assert after.misses - before.misses == count
        assert after.hits == before.hits
        assert db.catalog.table(table).row_count == count
        assert telemetry.metrics.total("sqldb.execute.calls") == count
        assert telemetry.metrics.total("sqldb.execute.errors") == 0

    @pytest.mark.parametrize(
        "script, error, source, line_column, calls",
        [
            (
                "CREATE TABLE t (a integer); INSERT INTO t VALUES (1);\n"
                "INSERT INTO t VALUES (2); INSERT INTO t (nope) VALUES (3)",
                BindError,
                "INSERT INTO t (nope) VALUES (3)",
                (None, None),
                3,
            ),
            (
                "CREATE TABLE t (a integer); INSERT INTO t\n SELECT b FROM t",
                BindError,
                "INSERT INTO t\n SELECT b FROM t",
                (2, 9),
                1,
            ),
            (
                "CREATE TABLE t (a integer NOT NULL); INSERT INTO t VALUES (NULL)",
                ConstraintError,
                "INSERT INTO t VALUES (NULL)",
                (None, None),
                1,
            ),
        ],
    )
    def test_errors_positioned_and_counted(
        self, script, error, source, line_column, calls
    ):
        telemetry = Telemetry()
        with use_telemetry(telemetry), pytest.raises(error) as caught:
            run_script(Database(), script)
        assert caught.value.source == source
        assert (caught.value.line, caught.value.column) == line_column
        assert telemetry.metrics.total("sqldb.execute.calls") == calls
        assert telemetry.metrics.total("sqldb.execute.errors") == 1
