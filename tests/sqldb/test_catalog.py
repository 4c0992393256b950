"""Catalog registration, constraints, and metadata."""

import pytest

from repro.sqldb import CatalogError, Database, SqlType, Table
from repro.sqldb import catalog as catalog_module
from repro.sqldb.catalog import Catalog, ForeignKey, IndexMeta


def users_table():
    return Table.from_dict(
        "users",
        {"id": [1, 2, 3], "name": ["a", "b", "c"]},
        {"id": SqlType.INTEGER, "name": SqlType.TEXT},
    )


def orders_table():
    return Table.from_dict(
        "orders",
        {"oid": [1, 2], "uid": [1, 2]},
        {"oid": SqlType.INTEGER, "uid": SqlType.INTEGER},
    )


class TestRegistration:
    def test_register_and_lookup(self):
        catalog = Catalog()
        catalog.register_table(users_table(), primary_key=["id"])
        meta = catalog.table("users")
        assert meta.row_count == 3
        assert meta.column_names == ["id", "name"]
        assert meta.primary_key == ["id"]

    def test_duplicate_table_rejected(self):
        catalog = Catalog()
        catalog.register_table(users_table())
        with pytest.raises(CatalogError, match="already exists"):
            catalog.register_table(users_table())

    def test_unknown_table(self):
        with pytest.raises(CatalogError, match="does not exist"):
            Catalog().table("ghosts")

    def test_stats_analyzed_on_registration(self):
        catalog = Catalog()
        catalog.register_table(users_table())
        stats = catalog.column_stats("users", "id")
        assert stats is not None
        assert stats.distinct_count == 3

    def test_analyze_can_be_skipped(self):
        catalog = Catalog()
        catalog.register_table(users_table(), analyze=False)
        assert catalog.column_stats("users", "id") is None

    def test_page_count_positive(self):
        catalog = Catalog()
        catalog.register_table(users_table())
        assert catalog.table("users").page_count >= 1


class TestConstraints:
    def make_catalog(self):
        catalog = Catalog()
        catalog.register_table(users_table(), primary_key=["id"])
        catalog.register_table(orders_table(), primary_key=["oid"])
        return catalog

    def test_pk_creates_unique_index(self):
        catalog = self.make_catalog()
        index = catalog.index_on("users", "id")
        assert index is not None and index.unique

    def test_fk_validates_both_ends(self):
        catalog = self.make_catalog()
        with pytest.raises(CatalogError):
            catalog.add_foreign_key(ForeignKey("orders", "nope", "users", "id"))
        with pytest.raises(CatalogError):
            catalog.add_foreign_key(ForeignKey("orders", "uid", "users", "nope"))

    def test_fk_creates_index(self):
        catalog = self.make_catalog()
        catalog.add_foreign_key(ForeignKey("orders", "uid", "users", "id"))
        assert catalog.index_on("orders", "uid") is not None
        assert catalog.foreign_keys_of("orders") == [
            ForeignKey("orders", "uid", "users", "id")
        ]

    def test_duplicate_index_name_rejected(self):
        catalog = self.make_catalog()
        catalog.add_index(IndexMeta("i1", "users", "name"))
        with pytest.raises(CatalogError, match="already exists"):
            catalog.add_index(IndexMeta("i1", "users", "name"))

    def test_fk_string_rendering(self):
        fk = ForeignKey("orders", "uid", "users", "id")
        assert str(fk) == "orders.uid -> users.id"


class TestDatabaseFacade:
    def test_add_index_helper(self):
        db = Database()
        db.create_table(users_table())
        db.add_index("users", "name")
        assert db.catalog.index_on("users", "name") is not None

    def test_add_foreign_key_helper(self):
        db = Database()
        db.create_table(users_table(), primary_key=["id"])
        db.create_table(orders_table(), primary_key=["oid"])
        db.add_foreign_key("orders", "uid", "users", "id")
        assert len(db.catalog.foreign_keys) == 1


class TestTextDomain:
    """``Catalog.text_domain`` is built once per column per statistics
    epoch, and always equals a fresh sort of the live column."""

    @pytest.fixture()
    def builds(self, monkeypatch):
        counts: dict[str, int] = {}
        build = catalog_module._text_domain_of

        def counting(column):
            counts[column.name] = counts.get(column.name, 0) + 1
            return build(column)

        monkeypatch.setattr(catalog_module, "_text_domain_of", counting)
        return counts

    @staticmethod
    def make_db() -> Database:
        db = Database()
        db.create_table(
            Table.from_dict(
                "people",
                {
                    "id": [1, 2, 3, 4, 5],
                    "name": ["carol", "alice", None, "bob", "alice"],
                    "city": ["x", "y", "x", None, "z"],
                },
                {"id": SqlType.INTEGER, "name": SqlType.TEXT, "city": SqlType.TEXT},
            ),
            primary_key=["id"],
        )
        return db

    @staticmethod
    def fresh(db: Database, column: str) -> tuple[str, ...]:
        values = db.catalog.data("people").column(column).non_null_values()
        return tuple(sorted({str(v) for v in values}))

    def read_twice(self, db, builds, column="name") -> tuple[str, ...]:
        """Two reads: equal to a fresh sort, and built at most once."""
        before = builds.get(column, 0)
        first = db.catalog.text_domain("people", column)
        second = db.catalog.text_domain("people", column)
        assert second is first
        assert first == self.fresh(db, column)
        assert builds.get(column, 0) - before <= 1
        return first

    def test_sorted_distinct_non_null_values(self, builds):
        db = self.make_db()
        assert db.catalog.text_domain("people", "name") == ("alice", "bob", "carol")
        assert db.catalog.text_domain("people", "city") == ("x", "y", "z")
        assert db.catalog.text_domain("people", "name") == ("alice", "bob", "carol")
        assert builds == {"name": 1, "city": 1}

    def test_unknown_column_rejected(self):
        with pytest.raises(CatalogError):
            self.make_db().catalog.text_domain("people", "nope")

    @pytest.mark.parametrize(
        "statement",
        [
            "INSERT INTO people (id, name, city) VALUES (6, 'dave', 'w')",
            "UPDATE people SET name = 'erin' WHERE people.id = 1",
            "DELETE FROM people WHERE people.name = 'bob'",
        ],
        ids=["insert", "update", "delete"],
    )
    def test_follows_dml(self, builds, statement):
        db = self.make_db()
        before = self.read_twice(db, builds)
        db.execute(statement)
        after = self.read_twice(db, builds)
        assert after != before
        assert builds["name"] == 2  # once per epoch

    def test_follows_reanalyze_after_in_place_edit(self, builds):
        db = self.make_db()
        before = self.read_twice(db, builds)
        db.catalog.data("people").column("name").data[0] = "zed"
        # Until the edit is published, the epoch's domain stands.
        assert db.catalog.text_domain("people", "name") is before
        db.analyze("people")
        assert "zed" in self.read_twice(db, builds)
        assert builds["name"] == 2

    def test_follows_register_table(self, builds):
        db = self.make_db()
        before = self.read_twice(db, builds)
        db.create_table(orders_table())
        assert self.read_twice(db, builds) == before
        assert builds["name"] == 2
