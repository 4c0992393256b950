"""System catalog: table schemas, constraints, indexes, and statistics.

The catalog is the metadata layer SQLBarber's schema-summary step reads
(Section 4, Step 1 of the paper): table names and row counts, column names,
types and distinct counts, primary/foreign keys, and index metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TypeVar

from .errors import CatalogError
from .stats import ColumnStats, analyze_column
from .storage import Column, Table
from .types import ColumnType, SqlType

PAGE_SIZE_BYTES = 8192

T = TypeVar("T")


class PhysicalIndex:
    """An equality-lookup structure over one column: value -> row positions.

    The executor's DML operators keep these consistent with the table data
    (see :meth:`Catalog.note_mutation`): INSERT appends positions
    incrementally, UPDATE drops only the indexes of assigned columns, and
    DELETE — which renumbers rows — drops every index of the table for a
    lazy rebuild on the next lookup.  Values are stored in their *storage*
    representation (e.g. DATE as int days since the epoch), matching what a
    scan of the column would compare against.
    """

    def __init__(self, column: Column):
        self.entries: dict[object, list[int]] = {}
        self.null_positions: list[int] = []
        self.append_rows(column, 0)

    def append_rows(self, column: Column, start: int) -> None:
        """Index rows ``start..len(column)-1`` (incremental INSERT path)."""
        data = column.data
        null_mask = column.null_mask
        for position in range(start, len(data)):
            if null_mask is not None and null_mask[position]:
                self.null_positions.append(position)
                continue
            value = data[position]
            key = value.item() if hasattr(value, "item") else value
            self.entries.setdefault(key, []).append(position)

    def lookup(self, value: object) -> list[int]:
        """Row positions holding *value* (ascending); NULL finds nothing."""
        if value is None:
            return []
        if hasattr(value, "item"):
            value = value.item()
        return list(self.entries.get(value, []))


def _text_domain_of(column: Column) -> tuple[str, ...]:
    """The sorted distinct ``str()`` of *column*'s non-NULL values."""
    return tuple(sorted({str(v) for v in column.non_null_values()}))


@dataclass(frozen=True)
class ForeignKey:
    """A single-column foreign-key constraint."""

    table: str
    column: str
    ref_table: str
    ref_column: str

    def __str__(self) -> str:
        return (
            f"{self.table}.{self.column} -> {self.ref_table}.{self.ref_column}"
        )


@dataclass(frozen=True)
class IndexMeta:
    """Metadata for a (single-column) index."""

    name: str
    table: str
    column: str
    unique: bool = False


@dataclass
class ColumnMeta:
    """Schema + statistics for one column."""

    name: str
    column_type: ColumnType
    stats: ColumnStats | None = None

    @property
    def sql_type(self) -> SqlType:
        return self.column_type.sql_type

    @property
    def distinct_count(self) -> float:
        return self.stats.distinct_count if self.stats else 0.0


@dataclass
class TableMeta:
    """Schema + statistics for one table."""

    name: str
    columns: list[ColumnMeta]
    primary_key: list[str] = field(default_factory=list)
    row_count: int = 0
    row_width: int = 0

    def __post_init__(self) -> None:
        self._by_name = {c.name: c for c in self.columns}
        if len(self._by_name) != len(self.columns):
            raise CatalogError(f"duplicate column in table {self.name}")
        if not self.row_width:
            self.row_width = sum(c.sql_type.byte_width for c in self.columns) + 24

    def column(self, name: str) -> ColumnMeta:
        try:
            return self._by_name[name]
        except KeyError:
            raise CatalogError(f"no column {name!r} in {self.name!r}") from None

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    @property
    def page_count(self) -> int:
        """Heap pages, as the cost model sees them."""
        if self.row_count == 0:
            return 1
        rows_per_page = max(PAGE_SIZE_BYTES // max(self.row_width, 1), 1)
        return max(-(-self.row_count // rows_per_page), 1)


class Catalog:
    """Registry of tables, foreign keys, and indexes for one database.

    Every mutation that can change plans or estimates — registering a table,
    adding an index or foreign key, re-analyzing statistics — bumps the
    :attr:`statistics_epoch`.  Plan and EXPLAIN caches key their entries to
    the epoch and drop everything when it moves, so a DDL or data load can
    never serve stale costs.
    """

    def __init__(self) -> None:
        self._tables: dict[str, TableMeta] = {}
        self._data: dict[str, Table] = {}
        self._foreign_keys: list[ForeignKey] = []
        self._indexes: dict[str, list[IndexMeta]] = {}
        self._statistics_epoch = 0
        # Per-table DML mutation counters (the cheap invalidation signal)
        # and the lazily-built physical index structures they govern.
        self._mutation_counts: dict[str, int] = {}
        self._physical_indexes: dict[tuple[str, str], PhysicalIndex] = {}
        # Values derived from the catalog (see epoch_memo), with the
        # statistics epoch they were built in: (epoch, {key: value}).
        self._epoch_memo: tuple[int, dict] = (0, {})

    @property
    def statistics_epoch(self) -> int:
        """Monotonic counter of schema/statistics changes."""
        return self._statistics_epoch

    def bump_statistics_epoch(self) -> None:
        """Invalidate every epoch-keyed cache derived from this catalog."""
        self._statistics_epoch += 1

    # -- registration --------------------------------------------------------

    def register_table(
        self,
        data: Table,
        column_types: dict[str, ColumnType] | None = None,
        primary_key: list[str] | None = None,
        analyze: bool = True,
    ) -> TableMeta:
        """Add *data* to the catalog and (by default) analyze its columns."""
        if data.name in self._tables:
            raise CatalogError(f"table {data.name!r} already exists")
        columns = []
        for col in data.columns:
            ctype = (
                column_types[col.name]
                if column_types and col.name in column_types
                else ColumnType(col.sql_type)
            )
            stats = analyze_column(col) if analyze else None
            columns.append(ColumnMeta(col.name, ctype, stats))
        meta = TableMeta(
            name=data.name,
            columns=columns,
            primary_key=list(primary_key or []),
            row_count=data.row_count,
        )
        self._tables[data.name] = meta
        self._data[data.name] = data
        self._indexes.setdefault(data.name, [])
        # Primary keys implicitly carry a unique index, like real systems.
        for pk_col in meta.primary_key:
            self.add_index(
                IndexMeta(f"{data.name}_pkey_{pk_col}", data.name, pk_col, True)
            )
        self.bump_statistics_epoch()
        return meta

    def add_foreign_key(self, fk: ForeignKey) -> None:
        self.table(fk.table).column(fk.column)  # validates both ends
        self.table(fk.ref_table).column(fk.ref_column)
        self._foreign_keys.append(fk)
        # FK columns get an index by default (join-friendly, like many DDLs).
        if not self.index_on(fk.table, fk.column):
            self.add_index(
                IndexMeta(f"{fk.table}_{fk.column}_idx", fk.table, fk.column)
            )
        self.bump_statistics_epoch()

    def add_index(self, index: IndexMeta) -> None:
        self.table(index.table).column(index.column)
        existing = self._indexes.setdefault(index.table, [])
        if any(i.name == index.name for i in existing):
            raise CatalogError(f"index {index.name!r} already exists")
        existing.append(index)
        self.bump_statistics_epoch()

    def note_mutation(
        self,
        name: str,
        data: Table,
        *,
        appended: int | None = None,
        changed_columns: list[str] | None = None,
    ) -> None:
        """Publish *data* as the committed contents of *name* after DML.

        This is the single commit point of the write path: the executor
        materializes a statement's full result first and hands it over here,
        so a failure anywhere earlier (constraint violation, governor budget
        trip) leaves the old table untouched — statement-level rollback.

        Bookkeeping on commit:

        * ``row_count`` is refreshed (page counts follow), but column
          statistics are *not* recomputed — like a real system, stale stats
          persist until ``reanalyze``; what matters is that they are served
          consistently, which the epoch bump below guarantees.
        * The per-table mutation counter advances and the physical indexes
          are maintained: ``appended=k`` (INSERT) extends built indexes with
          the last *k* row positions; ``changed_columns`` (UPDATE — row
          positions stable) drops only the affected columns' indexes; plain
          calls (DELETE — rows renumbered) drop every index of the table.
        * The statistics epoch bumps, so the EXPLAIN cache and every
          ``CompiledTemplate`` re-cost instead of serving stale estimates.
        """
        meta = self.table(name)
        self._data[name] = data
        meta.row_count = data.row_count
        self._mutation_counts[name] = self._mutation_counts.get(name, 0) + 1
        if appended is not None and appended >= 0:
            start = data.row_count - appended
            for (table, column), index in self._physical_indexes.items():
                if table == name:
                    index.append_rows(data.column(column), start)
        elif changed_columns is not None:
            for column in changed_columns:
                self._physical_indexes.pop((name, column), None)
        else:
            for key in [k for k in self._physical_indexes if k[0] == name]:
                del self._physical_indexes[key]
        self.bump_statistics_epoch()

    def mutation_count(self, name: str) -> int:
        """How many committed DML statements have touched *name*."""
        self.table(name)
        return self._mutation_counts.get(name, 0)

    def index_lookup(self, table: str, column: str, value: object) -> list[int]:
        """Equality lookup through the physical index on (table, column).

        Builds the index lazily from the current data on first use; DML
        maintenance keeps it consistent afterwards (see
        :meth:`note_mutation`).  *value* must be in storage representation
        (DATE as int days).  ``None`` returns the NULL row positions.
        """
        self.table(table).column(column)
        key = (table, column)
        index = self._physical_indexes.get(key)
        if index is None:
            index = PhysicalIndex(self.data(table).column(column))
            self._physical_indexes[key] = index
        if value is None:
            return list(index.null_positions)
        return index.lookup(value)

    def epoch_memo(self, key: tuple, build: Callable[[], T]) -> T:
        """``build()``, built on first use and kept under *key* until the
        statistics epoch moves (every DDL, ``note_mutation`` and
        ``reanalyze`` moves it).

        *build* must derive its value from this catalog and *key* alone, so
        a caller that edits column arrays in place must ``reanalyze`` before
        the value follows.  Two threads may both build a missing value; they
        build equal ones.
        """
        epoch = self._statistics_epoch
        built_in, values = self._epoch_memo
        if built_in != epoch:
            values = {}
            self._epoch_memo = (epoch, values)
        value = values.get(key)
        if value is None:
            value = values[key] = build()
        return value

    def text_domain(self, table: str, column: str) -> tuple[str, ...]:
        """The sorted distinct ``str()`` of the non-NULL values of
        *table*.*column*, built once per statistics epoch (``epoch_memo``)."""
        self.table(table).column(column)
        return self.epoch_memo(
            ("text_domain", table, column),
            lambda: _text_domain_of(self.data(table).column(column)),
        )

    def reanalyze(self, name: str) -> TableMeta:
        """Recompute row count and column statistics of *name* from its data.

        The equivalent of PostgreSQL's ``ANALYZE <table>``: callers that
        mutate a registered table's column arrays in place run this to make
        the optimizer see the new value distribution.  Bumps the statistics
        epoch so cached estimates are invalidated.
        """
        meta = self.table(name)
        data = self.data(name)
        for column_meta in meta.columns:
            column_meta.stats = analyze_column(data.column(column_meta.name))
        meta.row_count = data.row_count
        self.bump_statistics_epoch()
        return meta

    # -- lookups ---------------------------------------------------------------

    def table(self, name: str) -> TableMeta:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f'relation "{name}" does not exist') from None

    def data(self, name: str) -> Table:
        self.table(name)
        return self._data[name]

    def has_table(self, name: str) -> bool:
        return name in self._tables

    @property
    def table_names(self) -> list[str]:
        return list(self._tables)

    @property
    def foreign_keys(self) -> list[ForeignKey]:
        return list(self._foreign_keys)

    def foreign_keys_of(self, table: str) -> list[ForeignKey]:
        return [fk for fk in self._foreign_keys if fk.table == table]

    def indexes_of(self, table: str) -> list[IndexMeta]:
        return list(self._indexes.get(table, []))

    def index_on(self, table: str, column: str) -> IndexMeta | None:
        for index in self._indexes.get(table, []):
            if index.column == column:
                return index
        return None

    def column_stats(self, table: str, column: str) -> ColumnStats | None:
        return self.table(table).column(column).stats
