"""Columnar in-memory storage.

A :class:`Table` is an ordered collection of :class:`Column` objects, each a
numpy array plus an optional null mask.  All executor operators exchange
tables, so the storage layer doubles as the intermediate-result format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CatalogError
from .types import SqlType

#: Flat per-element payload estimate for object-dtype columns (a short
#: CPython str is ~49 bytes plus the array's own 8-byte pointer).
_OBJECT_PAYLOAD_BYTES = 48


@dataclass
class Column:
    """One column of data: values plus an optional validity mask.

    ``null_mask[i] is True`` means row *i* is NULL.  A ``None`` mask means the
    column contains no NULLs, which keeps the common case allocation-free.
    """

    name: str
    sql_type: SqlType
    data: np.ndarray
    null_mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.null_mask is not None and len(self.null_mask) != len(self.data):
            raise ValueError("null mask length mismatch")

    def __len__(self) -> int:
        return len(self.data)

    @property
    def has_nulls(self) -> bool:
        """Whether any row of this column is NULL."""
        return self.null_mask is not None and bool(self.null_mask.any())

    def valid_mask(self) -> np.ndarray:
        """Boolean array that is True where the value is NOT NULL."""
        if self.null_mask is None:
            return np.ones(len(self.data), dtype=bool)
        return ~self.null_mask

    def take(self, indices: np.ndarray) -> "Column":
        """Gather rows by position, preserving nulls."""
        mask = None if self.null_mask is None else self.null_mask[indices]
        return Column(self.name, self.sql_type, self.data[indices], mask)

    def filter(self, keep: np.ndarray) -> "Column":
        """Keep the rows where *keep* is True."""
        mask = None if self.null_mask is None else self.null_mask[keep]
        return Column(self.name, self.sql_type, self.data[keep], mask)

    def non_null_values(self) -> np.ndarray:
        """The values of all non-NULL rows, in row order."""
        if self.null_mask is None:
            return self.data
        return self.data[~self.null_mask]

    @property
    def estimated_bytes(self) -> int:
        """Approximate in-memory size, for governor memory accounting.

        ``nbytes`` is exact for primitive dtypes; object columns add a flat
        per-element charge for the boxed payload (strings, dates) on top of
        the pointer array, since measuring each object would cost more than
        the accounting is worth.
        """
        total = int(self.data.nbytes)
        if self.data.dtype == object:
            total += _OBJECT_PAYLOAD_BYTES * len(self.data)
        if self.null_mask is not None:
            total += int(self.null_mask.nbytes)
        return total

    def append(self, other: "Column") -> "Column":
        """This column followed by *other*'s rows (same type, new arrays)."""
        data = np.concatenate([self.data, other.data])
        if self.null_mask is None and other.null_mask is None:
            mask = None
        else:
            left = (
                self.null_mask
                if self.null_mask is not None
                else np.zeros(len(self.data), dtype=bool)
            )
            right = (
                other.null_mask
                if other.null_mask is not None
                else np.zeros(len(other.data), dtype=bool)
            )
            mask = np.concatenate([left, right])
        return Column(self.name, self.sql_type, data, mask)

    @staticmethod
    def from_values(
        name: str,
        sql_type: SqlType,
        values: Sequence,
        nulls: np.ndarray | None = None,
    ) -> "Column":
        """Build a column from a Python sequence, treating ``None`` as NULL.

        A numpy array that :func:`_casts_whole` accepts is cast in one
        call; any other goes through its ``tolist()``.  The column is the
        same either way.  *nulls*, a boolean array as long as *values*,
        marks more NULL rows, as if their values were ``None``.
        """
        dtype = sql_type.numpy_dtype
        if nulls is not None:
            nulls = np.asarray(nulls, dtype=bool)
            if len(nulls) != len(values):
                raise ValueError("null mask length mismatch")
        if isinstance(values, np.ndarray):
            if _casts_whole(values, dtype):
                data = values.astype(dtype)
                if nulls is None or not nulls.any():
                    return Column(name, sql_type, data)
                data[nulls] = None if dtype == np.dtype(object) else 0
                return Column(name, sql_type, data, nulls.copy())
            values = values.tolist()
        if nulls is not None:
            values = [None if null else v for v, null in zip(values, nulls)]
        nulls = np.array([v is None for v in values], dtype=bool)
        if dtype == np.dtype(object):
            data = np.array(list(values), dtype=object)
        else:
            fill: object = 0
            cleaned = [fill if v is None else v for v in values]
            data = np.array(cleaned, dtype=dtype)
        mask = nulls if nulls.any() else None
        return Column(name, sql_type, data, mask)


def _casts_whole(values: np.ndarray, dtype: np.dtype) -> bool:
    """Whether ``values.astype(dtype)`` is the array the list path builds
    from ``values.tolist()``.

    True for a 1-D array of fixed-width unicode into TEXT's object dtype
    (each element becomes a ``str``), of bools into BOOLEAN, and of
    integers narrower than uint64 or floats up to float64 into a numeric
    dtype (floats into DOUBLE only).  Anything else, such as an object
    array, uint64 or floats into INTEGER, takes the list path.
    """
    if values.ndim != 1:
        return False
    kind, size = values.dtype.kind, values.dtype.itemsize
    if dtype == np.dtype(object):
        return kind == "U"
    if dtype == np.dtype(np.bool_):
        return kind == "b"
    if kind == "i" or (kind == "u" and size < 8):
        return True
    return kind == "f" and size <= 8 and dtype == np.dtype(np.float64)


@dataclass
class Table:
    """A named, ordered collection of equal-length columns."""

    name: str
    columns: list[Column] = field(default_factory=list)

    def __post_init__(self) -> None:
        lengths = {len(c) for c in self.columns}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns in table {self.name}: {lengths}")
        self._by_name = {c.name: c for c in self.columns}
        if len(self._by_name) != len(self.columns):
            raise CatalogError(f"duplicate column name in table {self.name}")

    @property
    def row_count(self) -> int:
        """Number of rows (0 for a table without columns)."""
        return len(self.columns[0]) if self.columns else 0

    @property
    def column_names(self) -> list[str]:
        """Column names in declaration order."""
        return [c.name for c in self.columns]

    @property
    def estimated_bytes(self) -> int:
        """Approximate in-memory size (sum of the columns' estimates)."""
        return sum(c.estimated_bytes for c in self.columns)

    def column(self, name: str) -> Column:
        """Look up a column by name (CatalogError if absent)."""
        try:
            return self._by_name[name]
        except KeyError:
            raise CatalogError(
                f"no column {name!r} in table {self.name!r}"
            ) from None

    def has_column(self, name: str) -> bool:
        """Whether a column named *name* exists."""
        return name in self._by_name

    def take(self, indices: np.ndarray) -> "Table":
        """Gather rows by position across all columns."""
        return Table(self.name, [c.take(indices) for c in self.columns])

    def filter(self, keep: np.ndarray) -> "Table":
        """Keep the rows where the boolean mask is True."""
        return Table(self.name, [c.filter(keep) for c in self.columns])

    def head(self, n: int) -> "Table":
        """The first *n* rows."""
        return Table(self.name, [
            Column(c.name, c.sql_type, c.data[:n],
                   None if c.null_mask is None else c.null_mask[:n])
            for c in self.columns
        ])

    def append_rows(self, rows: "Table") -> "Table":
        """A new table with *rows* appended positionally (DML INSERT).

        *rows* must carry one column per column of this table, in order;
        names on the incoming columns are ignored (the target's names win).
        """
        if len(rows.columns) != len(self.columns):
            raise ValueError(
                f"cannot append {len(rows.columns)} columns to "
                f"{len(self.columns)}-column table {self.name!r}"
            )
        appended = [
            mine.append(
                Column(mine.name, mine.sql_type, new.data, new.null_mask)
            )
            for mine, new in zip(self.columns, rows.columns)
        ]
        return Table(self.name, appended)

    def with_column(self, column: Column) -> "Table":
        """A new table with the same-named column replaced (DML UPDATE)."""
        if column.name not in self._by_name:
            raise CatalogError(
                f"no column {column.name!r} in table {self.name!r}"
            )
        return Table(
            self.name,
            [column if c.name == column.name else c for c in self.columns],
        )

    def rows(self) -> Iterable[tuple]:
        """Iterate rows as tuples (NULL becomes ``None``); for tests/demos."""
        for i in range(self.row_count):
            yield tuple(
                None
                if (c.null_mask is not None and c.null_mask[i])
                else c.data[i].item() if hasattr(c.data[i], "item") else c.data[i]
                for c in self.columns
            )

    @staticmethod
    def from_dict(
        name: str,
        data: Mapping[str, Sequence],
        types: Mapping[str, SqlType],
        nulls: Mapping[str, np.ndarray] | None = None,
    ) -> "Table":
        """Build a table from ``{column: values}`` with explicit types.

        *nulls* optionally maps a column to the boolean mask of its further
        NULL rows (see :meth:`Column.from_values`).
        """
        nulls = nulls or {}
        columns = [
            Column.from_values(col, types[col], values, nulls.get(col))
            for col, values in data.items()
        ]
        return Table(name, columns)
