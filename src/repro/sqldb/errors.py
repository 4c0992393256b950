"""Error hierarchy for the embedded SQL engine.

The error classes mirror the categories a client sees from a real DBMS:
lexing/parsing problems surface as :class:`SqlSyntaxError`, name-resolution
and type problems as :class:`BindError`, and problems found while running a
plan as :class:`ExecutionError`.  SQLBarber's check-and-rewrite loop relies on
the distinction: syntax and binder errors are fed back to the LLM verbatim.

Every error can carry the character offset of the offending token
(``position``), and — once :meth:`SqlError.attach_source` has run, which
:func:`repro.sqldb.parser.parse_select` and ``Database.plan`` do
automatically — the 1-based ``line``/``column`` pair plus a caret snippet
(:meth:`SqlError.context_snippet`).  The fuzz shrinker and the LLM repair
prompts use the snippet to point at the exact token that broke.
"""

from __future__ import annotations


def line_column(sql: str, position: int) -> tuple[int, int]:
    """1-based (line, column) of character offset *position* in *sql*."""
    position = max(min(position, len(sql)), 0)
    prefix = sql[:position]
    line = prefix.count("\n") + 1
    column = position - (prefix.rfind("\n") + 1) + 1
    return line, column


class SqlError(Exception):
    """Base class for every error raised by :mod:`repro.sqldb`.

    ``position`` is the character offset of the offending token in the
    statement text (None when unknown); ``line``/``column`` are filled in by
    :meth:`attach_source` once the raising layer knows the source text.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position
        self.line: int | None = None
        self.column: int | None = None
        self.source: str | None = None

    def attach_source(self, sql: str) -> "SqlError":
        """Record the statement text and derive line/column from position."""
        if self.source is None and sql is not None:
            self.source = sql
            if self.position is not None:
                self.line, self.column = line_column(sql, self.position)
        return self

    def context_snippet(self) -> str | None:
        """A PostgreSQL-style ``LINE n: ...`` excerpt with a caret marker.

        Returns None until both a source and a position are known.
        """
        if self.source is None or self.position is None or self.line is None:
            return None
        text = self.source.split("\n")[self.line - 1]
        caret_indent = " " * (len(f"LINE {self.line}: ") + self.column - 1)
        return f"LINE {self.line}: {text}\n{caret_indent}^"


class SqlSyntaxError(SqlError):
    """The statement could not be tokenized or parsed.

    Carries an optional source position so error messages can point at the
    offending token, e.g. ``syntax error at or near "FORM" (position 8)``.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (position {position})"
        super().__init__(message, position)


class BindError(SqlError):
    """Name resolution or type checking failed (unknown table/column, etc.)."""


class CatalogError(SqlError):
    """Catalog manipulation failed (duplicate table, unknown constraint...)."""


class ExecutionError(SqlError):
    """A runtime failure while executing a plan (division by zero, etc.)."""


class ConstraintError(ExecutionError):
    """A DML statement violated a table constraint (NOT NULL, arity/type).

    Raised before the statement's result is published, so the table is
    left exactly as it was (statement-level rollback).
    """


class UnsupportedSqlError(SqlError):
    """The statement is valid SQL but outside the supported dialect subset."""


class ResourceExceeded(ExecutionError):
    """A query ran into a governor limit (PostgreSQL's ``statement_timeout``
    / ``work_mem`` analogues for the embedded engine).

    Raised cooperatively at operator boundaries by the executor when a
    :class:`~repro.governor.QueryGovernor` is installed.  The taxonomy below
    lets the profiler distinguish a *pathological template* (strike →
    quarantine) from an ordinary SQL error (count and move on).  The
    position defaults to 0 so :meth:`SqlError.attach_source` can still
    render a ``LINE 1: ...`` snippet pointing at the statement.
    """

    def __init__(self, message: str, position: int | None = 0):
        super().__init__(message, position)


class QueryTimeout(ResourceExceeded):
    """The query exceeded its deadline (wall-clock or charged virtual time)."""


class MemoryBudgetExceeded(ResourceExceeded):
    """An operator's estimated materialized size exceeded the memory budget."""


class RowBudgetExceeded(ResourceExceeded):
    """The query processed (or would materialize) more rows than allowed."""


class QueryCancelled(ResourceExceeded):
    """The query was cancelled cooperatively (``QueryGovernor.cancel``)."""


class TransientStorageError(ExecutionError):
    """A retryable storage-layer hiccup (only ever raised by the seeded
    :class:`~repro.governor.EngineFaultModel`; the in-memory store itself
    cannot fail).  Callers retry a bounded number of times before treating
    it as an ordinary execution error."""
