"""Template executability checking (D.ValidateSyntax in Algorithm 1).

A template with placeholders cannot be planned directly, so validation
instantiates it with cheap probe values derived from column statistics and
asks the engine to parse, bind, and plan the result.  Any
:class:`~repro.sqldb.errors.SqlError` message is returned verbatim — it is
the DBMS feedback the LLM repairs against.
"""

from __future__ import annotations

from repro.sqldb import Database, SqlError
from repro.sqldb.types import SqlType
from repro.workload import PlaceholderInfo, SqlTemplate, infer_placeholder_bindings
from .config import BarberConfig


def probe_values(
    infos: list[PlaceholderInfo], db: Database, config: BarberConfig
) -> dict[str, object]:
    """Cheap representative values for each placeholder (midpoints)."""
    values: dict[str, object] = {}
    low, high = config.unbound_placeholder_range
    for info in infos:
        if info.table is None or info.column is None:
            values[info.name] = (low + high) // 2
            continue
        stats = db.catalog.column_stats(info.table, info.column)
        if stats is None or stats.min_value is None:
            values[info.name] = (low + high) // 2
            continue
        if info.sql_type is SqlType.TEXT:
            if info.operator == "like":
                sample = str(stats.min_value)
                values[info.name] = f"%{sample[:2]}%"
            elif stats.mcv_values:
                values[info.name] = stats.mcv_values[0]
            else:
                values[info.name] = stats.min_value
            continue
        midpoint = (float(stats.min_value) + float(stats.max_value)) / 2.0
        if info.sql_type in (SqlType.INTEGER, SqlType.BIGINT, SqlType.DATE):
            values[info.name] = int(midpoint)
        else:
            values[info.name] = midpoint
    return values


def template_error(
    sql: str,
    db: Database,
    config: BarberConfig,
    memo: dict[str, str | None] | None = None,
) -> str | None:
    """None if the template is executable, else the DBMS error message.

    *memo* holds verdicts by SQL text: a text already in it is not
    validated again.  Share one only over a span in which nothing changes
    the catalog (one template's generate-and-rewrite loop).
    """
    if memo is not None:
        if sql not in memo:
            memo[sql] = template_error(sql, db, config)
        return memo[sql]
    template = SqlTemplate(template_id="probe", sql=sql)
    try:
        statement = template.parse()
    except SqlError as exc:
        return str(exc)
    try:
        infos = infer_placeholder_bindings(statement, db.catalog)
        instantiated = SqlTemplate(
            template_id="probe", sql=sql, placeholders=infos
        ).instantiate(probe_values(infos, db, config))
    except (SqlError, KeyError) as exc:
        return str(exc)
    ok, error = db.validate(instantiated)
    return None if ok else error
