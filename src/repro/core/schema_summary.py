"""Step 1 of the template generator: database schema summarisation.

Extracts the three metadata categories the paper describes — table-level
(names, sizes, tuple counts), column-level (names, types, distinct counts),
and constraint-level (primary/foreign keys, indexes) — both as a structured
payload for prompts and as human-readable text.
"""

from __future__ import annotations

import json

from repro.llm.prompts import PayloadJSON
from repro.sqldb import Database


def schema_payload(db: Database) -> dict:
    """The machine-readable schema summary carried in every LLM prompt.

    One summary per database and statistics epoch, built on first use
    (``Catalog.epoch_memo``): every caller in an epoch gets the same dict,
    and none may mutate it.
    """
    return _summary(db)[0]


def schema_json(db: Database) -> PayloadJSON:
    """``json.dumps(schema_payload(db), sort_keys=True)``, encoded once with
    the summary: the ``"schema"`` member of every prompt payload."""
    return _summary(db)[1]


def _summary(db: Database) -> tuple[dict, PayloadJSON]:
    def build() -> tuple[dict, PayloadJSON]:
        schema = _schema_of(db)
        return schema, PayloadJSON(json.dumps(schema, sort_keys=True))

    return db.catalog.epoch_memo(("schema_summary", db.name), build)


def _schema_of(db: Database) -> dict:
    catalog = db.catalog
    tables = []
    for name in catalog.table_names:
        meta = catalog.table(name)
        columns = []
        for column in meta.columns:
            stats = column.stats
            entry: dict = {
                "name": column.name,
                "type": column.sql_type.value,
                "ndv": int(stats.distinct_count) if stats else None,
            }
            if stats is not None and isinstance(stats.min_value, (int, float)):
                entry["min"] = float(stats.min_value)
                entry["max"] = float(stats.max_value)
            columns.append(entry)
        tables.append(
            {
                "name": name,
                "rows": meta.row_count,
                "pages": meta.page_count,
                "primary_key": list(meta.primary_key),
                "indexes": [i.column for i in catalog.indexes_of(name)],
                "columns": columns,
            }
        )
    join_edges = [
        {
            "table": fk.table,
            "column": fk.column,
            "ref_table": fk.ref_table,
            "ref_column": fk.ref_column,
        }
        for fk in catalog.foreign_keys
    ]
    return {"database": db.name, "tables": tables, "join_edges": join_edges}


def schema_text(db: Database) -> str:
    """A compact human-readable schema summary (prompt prose)."""
    catalog = db.catalog
    lines = [f"Database '{db.name}' with {len(catalog.table_names)} tables:"]
    for name in catalog.table_names:
        meta = catalog.table(name)
        columns = ", ".join(
            f"{c.name} {c.sql_type.value}"
            + (f" (ndv={int(c.stats.distinct_count)})" if c.stats else "")
            for c in meta.columns
        )
        pk = f"; pk=({', '.join(meta.primary_key)})" if meta.primary_key else ""
        lines.append(f"  {name} [{meta.row_count} rows{pk}]: {columns}")
    if catalog.foreign_keys:
        lines.append("Foreign keys:")
        for fk in catalog.foreign_keys:
            lines.append(f"  {fk}")
    return "\n".join(lines)
