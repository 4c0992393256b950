"""Prompt construction and payload encoding.

Prompts combine a human-readable instruction section with a machine-readable
``<payload>…</payload>`` JSON block, the way production systems use
structured prompting.  The simulated LLM reads only the payload; a real LLM
would read the prose.  Both carry the same information: database schema
summary, sampled join path, spec text, templates, error messages, profiling
costs, and refinement history.
"""

from __future__ import annotations

import json

_OPEN, _CLOSE = "<payload>", "</payload>"

# ``json.dumps(value, sort_keys=True)`` without building an encoder per call.
_encode = json.JSONEncoder(sort_keys=True).encode


class PayloadJSON(str):
    """A payload member's JSON text, encoded once: ``json.dumps(value,
    sort_keys=True)`` of a value many prompts carry unchanged (the schema
    summary).  :func:`encode_payload` splices it in verbatim instead of
    encoding the value again; a ``str`` cannot change after it is made."""


def encode_payload(payload: dict) -> str:
    """``<payload>`` + ``json.dumps(payload, sort_keys=True)`` + ``</payload>``.

    The top-level object is written here, byte for byte as ``json.dumps``
    writes it for string keys, so that a :class:`PayloadJSON` member goes in
    as its text; every other member is ``json.dumps(value, sort_keys=True)``.
    """
    members = ", ".join(
        f"{_encode(key)}: "
        + (value if isinstance(value, PayloadJSON) else _encode(value))
        for key, value in sorted(payload.items())
    )
    return f"{_OPEN}{{{members}}}{_CLOSE}"


def decode_payload(prompt: str) -> dict:
    """The JSON between the first ``<payload>`` and the first ``</payload>``
    after it."""
    start = prompt.find(_OPEN)
    end = prompt.find(_CLOSE, start + len(_OPEN)) if start >= 0 else -1
    if end < 0:
        raise ValueError("prompt carries no <payload> block")
    return json.loads(prompt[start + len(_OPEN):end])


def _schema_section(schema: dict) -> str:
    lines = ["## DATABASE SCHEMA"]
    for table in schema.get("tables", []):
        columns = ", ".join(
            f"{c['name']} {c['type']} (ndv={c.get('ndv', '?')})"
            for c in table.get("columns", [])
        )
        lines.append(f"- {table['name']} ({table.get('rows', '?')} rows): {columns}")
    edges = schema.get("join_edges", [])
    if edges:
        lines.append("## JOIN GRAPH")
        for edge in edges:
            lines.append(
                f"- {edge['table']}.{edge['column']} = "
                f"{edge['ref_table']}.{edge['ref_column']}"
            )
    return "\n".join(lines)


def template_generation_prompt(
    schema: dict, join_path: list[dict], spec_text: str, payload: dict
) -> str:
    """Step 3 of the paper: schema + join path + user spec -> prompt."""
    path_text = (
        "\n".join(
            f"- join {e['table']}.{e['column']} with "
            f"{e['ref_table']}.{e['ref_column']}"
            for e in join_path
        )
        or "- (single-table template, no joins)"
    )
    return (
        "You are an expert SQL engineer. Generate ONE SQL template for the\n"
        "database below. Use {placeholder} markers for predicate values.\n\n"
        f"{_schema_section(schema)}\n\n"
        "## SUGGESTED JOIN PATH\n"
        f"{path_text}\n\n"
        "## SPECIFICATION\n"
        f"{spec_text}\n\n"
        "Respond with the SQL template only.\n"
        f"{encode_payload(payload)}"
    )


def validate_semantics_prompt(template_sql: str, spec_text: str, payload: dict) -> str:
    """Algorithm 1, ValidateSemantics: does the template satisfy the spec?"""
    return (
        "Check whether the SQL template satisfies every requirement of the\n"
        "specification. Reason step by step, then answer with a JSON object\n"
        '{"satisfied": bool, "violations": [string, ...]}.\n\n'
        "## TEMPLATE\n"
        f"{template_sql}\n\n"
        "## SPECIFICATION\n"
        f"{spec_text}\n"
        f"{encode_payload(payload)}"
    )


def fix_semantics_prompt(
    template_sql: str, spec_text: str, violations: list[str], payload: dict
) -> str:
    """Algorithm 1, FixSemantics: rewrite the template to honour the spec."""
    violation_text = "\n".join(f"- {v}" for v in violations) or "- (unspecified)"
    return (
        "The SQL template below violates its specification. Rewrite it so\n"
        "every requirement is satisfied, keeping the general query intent.\n\n"
        "## TEMPLATE\n"
        f"{template_sql}\n\n"
        "## SPECIFICATION\n"
        f"{spec_text}\n\n"
        "## VIOLATIONS\n"
        f"{violation_text}\n"
        f"{encode_payload(payload)}"
    )


def fix_execution_prompt(template_sql: str, error: str, payload: dict) -> str:
    """Algorithm 1, FixExecution: repair using the DBMS error message."""
    return (
        "The SQL template below fails on the target database. Fix it using\n"
        "the error message; change as little as possible.\n\n"
        "## TEMPLATE\n"
        f"{template_sql}\n\n"
        "## DBMS ERROR\n"
        f"{error}\n"
        f"{encode_payload(payload)}"
    )


def refine_template_prompt(
    template_sql: str,
    cost_summary: dict,
    target_interval: tuple[float, float],
    history: list[dict] | None,
    payload: dict,
) -> str:
    """Algorithm 2, RefineTemplate: shift a template toward a cost interval."""
    history_text = ""
    if history:
        lines = ["## PREVIOUS ATTEMPTS (template -> observed cost range)"]
        for entry in history:
            lines.append(
                f"- costs [{entry.get('min_cost', '?')}, {entry.get('max_cost', '?')}]"
                f" from: {entry.get('sql', '')[:200]}"
            )
        history_text = "\n".join(lines) + "\n\n"
    return (
        "Rewrite the SQL template so that its instantiated queries can reach\n"
        f"costs inside [{target_interval[0]:.1f}, {target_interval[1]:.1f}].\n"
        "The current template produces the cost profile shown below.\n\n"
        "## TEMPLATE\n"
        f"{template_sql}\n\n"
        "## OBSERVED COST PROFILE\n"
        f"{json.dumps(cost_summary)}\n\n"
        f"{history_text}"
        "Respond with the rewritten SQL template only.\n"
        f"{encode_payload(payload)}"
    )
