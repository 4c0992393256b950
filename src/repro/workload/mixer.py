"""Mixed read/write workload synthesis (the ``--workload-mix`` knob).

SQLBarber's pipeline generates SELECT statements: templates come from the
LLM, predicates from the cost-distribution search.  Real OLTP-ish traces
interleave writes, so this module adds a deterministic post-pass that swaps
a seeded fraction of the generated queries for DML statements drawn from
the fuzz grammar's INSERT/UPDATE/DELETE productions (valid by construction
against the live schema) and costed through EXPLAIN — which never executes,
so mixing is side-effect free and cannot perturb later decisions.

Reproducibility contract: the keep-or-replace decision and the replacement
statement at position *i* are a pure function of ``(seed, i)`` and the
schema — never of earlier queries — so mixed workloads are prefix-stable
and byte-identical across runs and across kill/resume (mixing runs after
the search stage, which is itself bit-identical across both).
"""

from __future__ import annotations

import random

from repro.workload.query import GeneratedQuery, Workload

#: Statement kinds, in the order the mix fractions are given.
STATEMENT_KINDS = ("select", "insert", "update", "delete")


def parse_mix(text: str) -> tuple[float, float, float, float]:
    """Parse a ``select,insert,update,delete`` fraction string.

    ``"0.5,0.2,0.2,0.1"`` → ``(0.5, 0.2, 0.2, 0.1)``.  Raises
    :class:`ValueError` with an actionable message on malformed input.
    """
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError(
            f"expected four comma-separated fractions "
            f"(select,insert,update,delete), got {text!r}"
        )
    try:
        values = tuple(float(p) for p in parts)
    except ValueError:
        raise ValueError(f"non-numeric fraction in {text!r}") from None
    return validate_mix(values)


def validate_mix(mix) -> tuple[float, float, float, float]:
    """Check that *mix* is four non-negative fractions summing to 1."""
    values = tuple(float(f) for f in mix)
    if len(values) != 4:
        raise ValueError(
            f"expected four fractions (select,insert,update,delete), "
            f"got {len(values)}"
        )
    if any(f < 0 for f in values):
        raise ValueError(f"fractions must be non-negative, got {values}")
    if abs(sum(values) - 1.0) > 1e-6:
        raise ValueError(f"fractions must sum to 1, got {sum(values)!r}")
    return values


def _draw_kind(rng: random.Random, mix) -> str:
    roll = rng.random()
    acc = 0.0
    for kind, fraction in zip(STATEMENT_KINDS, mix):
        acc += fraction
        if roll < acc:
            return kind
    return "select"  # guard against float round-off at the boundary


class WorkloadMixer:
    """Replace a seeded fraction of a workload's queries with DML."""

    def __init__(self, db, seed: int = 0):
        from repro.fuzz.grammar import FuzzGrammar

        self._db = db
        self._seed = seed
        self._grammar = FuzzGrammar(db.catalog, seed=seed)

    def mix(self, workload: Workload, mix) -> Workload:
        """A new :class:`Workload` with DML interleaved per *mix*.

        The input workload is not modified; kept SELECT queries are shared
        (they are frozen dataclasses).
        """
        mix = validate_mix(mix)
        mixed: list[GeneratedQuery] = []
        for i, query in enumerate(workload.queries):
            rng = random.Random(f"mix:{self._seed}:{i}")
            kind = _draw_kind(rng, mix)
            if kind == "select":
                mixed.append(query)
            else:
                mixed.append(self._dml_query(kind, rng, i, query.cost_type))
        return Workload(queries=mixed, name=workload.name)

    def _dml_query(
        self, kind: str, rng: random.Random, index: int, cost_type: str
    ) -> GeneratedQuery:
        from repro.sqldb.sql_render import render_statement

        builder = getattr(self._grammar, f"_shape_{kind}")
        statement, _scope = builder(rng)
        sql = render_statement(statement)
        # Estimates only — EXPLAIN never executes, so costing a DML
        # statement here mutates nothing and stays deterministic.
        estimate = self._db.explain(sql)
        cost = (
            estimate.estimated_rows
            if cost_type == "estimated_rows"
            else estimate.total_cost
        )
        return GeneratedQuery(
            sql=sql,
            cost=cost,
            template_id=f"mix_{kind}_{index}",
            cost_type=cost_type,
        )


__all__ = [
    "STATEMENT_KINDS",
    "WorkloadMixer",
    "parse_mix",
    "validate_mix",
]
