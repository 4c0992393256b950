"""Algorithm 1: iterative template check and rewrite.

Each iteration first asks the LLM whether the template satisfies the user
specification (phase 1, ``ValidateSemantics`` → ``FixSemantics``) and then
asks the database whether it executes (phase 2, ``ValidateSyntax`` →
``FixExecution``).  The loop ends when both checks pass or the iteration
budget is exhausted.  Every iteration's ground-truth status is recorded so
the rewrite-convergence analysis (paper Figure 8a) can be reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.llm import (
    LLMClient,
    PayloadJSON,
    extract_json,
    extract_sql,
    fix_execution_prompt,
    fix_semantics_prompt,
    validate_semantics_prompt,
)
from repro.obs import current as current_telemetry
from repro.sqldb import Database
from repro.workload import TemplateSpec, check_template
from .config import BarberConfig
from .validation import template_error


@dataclass(frozen=True)
class AttemptStatus:
    """Ground-truth template status at the start of one iteration."""

    spec_ok: bool
    syntax_ok: bool

    @property
    def fully_ok(self) -> bool:
        return self.spec_ok and self.syntax_ok


@dataclass
class RewriteTrace:
    """Per-template record of the check-and-rewrite loop."""

    spec_id: str
    attempts: list[AttemptStatus] = field(default_factory=list)
    rewrites: int = 0
    final_sql: str = ""
    final_ok: bool = False

    def first_spec_ok_attempt(self) -> int | None:
        for index, status in enumerate(self.attempts):
            if status.spec_ok:
                return index
        return None

    def first_syntax_ok_attempt(self) -> int | None:
        for index, status in enumerate(self.attempts):
            if status.syntax_ok:
                return index
        return None


def spec_to_payload(spec: TemplateSpec) -> dict:
    return {
        "spec_id": spec.spec_id,
        "num_tables": spec.num_tables,
        "num_joins": spec.num_joins,
        "num_aggregations": spec.num_aggregations,
        "num_predicates": spec.num_predicates,
        "require_group_by": spec.require_group_by,
        "require_nested_subquery": spec.require_nested_subquery,
        "require_order_by": spec.require_order_by,
        "require_limit": spec.require_limit,
        "require_complex_scalar": spec.require_complex_scalar,
        "require_union": spec.require_union,
    }


def check_and_rewrite(
    sql: str,
    spec: TemplateSpec,
    db: Database,
    llm: LLMClient,
    schema: dict | PayloadJSON,
    config: BarberConfig,
    verdicts: dict[str, str | None] | None = None,
) -> RewriteTrace:
    """Run Algorithm 1 on one candidate template.

    *schema* is every prompt payload's ``"schema"`` member: the schema
    summary, or its JSON text (``schema_json``) when the caller has it.

    Each distinct template text is validated against the database once:
    its verdict is kept in *verdicts* (a fresh dict when None), so an
    unchanged text is not re-planned, and a caller that passes its own dict
    can read the final text's verdict from it.  Each distinct text is also
    checked against *spec* once: ``check_template`` reads no catalog, so
    its verdict on a text holds for the whole call.
    """
    if verdicts is None:
        verdicts = {}
    spec_verdicts: dict[str, bool] = {}

    def spec_ok(text: str) -> bool:
        if text not in spec_verdicts:
            spec_verdicts[text] = check_template(text, spec)[0]
        return spec_verdicts[text]

    telemetry = current_telemetry()
    trace = RewriteTrace(spec_id=spec.spec_id)
    spec_payload = spec_to_payload(spec)
    current = sql
    for iteration in range(config.max_rewrite_iterations):
        truth_spec_ok = spec_ok(current)
        truth_syntax_ok = template_error(current, db, config, verdicts) is None
        trace.attempts.append(AttemptStatus(truth_spec_ok, truth_syntax_ok))
        telemetry.count("generator.attempts")

        # Phase 1: specification compliance, judged and fixed by the LLM.
        satisfied, violations = _llm_validate(current, spec, llm, schema, spec_payload)
        if not satisfied:
            current = _llm_fix_semantics(
                current, spec, violations, llm, schema, spec_payload, iteration
            )
            trace.rewrites += 1
            telemetry.count("generator.rewrites", phase="semantics")

        # Phase 2: executability, judged by the DBMS and fixed by the LLM.
        error = template_error(current, db, config, verdicts)
        if error is not None:
            current = _llm_fix_execution(
                current, error, llm, schema, spec_payload, iteration
            )
            trace.rewrites += 1
            telemetry.count("generator.rewrites", phase="execution")
            error = template_error(current, db, config, verdicts)

        if satisfied and error is None:
            break

    trace.final_sql = current
    trace.final_ok = (
        spec_ok(current) and template_error(current, db, config, verdicts) is None
    )
    return trace


def _llm_validate(
    sql: str,
    spec: TemplateSpec,
    llm: LLMClient,
    schema: dict | PayloadJSON,
    spec_payload: dict,
) -> tuple[bool, list[str]]:
    prompt = validate_semantics_prompt(
        sql,
        spec.to_prompt_text(),
        {
            "task": "validate_semantics",
            "schema": schema,
            "template": sql,
            "spec": spec_payload,
        },
    )
    response = llm.complete(prompt, task="validate_semantics")
    try:
        verdict = extract_json(response.text)
        return bool(verdict.get("satisfied")), [
            str(v) for v in verdict.get("violations", [])
        ]
    except (ValueError, TypeError):
        # Unparseable judgement: treat as unsatisfied with no detail.
        return False, ["validator response unparseable"]


def _llm_fix_semantics(
    sql: str,
    spec: TemplateSpec,
    violations: list[str],
    llm: LLMClient,
    schema: dict | PayloadJSON,
    spec_payload: dict,
    iteration: int,
) -> str:
    prompt = fix_semantics_prompt(
        sql,
        spec.to_prompt_text(),
        violations,
        {
            "task": "fix_semantics",
            "schema": schema,
            "template": sql,
            "spec": spec_payload,
            "violations": violations,
            "attempt": iteration + 1,
        },
    )
    response = llm.complete(prompt, task="fix_semantics")
    fixed = extract_sql(response.text)
    return fixed or sql


def _llm_fix_execution(
    sql: str,
    error: str,
    llm: LLMClient,
    schema: dict | PayloadJSON,
    spec_payload: dict,
    iteration: int,
) -> str:
    prompt = fix_execution_prompt(
        sql,
        error,
        {
            "task": "fix_execution",
            "schema": schema,
            "template": sql,
            "error": error,
            "spec": spec_payload,
            "attempt": iteration + 1,
        },
    )
    response = llm.complete(prompt, task="fix_execution")
    fixed = extract_sql(response.text)
    return fixed or sql
