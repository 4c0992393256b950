"""The customized SQL template generator (paper Section 4).

Steps 1-5: summarize the schema, sample a join path compatible with the
spec, build the prompt, invoke the LLM, then run the check-and-rewrite loop
(Algorithm 1) until the template is executable and spec-compliant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.llm import LLMClient, SimulatedLLM, extract_sql, template_generation_prompt
from repro.obs import current as current_telemetry
from repro.sqldb import Database
from repro.workload import (
    SqlTemplate,
    TemplateSpec,
    check_template,
    infer_placeholder_bindings,
)
from .check_rewrite import RewriteTrace, check_and_rewrite, spec_to_payload
from .config import BarberConfig
from .join_paths import sample_join_path
from .schema_summary import schema_json, schema_payload
from .validation import template_error


@dataclass
class TemplateGenerationReport:
    """Outcome of generating a batch of templates."""

    traces: list[RewriteTrace] = field(default_factory=list)

    @property
    def alignment_accuracy(self) -> float:
        """Fraction of templates whose final SQL satisfies its spec
        (the paper's Template Alignment Accuracy metric)."""
        if not self.traces:
            return 0.0
        return sum(t.final_ok for t in self.traces) / len(self.traces)

    def cumulative_correct(self, max_attempts: int) -> dict[str, list[int]]:
        """Figure 8a data: cumulative spec/syntax-correct template counts
        after each rewrite attempt index (0 = the initial generation)."""
        spec_counts, syntax_counts = [], []
        for attempt in range(max_attempts):
            spec_ok = syntax_ok = 0
            for trace in self.traces:
                first_spec = trace.first_spec_ok_attempt()
                first_syntax = trace.first_syntax_ok_attempt()
                spec_ok += first_spec is not None and first_spec <= attempt
                syntax_ok += first_syntax is not None and first_syntax <= attempt
            spec_counts.append(spec_ok)
            syntax_counts.append(syntax_ok)
        return {"specification": spec_counts, "syntax": syntax_counts}


class CustomizedTemplateGenerator:
    """Generates spec-conforming SQL templates for one target database."""

    def __init__(
        self,
        db: Database,
        llm: LLMClient | None = None,
        config: BarberConfig | None = None,
    ):
        self.db = db
        self.config = config or BarberConfig()
        self.llm = llm if llm is not None else SimulatedLLM(seed=self.config.seed)
        self._rng = np.random.default_rng(self.config.seed)
        self._schema = schema_payload(db)
        self._schema_json = schema_json(db)

    @property
    def schema(self) -> dict:
        return self._schema

    def generate(self, spec: TemplateSpec) -> tuple[SqlTemplate | None, RewriteTrace]:
        """Steps 2-5 for one spec: sample path, prompt, generate, rewrite."""
        telemetry = current_telemetry()
        with telemetry.span("template.generate", spec_id=spec.spec_id) as span:
            num_joins = spec.num_joins if spec.num_joins is not None else int(
                self._rng.integers(0, 3)
            )
            join_path = sample_join_path(
                self.db, num_joins, self._rng, num_tables=spec.num_tables
            )
            payload = {
                "task": "generate_template",
                "schema": self._schema_json,
                "join_path": join_path,
                "spec": spec_to_payload(spec),
            }
            prompt = template_generation_prompt(
                self._schema, join_path, spec.to_prompt_text(), payload
            )
            response = self.llm.complete(prompt, task="generate_template")
            candidate = extract_sql(response.text)
            # Verdicts by template text for this spec: nothing changes the
            # catalog while its template is generated and rewritten.
            verdicts: dict[str, str | None] = {}
            trace = check_and_rewrite(
                candidate,
                spec,
                self.db,
                self.llm,
                self._schema_json,
                self.config,
                verdicts,
            )
            template = self._finalize(trace.final_sql, spec, verdicts)
            if telemetry.enabled:
                span.set(
                    attempts=len(trace.attempts),
                    rewrites=trace.rewrites,
                    final_ok=trace.final_ok,
                    usable=template is not None,
                )
                telemetry.count("generator.templates")
                if template is None:
                    telemetry.count("generator.dropped")
        return template, trace

    def generate_many(
        self, specs: list[TemplateSpec]
    ) -> tuple[list[SqlTemplate], TemplateGenerationReport]:
        """Generate one template per spec; broken finals are dropped."""
        templates: list[SqlTemplate] = []
        report = TemplateGenerationReport()
        for spec in specs:
            template, trace = self.generate(spec)
            report.traces.append(trace)
            if template is not None:
                templates.append(template)
        return templates, report

    def _finalize(
        self, sql: str, spec: TemplateSpec, verdicts: dict[str, str | None]
    ) -> SqlTemplate | None:
        """Build the SqlTemplate (with placeholder metadata) if executable."""
        if template_error(sql, self.db, self.config, verdicts) is not None:
            return None
        template = SqlTemplate(
            template_id=f"{spec.spec_id}_t",
            sql=sql,
            spec_id=spec.spec_id,
        )
        template.placeholders = infer_placeholder_bindings(
            template.parse(), self.db.catalog
        )
        return template
