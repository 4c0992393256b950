"""SQLBarber core: the paper's primary contribution."""

from .barber import SQLBarber, WorkloadResult
from .check_rewrite import AttemptStatus, RewriteTrace, check_and_rewrite
from .config import BarberConfig, RefinementPhase
from .join_paths import (
    enumerate_join_paths,
    join_graph,
    path_tables,
    sample_join_path,
)
from .predicate_search import PredicateSearch, SearchResult, interval_objective
from .profiler import TemplateProfile, TemplateProfiler, interval_distance
from .refiner import RefinementResult, TemplateRefiner
from .schema_summary import schema_json, schema_payload, schema_text
from .template_generator import CustomizedTemplateGenerator, TemplateGenerationReport
from .validation import probe_values, template_error

__all__ = [
    "AttemptStatus",
    "BarberConfig",
    "CustomizedTemplateGenerator",
    "PredicateSearch",
    "RefinementPhase",
    "RefinementResult",
    "RewriteTrace",
    "SQLBarber",
    "SearchResult",
    "TemplateGenerationReport",
    "TemplateProfile",
    "TemplateProfiler",
    "TemplateRefiner",
    "WorkloadResult",
    "check_and_rewrite",
    "enumerate_join_paths",
    "interval_distance",
    "interval_objective",
    "join_graph",
    "path_tables",
    "probe_values",
    "sample_join_path",
    "schema_json",
    "schema_payload",
    "schema_text",
    "template_error",
]
