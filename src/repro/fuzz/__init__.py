"""Grammar-based differential fuzzing for the embedded SQL engine.

The subsystem has four parts, mirroring classic grammar fuzzers such as
pyrqg / SQLsmith adapted to a differential-testing setting:

* :mod:`repro.fuzz.grammar` — a seeded, schema-aware generator that grows
  SELECT statements directly as ASTs over the live :class:`Catalog` (so
  every statement is valid by construction) and renders them through
  :mod:`repro.sqldb.sql_render`;
* :mod:`repro.fuzz.oracles` — differential oracles asserting agreement
  between independent implementations of the same contract (cold pipeline
  vs compiled templates, cached vs uncached EXPLAIN, render round-trips,
  executor-vs-estimator sanity, committed DML vs cached costs);
* :mod:`repro.fuzz.shrink` — a delta-debugging shrinker that reduces a
  failing statement to a minimal reproducer;
* :mod:`repro.fuzz.corpus` — a JSON regression corpus replayed by pytest.

Entry point: ``python -m repro fuzz --seed S --budget N`` or
:class:`repro.fuzz.runner.FuzzRunner`.
"""

from .corpus import Corpus, CorpusEntry
from .grammar import (
    DML_SHAPES,
    GRAMMAR_VERSION,
    SELECT_SHAPES,
    FuzzGrammar,
    GeneratedStatement,
)
from .oracles import SKIPPED, Disagreement, Oracle, default_oracles
from .runner import FuzzReport, FuzzRunner, build_fuzz_database
from .shrink import clause_count, shrink_sql

__all__ = [
    "DML_SHAPES",
    "GRAMMAR_VERSION",
    "SELECT_SHAPES",
    "FuzzGrammar",
    "GeneratedStatement",
    "Oracle",
    "Disagreement",
    "SKIPPED",
    "default_oracles",
    "Corpus",
    "CorpusEntry",
    "FuzzReport",
    "FuzzRunner",
    "build_fuzz_database",
    "shrink_sql",
    "clause_count",
]
