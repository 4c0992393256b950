"""repro.governor: engine-side resource governance.

PR 4 (``repro.resilience``) made the LLM transport survivable; this package
does the same for the embedded engine, which otherwise executes whatever an
LLM hallucinates — including unbounded cross products.  Three cooperating
pieces:

* :mod:`~repro.governor.context` — :class:`QueryGovernor`: per-query
  deadline, row budget, and memory budget, checked cooperatively at
  executor operator boundaries; ambient installation via
  :func:`use_governor` / :func:`current_governor`.
* :mod:`~repro.governor.quarantine` — :class:`TemplateGuard` /
  :class:`QuarantineRecord`: templates that strike out against the limits
  are benched for the rest of the run instead of crashing it.
* :mod:`~repro.governor.faults` — :class:`EngineFaultModel`: seeded slow
  operators, transient storage errors, and spurious cancellations, so the
  degradation paths are themselves testable.
"""

from .context import (
    GovernorLimits,
    QueryGovernor,
    clock_for,
    current_governor,
    use_governor,
)
from .faults import GOVERNOR_SEED_OFFSET, EngineFaultModel
from .quarantine import QuarantineRecord, TemplateGuard

__all__ = [
    "EngineFaultModel",
    "GOVERNOR_SEED_OFFSET",
    "GovernorLimits",
    "QuarantineRecord",
    "QueryGovernor",
    "TemplateGuard",
    "clock_for",
    "current_governor",
    "use_governor",
]
