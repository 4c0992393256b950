"""repro.resilience: surviving an unreliable LLM API and killed processes.

Four layers, composable and individually usable:

* :mod:`~repro.resilience.client` — :class:`ResilientLLMClient`: retry with
  backoff + jitter, per-task circuit breakers, deadline propagation, and
  hard token/dollar budgets around any :class:`~repro.llm.client.LLMClient`.
* :mod:`~repro.resilience.checkpoint` — run checkpoints, an append-only
  log of checksummed delta records, that make
  ``SQLBarber.generate_workload`` resumable bit-identically after a crash
  or budget exhaustion.
* :mod:`~repro.resilience.records` — the checksummed record codec and
  reader shared by the checkpoint log and the service journal.
* :mod:`~repro.resilience.chaos` — the chaos campaign kernel (one report
  base, one per-run loop, one entry point shared by every scenario) and
  the pipeline campaign that runs the full pipeline under transport-fault
  storms, process kills, budget ceilings and engine faults, asserting
  every run either completes or leaves a valid, resumable checkpoint.
"""

from .checkpoint import CheckpointError, CheckpointManager, run_key
from .records import canonical_json, content_hash, to_jsonable
from .chaos import ChaosReport, ChaosRunner, InjectedCrash, run_chaos_campaign
from .clock import Clock, SimulatedClock, SystemClock
from .lock import DirectoryLock, LockError, LockHeld
from .client import (
    CircuitBreaker,
    CircuitBreakerPolicy,
    ResilientLLMClient,
    RetryPolicy,
    default_response_validator,
)

__all__ = [
    "ChaosReport",
    "ChaosRunner",
    "CheckpointError",
    "CheckpointManager",
    "CircuitBreaker",
    "CircuitBreakerPolicy",
    "Clock",
    "DirectoryLock",
    "InjectedCrash",
    "LockError",
    "LockHeld",
    "ResilientLLMClient",
    "RetryPolicy",
    "SimulatedClock",
    "SystemClock",
    "canonical_json",
    "content_hash",
    "default_response_validator",
    "run_chaos_campaign",
    "run_key",
    "to_jsonable",
]
