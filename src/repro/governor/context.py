"""The query governor: deadlines, budgets, and cooperative cancellation.

A :class:`QueryGovernor` is the engine-side analogue of PostgreSQL's
``statement_timeout`` / ``work_mem`` pair: a per-query context carrying a
deadline, a row budget, and a memory budget.  The executor checks it at
every operator boundary (the materializing executor's equivalent of volcano
``next()`` calls) and inside the hash-join and nested-loop hot paths, so a
pathological query — an unbounded cross product, a hallucinated join — is
cancelled cooperatively instead of hanging the run.

Time comes from the :class:`~repro.resilience.clock.Clock` abstraction.  On
a :class:`~repro.resilience.clock.SimulatedClock` the timeline only moves
when charged, which makes every governor decision a pure function of the
query and its data: tests and chaos campaigns get bit-identical behaviour.
Production uses :class:`~repro.resilience.clock.SystemClock` and real
wall-clock deadlines.

Besides real elapsed time, the governor can charge *virtual* seconds per
processed row (``cost_per_row_seconds``).  This is what makes deadlines
deterministic under a simulated clock: a cross join that materializes a
million rows trips the same deadline at the same row, every run.

Installation is ambient (a :mod:`contextvars` variable), mirroring
:mod:`repro.obs`: the profiler installs a governor with
:func:`use_governor` around one query and the executor picks it up via
:func:`current_governor` without any signature plumbing.  Contexts are
per-thread, so concurrent callers never see each other's governor.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.sqldb.errors import (
    MemoryBudgetExceeded,
    QueryCancelled,
    QueryTimeout,
    RowBudgetExceeded,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.clock import Clock

#: Scan-shaped plan nodes: the only place storage faults can be injected.
SCAN_NODES = frozenset({"SeqScanNode", "IndexScanNode"})


@dataclass(frozen=True)
class GovernorLimits:
    """Per-query resource ceilings.  ``None`` disables the corresponding
    check; all-``None`` limits with no fault model make the governor a
    no-op (and callers should simply not install one)."""

    query_timeout_seconds: float | None = None
    memory_budget_bytes: int | None = None
    row_budget: int | None = None
    # Virtual seconds charged per processed row; > 0 makes deadlines
    # deterministic under SimulatedClock (see module docstring).
    cost_per_row_seconds: float = 0.0

    @property
    def enabled(self) -> bool:
        return (
            self.query_timeout_seconds is not None
            or self.memory_budget_bytes is not None
            or self.row_budget is not None
        )

    @staticmethod
    def from_config(config) -> "GovernorLimits":
        """Derive limits from a :class:`~repro.core.config.BarberConfig`."""
        memory = config.memory_budget_mb
        return GovernorLimits(
            query_timeout_seconds=config.query_timeout_seconds,
            memory_budget_bytes=(
                int(memory * 1024 * 1024) if memory is not None else None
            ),
            row_budget=config.row_budget,
            cost_per_row_seconds=config.governor_cost_per_row_seconds,
        )


def clock_for(name: str) -> "Clock":
    """Map a config clock name to a Clock instance.

    ``"simulated"`` returns a fresh zero-based :class:`SimulatedClock` —
    each query gets its own deterministic timeline.
    """
    # Imported lazily: the executor imports this module, and pulling in the
    # resilience package at import time would close a circular import with
    # repro.sqldb.
    from repro.resilience.clock import SimulatedClock, SystemClock

    if name == "simulated":
        return SimulatedClock()
    return SystemClock()


class QueryGovernor:
    """One query's resource-governance context.

    Not shared between concurrent queries.  :meth:`cancel` flips a flag
    that the next :meth:`check` turns into :class:`QueryCancelled`.
    """

    def __init__(
        self,
        limits: GovernorLimits,
        clock: "Clock | None" = None,
        faults=None,
        fault_rng=None,
    ):
        if clock is None:
            from repro.resilience.clock import SystemClock

            clock = SystemClock()
        self.limits = limits
        self.clock = clock
        self.faults = faults if (faults is not None and faults.active) else None
        self._fault_rng = fault_rng
        self._started = self.clock.now()
        self._charged_seconds = 0.0
        self.rows_processed = 0
        self.peak_bytes = 0
        self.faults_injected = 0
        self._cancelled = False
        self._cancel_reason: str | None = None

    # -- time --------------------------------------------------------------------

    def elapsed_seconds(self) -> float:
        """Real elapsed time plus virtual seconds charged for work done."""
        return (self.clock.now() - self._started) + self._charged_seconds

    # -- cooperative cancellation --------------------------------------------------

    def cancel(self, reason: str) -> None:
        """Request cancellation; the query raises at its next check.

        The fault model's spurious cancellations come through here.
        """
        self._cancel_reason = reason
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    # -- checks (the executor's entry points) ----------------------------------------

    def check(self) -> None:
        """Raise if cancelled or past the deadline.  Called at every
        operator boundary and periodically inside operator loops."""
        if self._cancelled:
            raise QueryCancelled(f"query cancelled: {self._cancel_reason}")
        timeout = self.limits.query_timeout_seconds
        if timeout is not None and self.elapsed_seconds() > timeout:
            raise QueryTimeout(
                f"query exceeded its {timeout:g}s deadline "
                f"(elapsed {self.elapsed_seconds():.3f}s)"
            )

    def begin_operator(self, node_name: str) -> None:
        """Pre-operator hook: fault injection, then the deadline check."""
        if self.faults is not None:
            self._inject_faults(node_name)
        self.check()

    def charge_rows(self, rows: int) -> None:
        """Account for *rows* processed rows; raise on a busted row budget."""
        self.rows_processed += rows
        if self.limits.cost_per_row_seconds:
            self._charged_seconds += rows * self.limits.cost_per_row_seconds
        budget = self.limits.row_budget
        if budget is not None and self.rows_processed > budget:
            raise RowBudgetExceeded(
                f"query processed {self.rows_processed} rows, over its "
                f"budget of {budget}"
            )

    def charge_frame(self, node_name: str, rows: int, est_bytes: int) -> None:
        """Post-operator hook: charge the materialized frame and re-check."""
        if est_bytes > self.peak_bytes:
            self.peak_bytes = est_bytes
        budget = self.limits.memory_budget_bytes
        if budget is not None and est_bytes > budget:
            raise MemoryBudgetExceeded(
                f"{node_name} materialized ~{est_bytes} bytes, over the "
                f"{budget}-byte memory budget"
            )
        self.charge_rows(rows)
        self.check()

    def admit(self, rows: int, est_bytes: int, node_name: str) -> None:
        """Pre-admission for operators that can predict their output size
        (the nested-loop cross product): refuse *before* materializing."""
        budget = self.limits.row_budget
        if budget is not None and self.rows_processed + rows > budget:
            raise RowBudgetExceeded(
                f"{node_name} would materialize {rows} rows, over the "
                f"row budget of {budget} "
                f"({self.rows_processed} already processed)"
            )
        mem = self.limits.memory_budget_bytes
        if mem is not None and est_bytes > mem:
            raise MemoryBudgetExceeded(
                f"{node_name} would materialize ~{est_bytes} bytes, over "
                f"the {mem}-byte memory budget"
            )
        if self.limits.cost_per_row_seconds:
            timeout = self.limits.query_timeout_seconds
            projected = (
                self.elapsed_seconds()
                + rows * self.limits.cost_per_row_seconds
            )
            if timeout is not None and projected > timeout:
                raise QueryTimeout(
                    f"{node_name} would run ~{projected:.3f}s of charged "
                    f"work, past the {timeout:g}s deadline"
                )
        self.check()

    # -- fault injection ----------------------------------------------------------------

    def _inject_faults(self, node_name: str) -> None:
        from repro.sqldb.errors import TransientStorageError

        model, rng = self.faults, self._fault_rng
        if rng is None:
            return
        if model.slow_operator_rate and rng.random() < model.slow_operator_rate:
            self.faults_injected += 1
            # Charged, not slept: real clocks must not pay injected latency
            # twice, and simulated clocks see it as deterministic elapsed time.
            self._charged_seconds += float(
                rng.uniform(0.0, model.slow_operator_seconds)
            )
        if (
            model.storage_error_rate
            and node_name in SCAN_NODES
            and rng.random() < model.storage_error_rate
        ):
            self.faults_injected += 1
            raise TransientStorageError(
                f"injected transient storage fault during {node_name}"
            )
        if model.cancel_rate and rng.random() < model.cancel_rate:
            self.faults_injected += 1
            self.cancel("injected spurious cancellation")

    def stats(self) -> dict:
        return {
            "rows_processed": self.rows_processed,
            "peak_bytes": self.peak_bytes,
            "elapsed_seconds": self.elapsed_seconds(),
            "faults_injected": self.faults_injected,
            "cancelled": self._cancelled,
        }


# -- ambient installation ------------------------------------------------------------

_ACTIVE: ContextVar = ContextVar("repro_governor", default=None)


def current_governor() -> QueryGovernor | None:
    """The governor of the calling context, or None (ungoverned)."""
    return _ACTIVE.get()


@contextmanager
def use_governor(governor: QueryGovernor | None):
    """Install *governor* as the ambient governor for the enclosed block."""
    token = _ACTIVE.set(governor)
    try:
        yield governor
    finally:
        _ACTIVE.reset(token)
