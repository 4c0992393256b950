"""Operator-level executor profiling: plan-shaped, deterministic, mergeable.

When armed (``Telemetry(profile=True)``, or :func:`capture_profile` for a
single statement), every executed plan operator records its output rows,
invocation count, and self/cumulative wall time into an
:class:`OperatorProfile` tree that mirrors the plan — the engine's
``EXPLAIN PROFILE``.  Per-query trees are folded into an
:class:`ExecProfileCollector`, which aggregates them two ways:

* **per plan shape** — trees with the same operator signature merge, so ten
  thousand bindings of one template collapse into one tree with summed rows
  and times;
* **per operator type** — calls, rows, total self time, and a
  :class:`~repro.obs.quantiles.QuantileSketch` of per-invocation self
  times, giving p50/p95/p99 per operator.

Determinism contract: wall times are measurements and vary run to run, but
everything else — tree shapes, row counts, batch counts, query counts — is
a pure function of the executed statements.  :meth:`fingerprint` strips
the timing fields, and both aggregations are keyed and commutative, so the
fingerprint is bit-identical across reruns and across kill/resume (the
collector state rides in checkpoints).

The unarmed path costs nothing: the executor reads one context variable
per operator boundary (alongside the governor's), and no per-row callable
ever enters the hot loop.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

from .quantiles import QuantileSketch

#: Timing keys stripped from fingerprints (wall-clock, not semantic).
_TIMING_KEYS = frozenset(
    {"self_seconds", "total_seconds", "seconds", "min", "max",
     "p50", "p90", "p95", "p99"}
)


@dataclass
class OperatorProfile:
    """One plan operator's measured behaviour (possibly over many queries)."""

    node_type: str
    detail: str = ""
    est_rows: float = 0.0
    rows_out: int = 0
    batches: int = 0  # operator invocations folded into this node
    self_seconds: float = 0.0
    total_seconds: float = 0.0
    children: list["OperatorProfile"] = field(default_factory=list)

    def signature(self) -> tuple:
        """The operator subtree's shape — what aggregation keys on."""
        return (
            self.node_type,
            self.detail,
            round(self.est_rows, 6),
            tuple(child.signature() for child in self.children),
        )

    def finalize(self) -> None:
        """Compute self time = total minus children (clamped at zero)."""
        child_total = 0.0
        for child in self.children:
            child.finalize()
            child_total += child.total_seconds
        self.self_seconds = max(self.total_seconds - child_total, 0.0)

    def merge(self, other: "OperatorProfile") -> None:
        """Fold a same-shaped tree in (callers guarantee equal signatures)."""
        self.rows_out += other.rows_out
        self.batches += other.batches
        self.self_seconds += other.self_seconds
        self.total_seconds += other.total_seconds
        for mine, theirs in zip(self.children, other.children):
            mine.merge(theirs)

    def to_dict(self) -> dict:
        return {
            "operator": self.node_type,
            "detail": self.detail,
            "est_rows": self.est_rows,
            "rows_out": self.rows_out,
            "batches": self.batches,
            "self_seconds": round(self.self_seconds, 6),
            "total_seconds": round(self.total_seconds, 6),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "OperatorProfile":
        return cls(
            node_type=payload["operator"],
            detail=payload.get("detail", ""),
            est_rows=float(payload.get("est_rows", 0.0)),
            rows_out=int(payload.get("rows_out", 0)),
            batches=int(payload.get("batches", 0)),
            self_seconds=float(payload.get("self_seconds", 0.0)),
            total_seconds=float(payload.get("total_seconds", 0.0)),
            children=[cls.from_dict(c) for c in payload.get("children", [])],
        )

    def iter_nodes(self):
        yield self
        for child in self.children:
            yield from child.iter_nodes()


class ProfileRun:
    """Builds the operator tree(s) of one executed statement.

    Uncorrelated subqueries execute before the main plan root and become
    separate roots, in execution order; the main plan's root is last.
    """

    __slots__ = ("roots", "_stack", "clock")

    def __init__(self, clock=time.perf_counter):
        self.roots: list[OperatorProfile] = []
        self._stack: list[OperatorProfile] = []
        self.clock = clock

    def enter(self, node) -> tuple[OperatorProfile, float]:
        """Open a profile node for *node* (a plan node); returns (op, t0)."""
        profile = OperatorProfile(
            node_type=node.node_type,
            detail=node.describe(),
            est_rows=float(node.est_rows),
        )
        if self._stack:
            self._stack[-1].children.append(profile)
        else:
            self.roots.append(profile)
        self._stack.append(profile)
        return profile, self.clock()

    def exit(self, profile: OperatorProfile, started: float, rows: int) -> None:
        profile.total_seconds += self.clock() - started
        profile.rows_out += rows
        # The executor materializes each operator's output in one step, so
        # every invocation is one batch.
        profile.batches += 1
        self._stack.pop()

    def finalize(self) -> list[OperatorProfile]:
        for root in self.roots:
            root.finalize()
        return self.roots


def render_profile(roots: list[OperatorProfile] | OperatorProfile) -> str:
    """``EXPLAIN PROFILE``-style text for one query's operator tree(s)."""
    if isinstance(roots, OperatorProfile):
        roots = [roots]
    lines: list[str] = []
    # Main plan first, subquery roots after (they executed first but read
    # better below the plan, like EXPLAIN's SubPlan sections).
    ordered = roots[-1:] + roots[:-1] if roots else []
    for index, root in enumerate(ordered):
        if index:
            lines.append(f"  SubPlan {index}")
        _render_node(root, lines, depth=2 if index else 0)
    return "\n".join(lines)


def _render_node(node: OperatorProfile, lines: list[str], depth: int) -> None:
    indent = "  " * depth
    detail = f" {node.detail}" if node.detail else ""
    lines.append(
        f"{indent}{node.node_type}{detail}  "
        f"(est_rows={max(round(node.est_rows), 0)} rows={node.rows_out} "
        f"batches={node.batches} self={node.self_seconds * 1e3:.3f}ms "
        f"total={node.total_seconds * 1e3:.3f}ms)"
    )
    for child in node.children:
        _render_node(child, lines, depth + 1)


class ExecProfileCollector:
    """Aggregates per-query operator trees; thread-safe and mergeable."""

    def __init__(self):
        self._lock = threading.Lock()
        self._queries = 0
        # signature -> (merged tree, query count); insertion order is
        # irrelevant — snapshots sort by signature.
        self._trees: dict[tuple, tuple[OperatorProfile, int]] = {}
        self._operators: dict[str, dict] = {}

    # -- recording ------------------------------------------------------------

    def record(self, roots: list[OperatorProfile]) -> None:
        """Fold one executed query's finalized tree(s) into the aggregate.

        Multi-root queries (uncorrelated subplans) are combined into one
        synthetic ``Query`` tree *before* keying, so a checkpoint-restored
        collector (whose state stores one tree per plan) aggregates new
        occurrences under the same key as an uninterrupted run.
        """
        if not roots:
            return
        tree = roots[0] if len(roots) == 1 else _combine_roots(roots)
        signature = tree.signature()
        with self._lock:
            self._queries += 1
            entry = self._trees.get(signature)
            if entry is None:
                self._trees[signature] = (tree, 1)
            else:
                mine, count = entry
                mine.merge(tree)
                self._trees[signature] = (mine, count + 1)
            for root in roots:
                for node in root.iter_nodes():
                    self._observe_operator(node)

    def _observe_operator(self, node: OperatorProfile) -> None:
        agg = self._operators.get(node.node_type)
        if agg is None:
            agg = self._operators[node.node_type] = {
                "calls": 0,
                "rows": 0,
                "self_seconds": 0.0,
                "sketch": QuantileSketch(),
            }
        agg["calls"] += node.batches
        agg["rows"] += node.rows_out
        agg["self_seconds"] += node.self_seconds
        agg["sketch"].observe(node.self_seconds)

    # -- merging ----------------------------------------------------------------

    def merge(self, other: "ExecProfileCollector") -> None:
        with self._lock:
            self._queries += other._queries
            for signature, (tree, count) in other._trees.items():
                entry = self._trees.get(signature)
                if entry is None:
                    self._trees[signature] = (tree, count)
                else:
                    mine, mine_count = entry
                    mine.merge(tree)
                    self._trees[signature] = (mine, mine_count + count)
            for op, agg in other._operators.items():
                mine = self._operators.get(op)
                if mine is None:
                    self._operators[op] = agg
                else:
                    mine["calls"] += agg["calls"]
                    mine["rows"] += agg["rows"]
                    mine["self_seconds"] += agg["self_seconds"]
                    mine["sketch"].merge(agg["sketch"])

    # -- reading ---------------------------------------------------------------

    @property
    def queries(self) -> int:
        return self._queries

    def snapshot(self) -> dict:
        """Deterministically ordered aggregate (timings included)."""
        with self._lock:
            operators = {}
            for op in sorted(self._operators):
                agg = self._operators[op]
                sketch = agg["sketch"].snapshot()
                operators[op] = {
                    "calls": agg["calls"],
                    "rows": agg["rows"],
                    "self_seconds": round(agg["self_seconds"], 6),
                    "p50": sketch["p50"],
                    "p95": sketch["p95"],
                    "p99": sketch["p99"],
                }
            plans = [
                {"queries": count, "plan": tree.to_dict()}
                for _, (tree, count) in sorted(
                    self._trees.items(), key=lambda item: repr(item[0])
                )
            ]
            return {
                "queries": self._queries,
                "operators": operators,
                "plans": plans,
            }

    def fingerprint(self) -> dict:
        """The snapshot minus wall-clock fields — the determinism surface."""
        return _strip_timings(self.snapshot())

    # -- checkpoint transport ---------------------------------------------------

    def to_state(self) -> dict:
        return self.snapshot()

    @classmethod
    def from_state(cls, state: dict) -> "ExecProfileCollector":
        collector = cls()
        collector._queries = int(state.get("queries", 0))
        for entry in state.get("plans", []):
            tree = OperatorProfile.from_dict(entry["plan"])
            collector._trees[tree.signature()] = (tree, int(entry["queries"]))
        for op, agg in state.get("operators", {}).items():
            sketch = QuantileSketch()
            # Per-invocation samples cannot be reconstructed from a summary;
            # seed the sketch with the mean so counts stay exact and the
            # post-restore stream dominates the percentiles.
            calls = int(agg["calls"])
            mean = (agg["self_seconds"] / calls) if calls else 0.0
            for _ in range(calls):
                sketch.observe(mean)
            collector._operators[op] = {
                "calls": calls,
                "rows": int(agg["rows"]),
                "self_seconds": float(agg["self_seconds"]),
                "sketch": sketch,
            }
        return collector


def _combine_roots(roots: list[OperatorProfile]) -> OperatorProfile:
    """Wrap a multi-root query (subplans) in one synthetic Query node."""
    total = sum(root.total_seconds for root in roots)
    return OperatorProfile(
        node_type="Query",
        est_rows=roots[-1].est_rows,
        rows_out=roots[-1].rows_out,
        batches=1,
        total_seconds=total,
        children=list(roots),
    )


def _strip_timings(value):
    if isinstance(value, dict):
        return {
            key: _strip_timings(inner)
            for key, inner in value.items()
            if key not in _TIMING_KEYS
        }
    if isinstance(value, list):
        return [_strip_timings(item) for item in value]
    return value


# -- the ambient arming points (read by the executor) --------------------------

#: The in-flight ProfileRun of the current statement (nested execute()
#: calls — subqueries, UNION branches — join it instead of starting anew).
ACTIVE_RUN: ContextVar = ContextVar("repro_obs_profile_run", default=None)

#: A single-statement capture target that outranks the telemetry collector.
_CAPTURE: ContextVar = ContextVar("repro_obs_profile_capture", default=None)


class _Capture:
    """Holds the profile of the one statement executed under capture."""

    def __init__(self):
        self.roots: list[OperatorProfile] | None = None

    def record(self, roots: list[OperatorProfile]) -> None:
        self.roots = roots

    @property
    def profile(self) -> OperatorProfile | None:
        """The main plan's tree (the last root; subqueries precede it)."""
        return self.roots[-1] if self.roots else None

    def render(self) -> str:
        return render_profile(self.roots or [])


def capture_target():
    """Where the executor should record profiles, or None when unarmed."""
    capture = _CAPTURE.get()
    if capture is not None:
        return capture
    from .telemetry import current

    return current().profiler


@contextmanager
def capture_profile():
    """Arm single-statement profiling for the enclosed block.

    Yields a capture whose ``.profile`` / ``.render()`` expose the operator
    tree of the (last) statement executed inside the block.
    """
    capture = _Capture()
    token = _CAPTURE.set(capture)
    try:
        yield capture
    finally:
        _CAPTURE.reset(token)
