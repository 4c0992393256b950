"""Layer spans recorded from outside the program.

The tracer wraps the public entry points of each ``repro`` layer (see
``layer_hooks``) for the duration of a traced run and restores every
original afterwards.  Each wrapped call is one span: its duration, minus
the part covered by spans it opened itself on the same thread, is the
layer's *self time*.  Spans nest on a per-thread stack, so the self times
of all spans on one thread add up to the time covered by that thread's
outermost spans; whatever the thread did outside any span is unattributed.

Counts that make ratios (tokens, rows, bytes, useful observations) are
taken from each call's arguments and result by an ``after`` hook that runs
once the span has closed.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Hook:
    """One wrapped attribute: ``owner.attr`` becomes a span of ``layer``."""

    owner: object  # a class or a module
    attr: str
    layer: str | None  # None: count through *after* only, open no span
    after: Callable | None = None  # (tracer, args, result) -> None


class LayerStats:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class _ThreadRecord:
    """One thread's open-span stack and totals (touched only by that
    thread while it runs; read by the reporter once it is done)."""

    __slots__ = ("name", "stack", "stats", "root_s", "paused")

    def __init__(self, name: str) -> None:
        self.name = name
        self.paused = False  # the benchmark's own checks run untraced
        self.stack: list[list[float]] = []  # [start, seconds covered by children]
        self.stats: dict[str, LayerStats] = {}
        self.root_s = 0.0  # time covered by this thread's outermost spans


class Tracer:
    """Aggregates spans per layer and per thread; safe across threads."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadRecord] = []
        self._counters: dict[str, float] = {}
        self._kept: dict[str, list] = {}
        self._originals: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def _record(self) -> _ThreadRecord:
        record = getattr(self._local, "record", None)
        if record is None:
            record = _ThreadRecord(threading.current_thread().name)
            self._local.record = record
            with self._lock:
                self._threads.append(record)
        return record

    def wrap(self, fn: Callable, layer: str | None, after: Callable | None = None):
        clock = time.perf_counter
        tracer = self

        if layer is None:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(tracer, args, result)
                return result

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = tracer._record()
            if record.paused:
                return fn(*args, **kwargs)
            stack = record.stack
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                else:
                    record.root_s += duration
                entry = record.stats.get(layer)
                if entry is None:
                    entry = record.stats[layer] = LayerStats()
                entry.calls += 1
                entry.total_s += duration
                entry.self_s += duration - frame[1]
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Open no spans on this thread inside the block."""
        record = self._record()
        record.paused = True
        try:
            yield
        finally:
            record.paused = False

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0.0)

    def keep(self, name: str, value) -> None:
        """Hold *value* for reading once the run is over."""
        with self._lock:
            self._kept.setdefault(name, []).append(value)

    def kept(self, name: str) -> list:
        with self._lock:
            return list(self._kept.get(name, ()))

    # -- install / restore ----------------------------------------------------------

    def install(self, hooks) -> None:
        """Replace every hooked attribute with its traced wrapper."""
        for hook in hooks:
            original = vars(hook.owner)[hook.attr]  # only attributes defined there
            self._originals.append((hook.owner, hook.attr, original))
            setattr(hook.owner, hook.attr, self.wrap(original, hook.layer, hook.after))

    def restore(self) -> None:
        """Put every original back and check it by identity."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"failed to restore {owner!r}.{attr}")

    # -- reading ---------------------------------------------------------------------

    def _selected(self, thread_prefix: str | None) -> list[_ThreadRecord]:
        with self._lock:
            threads = list(self._threads)
        return [
            t for t in threads
            if thread_prefix is None or t.name.startswith(thread_prefix)
        ]

    def layers(self) -> dict[str, LayerStats]:
        """Per-layer totals over all threads."""
        merged: dict[str, LayerStats] = {}
        for record in self._selected(None):
            for layer, entry in record.stats.items():
                total = merged.setdefault(layer, LayerStats())
                total.calls += entry.calls
                total.total_s += entry.total_s
                total.self_s += entry.self_s
        return merged

    def root_seconds(self, thread_prefix: str | None = None) -> float:
        """Time covered by outermost spans: the sum of all self times."""
        return sum(r.root_s for r in self._selected(thread_prefix))


@contextlib.contextmanager
def tracing(hooks):
    """``with tracing(hooks) as tracer:`` install the hooks, and restore
    every original however the block ends."""
    tracer = Tracer()
    try:
        tracer.install(hooks)
        yield tracer
    finally:
        tracer.restore()


# -- the layer table ------------------------------------------------------------------


def _after_llm(tracer: Tracer, args, response) -> None:
    tracer.count("llm.prompt_tokens", response.prompt_tokens)
    tracer.count("llm.completion_tokens", response.completion_tokens)


def _after_profile(tracer: Tracer, args, profile) -> None:
    tracer.count("core.profile.observations", len(profile.observations))
    tracer.count(
        "core.profile.evaluations", len(profile.observations) + profile.errors
    )


def _after_search(tracer: Tracer, args, result) -> None:
    tracer.count("core.search.kept", len(result.queries))
    tracer.count("core.search.evaluations", result.evaluations)
    tracer.count("core.search.final_distance", result.final_distance)
    tracer.count("core.search.runs")


def _after_execute(tracer: Tracer, args, result) -> None:
    tracer.count("sqldb.execute.rows", result.row_count)


def _after_checkpoint(tracer: Tracer, args, path) -> None:
    tracer.count("checkpoint.bytes", path.stat().st_size)


def _after_encode(tracer: Tracer, args, line) -> None:
    tracer.count("serve.journal.bytes", len(line))


def _after_db_build(tracer: Tracer, args, db) -> None:
    tracer.keep("databases", db)  # read for EXPLAIN cache counters later


def layer_hooks() -> list[Hook]:
    """Every layer entry point the traced run wraps (imports deferred so
    importing this module does not import the program)."""
    from repro.bo.forest import RandomForestRegressor
    from repro.bo.optimizer import BayesianOptimizer
    from repro.core.barber import SQLBarber
    from repro.core.predicate_search import PredicateSearch
    from repro.core.profiler import TemplateProfiler
    from repro.core.refiner import TemplateRefiner
    from repro.core.template_generator import CustomizedTemplateGenerator
    from repro.datasets import registry
    from repro.fastpath.compiled import CompiledTemplate
    from repro.fuzz import runner as fuzz_runner
    from repro.llm.client import LLMClient
    from repro.resilience.checkpoint import CheckpointManager
    from repro.serve import store
    from repro.serve.client import ServeClient
    from repro.serve.runner import JobRunner
    from repro.sqldb.database import Database
    from repro.workload.distribution import CostDistribution

    return [
        Hook(LLMClient, "complete", "llm", _after_llm),
        Hook(SQLBarber, "__init__", "core.pipeline"),
        Hook(SQLBarber, "generate_workload", "core.pipeline"),
        Hook(CustomizedTemplateGenerator, "generate_many", "core.templates"),
        Hook(TemplateProfiler, "profile", "core.profile", _after_profile),
        Hook(TemplateRefiner, "refine", "core.refine"),
        Hook(PredicateSearch, "run", "core.search", _after_search),
        Hook(BayesianOptimizer, "ask", "bo.ask"),
        Hook(BayesianOptimizer, "tell", "bo.tell"),
        Hook(RandomForestRegressor, "fit", "bo.fit"),
        Hook(CostDistribution, "coverage", "workload.coverage"),
        Hook(CostDistribution, "deficits", "workload.coverage"),
        Hook(CostDistribution, "wasserstein", "workload.coverage"),
        Hook(CompiledTemplate, "explain", "fastpath.explain"),
        Hook(CompiledTemplate, "explain_many", "fastpath.explain_many"),
        Hook(Database, "plan", "sqldb.plan"),
        Hook(Database, "explain", "sqldb.explain"),
        Hook(Database, "explain_estimates", "sqldb.explain_estimates"),
        Hook(Database, "execute", "sqldb.execute", _after_execute),
        Hook(CheckpointManager, "save", "checkpoint.save", _after_checkpoint),
        Hook(ServeClient, "submit", "serve.submit"),
        Hook(store.JobStore, "append", "serve.journal.append"),
        Hook(store, "encode_record", None, _after_encode),
        Hook(fuzz_runner, "build_fuzz_database", "serve.db_build", _after_db_build),
        Hook(JobRunner, "run", "serve.job_run"),
        Hook(registry, "build_database", "datasets.build"),
    ]


#: Layers reported as ``<layer>.calls`` / ``<layer>.self_s``, in report order.
REPORTED_LAYERS = (
    "llm",
    "core.pipeline",
    "core.templates",
    "core.profile",
    "core.refine",
    "core.search",
    "bo.ask",
    "bo.tell",
    "bo.fit",
    "workload.coverage",
    "fastpath.explain",
    "fastpath.explain_many",
    "sqldb.plan",
    "sqldb.explain",
    "sqldb.explain_estimates",
    "sqldb.execute",
    "checkpoint.save",
    "serve.submit",
    "serve.journal.append",
    "serve.db_build",
    "serve.job_run",
    "datasets.build",
)
