"""In-process event bus: structured pipeline progress, streamed live.

Spans describe a run *after the fact*; the event bus describes it *while it
happens*.  Instrumented code calls ``telemetry.event("stage_started",
stage="profile")`` and every subscriber — the JSONL trace sink, the
``repro generate --progress`` TTY renderer, a future serve layer — receives
the structured payload immediately.

Determinism contract: an event's *payload* is derived purely from pipeline
data (template ids, row counts, stage names), never from wall clocks or
thread identity; the envelope adds a monotonically increasing ``seq``.  The
fingerprinted stream (see :func:`event_fingerprint`) is therefore
bit-identical across reruns of the same seeded run.
"""

from __future__ import annotations

import sys
import threading

#: Envelope/payload keys that carry wall-clock or host-local values; the
#: fingerprint strips them so streams compare across runs and machines.
NONDETERMINISTIC_KEYS = frozenset(
    {"seconds", "duration_s", "start_s", "elapsed_seconds", "path",
     "self_seconds", "total_seconds", "p50", "p90", "p95", "p99",
     "min", "max", "mean", "sum"}
)


def event_fingerprint(events: list[dict]) -> list[dict]:
    """The deterministic projection of an event stream.

    Keeps ``event`` payloads only (spans and metrics snapshots have their
    own determinism stories) and strips wall-clock fields recursively.
    """
    return [
        _strip(event)
        for event in events
        if event.get("type") == "event"
    ]


def _strip(value):
    if isinstance(value, dict):
        return {
            key: _strip(inner)
            for key, inner in value.items()
            if key not in NONDETERMINISTIC_KEYS
        }
    if isinstance(value, list):
        return [_strip(item) for item in value]
    return value


class EventBus:
    """Fan-out of event dicts to subscriber callables; thread-safe.

    A subscriber is any callable taking one event dict.  Subscriber errors
    are contained: a crashing progress renderer must not kill the pipeline,
    so exceptions are swallowed after detaching the offender.
    """

    def __init__(self, subscribers=()):
        self._lock = threading.Lock()
        self._subscribers: list = [s for s in subscribers if s is not None]

    def subscribe(self, subscriber) -> None:
        with self._lock:
            self._subscribers.append(subscriber)

    def unsubscribe(self, subscriber) -> None:
        with self._lock:
            if subscriber in self._subscribers:
                self._subscribers.remove(subscriber)

    def __len__(self) -> int:
        return len(self._subscribers)

    def publish(self, event: dict) -> None:
        with self._lock:
            subscribers = list(self._subscribers)
        for subscriber in subscribers:
            try:
                subscriber(event)
            except Exception:
                self.unsubscribe(subscriber)


class ProgressRenderer:
    """Line-based live progress for ``repro generate --progress``.

    Deliberately plain (one line per event, no cursor control) so it works
    on dumb terminals and in CI logs alike.  Subscribe its ``__call__`` to
    an :class:`EventBus`.
    """

    #: Events worth a line on a terminal (the rest stay in the trace).
    INTERESTING = frozenset(
        {"stage_started", "stage_finished", "template_profiled",
         "template_quarantined", "checkpoint_saved", "llm_retry",
         "cache_stats", "profile_summary"}
    )

    def __init__(self, stream=None, verbose: bool = False):
        self._stream = stream if stream is not None else sys.stderr
        self._verbose = verbose

    def __call__(self, event: dict) -> None:
        if event.get("type") != "event":
            return
        name = event.get("event", "")
        if not self._verbose and name not in self.INTERESTING:
            return
        line = self._format(name, event)
        if line:
            print(line, file=self._stream, flush=True)

    def _format(self, name: str, event: dict) -> str:
        if name == "stage_started":
            return f"[{event.get('stage', '?')}] started"
        if name == "stage_finished":
            seconds = event.get("seconds")
            suffix = f" in {seconds:.2f}s" if isinstance(seconds, (int, float)) else ""
            return f"[{event.get('stage', '?')}] finished{suffix}"
        if name == "template_profiled":
            return (
                f"  profiled {event.get('template_id', '?')}: "
                f"{event.get('queries', 0)} queries, "
                f"{event.get('errors', 0)} errors"
            )
        if name == "template_quarantined":
            return (
                f"  quarantined {event.get('template_id', '?')}: "
                f"{event.get('reason', '?')}"
            )
        if name == "checkpoint_saved":
            return (
                f"  checkpoint: {event.get('templates_done', '?')} template(s) done"
            )
        if name == "llm_retry":
            return (
                f"  retry {event.get('task', '?')} "
                f"attempt {event.get('attempt', '?')}: {event.get('error', '?')}"
            )
        if name == "cache_stats":
            return (
                f"  explain cache: {event.get('hits', 0)} hits / "
                f"{event.get('misses', 0)} misses"
            )
        if name == "profile_summary":
            return (
                f"  operator profile: {event.get('queries', 0)} queries across "
                f"{event.get('operators', 0)} operator type(s)"
            )
        # Verbose mode: render anything else generically.
        payload = {
            k: v for k, v in event.items()
            if k not in {"type", "event", "seq"}
        }
        body = " ".join(f"{k}={v}" for k, v in sorted(payload.items()))
        return f"  {name} {body}".rstrip()
