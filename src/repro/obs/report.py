"""Offline trace analysis: the ``repro trace-report`` implementation.

Consumes a JSONL trace file written by :class:`~repro.obs.sinks.JsonlSink`
and renders the paper-style breakdown — where time, LLM tokens, and engine
calls went, per pipeline stage and per LLM task.
"""

from __future__ import annotations

from .sinks import read_events

STAGE_PREFIX = "stage:"
ROOT_SPAN = "generate_workload"

# Substrate deltas the pipeline attaches to every stage span.
_STAGE_FIELDS = ("llm_calls", "llm_tokens", "db_calls")


def _format_table(rows: list[dict], title: str | None = None) -> str:
    if not rows:
        return "(no rows)"
    headers = list(rows[0].keys())
    widths = {
        h: max(len(str(h)), *(len(str(r.get(h, ""))) for r in rows))
        for h in headers
    }
    lines = [title] if title else []
    lines.append(" | ".join(f"{h:<{widths[h]}}" for h in headers))
    lines.append("-+-".join("-" * widths[h] for h in headers))
    for row in rows:
        lines.append(
            " | ".join(f"{str(row.get(h, '')):<{widths[h]}}" for h in headers)
        )
    return "\n".join(lines)


def split_events(events: list[dict]) -> tuple[list[dict], dict]:
    """Partition a trace into (span events, final metrics snapshot)."""
    spans = [e for e in events if e.get("type") == "span"]
    metrics: dict = {}
    for event in events:
        if event.get("type") == "metrics":
            metrics = event.get("metrics", {})
    return spans, metrics


def _stage_spans(spans: list[dict]) -> list[dict]:
    """The last run's stage spans (orphans accepted on degenerate traces)."""
    roots = [s for s in spans if s["name"] == ROOT_SPAN]
    if roots:
        root = roots[-1]
        return [
            s
            for s in spans
            if s.get("parent_id") == root["span_id"]
            and s["name"].startswith(STAGE_PREFIX)
        ]
    return [s for s in spans if s["name"].startswith(STAGE_PREFIX)]


def stage_rows(spans: list[dict]) -> list[dict]:
    """Per-stage breakdown rows from the stage spans of the last run."""
    stages = _stage_spans(spans)
    rows = []
    for span in stages:
        attrs = span.get("attributes", {})
        row = {
            "stage": span["name"][len(STAGE_PREFIX):],
            "seconds": round(span.get("duration_s", 0.0), 3),
        }
        for key in _STAGE_FIELDS:
            row[key] = int(attrs.get(key, 0))
        rows.append(row)
    if rows:
        total = {"stage": "total",
                 "seconds": round(sum(r["seconds"] for r in rows), 3)}
        for key in _STAGE_FIELDS:
            total[key] = sum(r[key] for r in rows)
        rows.append(total)
    return rows


def task_rows(metrics: dict) -> list[dict]:
    """Per-LLM-task call/token rows (the Table-2 shape) from the counters."""
    counters = metrics.get("counters", {})
    tasks: dict[str, dict] = {}

    def bucket(task: str) -> dict:
        return tasks.setdefault(
            task, {"task": task, "calls": 0, "prompt_tokens": 0,
                   "completion_tokens": 0}
        )

    for key, value in counters.items():
        for name, column in (
            ("llm.calls{task=", "calls"),
            ("llm.tokens.prompt{task=", "prompt_tokens"),
            ("llm.tokens.completion{task=", "completion_tokens"),
        ):
            if key.startswith(name):
                task = key[len(name):].rstrip("}")
                bucket(task)[column] += int(value)
    rows = sorted(tasks.values(), key=lambda r: -r["prompt_tokens"])
    if rows:
        rows.append({
            "task": "total",
            "calls": sum(r["calls"] for r in rows),
            "prompt_tokens": sum(r["prompt_tokens"] for r in rows),
            "completion_tokens": sum(r["completion_tokens"] for r in rows),
        })
    return rows


# Governor deltas attached to stage spans (only when non-zero, so traces
# from governor-free runs carry none of these keys).
_GOVERNOR_FIELDS = (
    ("governor_strikes", "strikes"),
    ("governor_quarantines", "quarantines"),
)


def governor_rows(spans: list[dict]) -> list[dict]:
    """Per-stage resource-governance rows; empty when the governor never
    acted (the section is omitted entirely for such traces)."""
    rows = []
    for span in _stage_spans(spans):
        attrs = span.get("attributes", {})
        if not any(key.startswith("governor_") for key in attrs):
            continue
        row = {"stage": span["name"][len(STAGE_PREFIX):]}
        for key, column in _GOVERNOR_FIELDS:
            row[column] = int(attrs.get(key, 0))
        row["peak_bytes"] = int(attrs.get("governor_peak_bytes", 0))
        rows.append(row)
    return rows


def render_report(events: list[dict]) -> str:
    """The full human-readable report for one trace."""
    spans, metrics = split_events(events)
    sections: list[str] = []
    roots = [s for s in spans if s["name"] == ROOT_SPAN]
    if roots:
        root = roots[-1]
        sections.append(
            f"run: {ROOT_SPAN} elapsed={root.get('duration_s', 0.0):.3f}s "
            f"spans={len(spans)}"
        )
    rows = stage_rows(spans)
    if rows:
        sections.append(_format_table(rows, title="Per-stage breakdown"))
    else:
        sections.append("(no stage spans in trace)")
    tasks = task_rows(metrics)
    if tasks:
        sections.append(_format_table(tasks, title="LLM usage by task"))
    counters = metrics.get("counters", {})
    engine = {
        key: value
        for key, value in counters.items()
        if key.startswith("sqldb.")
    }
    if engine:
        sections.append(_format_table(
            [{"counter": k, "value": int(v)} for k, v in sorted(engine.items())],
            title="Engine counters",
        ))
    governor = governor_rows(spans)
    if governor:
        sections.append(_format_table(governor, title="Resource governance"))
    governor_counters = {
        key: value
        for key, value in counters.items()
        if key.startswith("governor.")
    }
    if governor_counters:
        sections.append(_format_table(
            [
                {"counter": k, "value": int(v)}
                for k, v in sorted(governor_counters.items())
            ],
            title="Governor counters",
        ))
    return "\n\n".join(sections)


def render_report_file(path: str) -> str:
    return render_report(read_events(path))


# -- perf report (the ``repro perf-report`` implementation) --------------------


def _quantile_columns(snapshot: dict) -> dict:
    columns = {}
    for q in ("p50", "p95", "p99"):
        value = snapshot.get(q)
        columns[q] = round(value, 6) if isinstance(value, (int, float)) else ""
    return columns


def latency_rows(metrics: dict) -> list[dict]:
    """Per-histogram tail-latency rows (p50/p95/p99) from the snapshot."""
    rows = []
    for key, snapshot in metrics.get("histograms", {}).items():
        rows.append({
            "metric": key,
            "count": snapshot.get("count", 0),
            "mean": round(snapshot.get("mean", 0.0), 6),
            **_quantile_columns(snapshot),
        })
    return rows


def perf_stage_rows(spans: list[dict]) -> list[dict]:
    """Per-stage timing rows — all runs in the trace, so resumed/chaos
    traces show every attempt's stages."""
    rows = []
    for span in spans:
        if not span["name"].startswith(STAGE_PREFIX):
            continue
        rows.append({
            "stage": span["name"][len(STAGE_PREFIX):],
            "seconds": round(span.get("duration_s", 0.0), 3),
        })
    return rows


def operator_rows(events: list[dict]) -> list[dict]:
    """Per-operator rows from the last ``profile`` record in the trace."""
    profile: dict = {}
    for event in events:
        if event.get("type") == "profile":
            profile = event.get("profile", {})
    rows = []
    for op, agg in profile.get("operators", {}).items():
        rows.append({
            "operator": op,
            "calls": agg.get("calls", 0),
            "rows": agg.get("rows", 0),
            "self_seconds": round(agg.get("self_seconds", 0.0), 6),
            **_quantile_columns(agg),
        })
    rows.sort(key=lambda r: (-r["self_seconds"], r["operator"]))
    return rows


def render_perf_report(events: list[dict]) -> str:
    """Tail-latency-centric view of a trace: per stage, per operator, and
    per latency histogram, with p50/p95/p99 where sketches exist."""
    spans, metrics = split_events(events)
    sections: list[str] = []
    stages = perf_stage_rows(spans)
    if stages:
        sections.append(_format_table(stages, title="Stage timings"))
    operators = operator_rows(events)
    if operators:
        sections.append(_format_table(
            operators, title="Operator profile (self time, seconds)"
        ))
    latencies = latency_rows(metrics)
    if latencies:
        sections.append(_format_table(
            latencies, title="Latency quantiles (seconds)"
        ))
    if not sections:
        return "(trace carries no stage spans, operator profile, or histograms)"
    return "\n\n".join(sections)


def render_perf_report_file(path: str) -> str:
    return render_perf_report(read_events(path))
