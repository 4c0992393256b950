"""The benchmark's three workloads and their seeded inputs.

Each workload is a closed loop of small, independent generation requests.
One request's run time depends strongly on its inputs (whether the
templates the LLM writes can reach every target interval), so only a
batch of requests gives a figure that is stable from seed to seed.  The
batch is a pure function of ``(seed, seconds)``: ``seconds`` fixes the
request count through the workload's nominal rate, and request *i* draws
its target histogram and its pipeline seed from
``SeedSequence([salt, seed, i])``.  The program sees only those inputs.

The two generate workloads call :meth:`SQLBarber.generate_workload` on one
database per run.  Its EXPLAIN cache is cleared before every request and
compiled templates live in the per-request profiler, so each request
starts cold, like a fresh ``repro generate``.  ``serve_small_jobs`` submits
jobs over HTTP to an in-process :class:`BackgroundServer` whose
write-ahead journal is on, from two closed-loop client threads.
"""

from __future__ import annotations

import contextlib
import hashlib
import resource
import shutil
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core import BarberConfig, SQLBarber
from repro.datasets import COST_RANGE, fleet_samples, registry
from repro.serve import (
    BackgroundServer,
    ServeClient,
    ServeConfig,
    ServeCore,
    ServeServer,
    TenantQuota,
)
from repro.workload import CostDistribution, TemplateSpec

from tracer import REPORTED_LAYERS, layer_hooks, tracing

#: Requests re-run from scratch after the timed loop to check fingerprints.
REFERENCE_REQUESTS = 2


@dataclass(frozen=True)
class GenerateWorkload:
    name: str
    salt: int
    database: str
    scale: float | None
    shape: str  # fleet model of the target histogram
    cost_type: str
    num_joins: int  # the request's one template spec
    queries: int
    intervals: int
    requests_per_second: float  # nominal rate on a 2-CPU machine
    # Upper end of the target cost range.  The fleet shape is rescaled from
    # the paper's [0, 10k] so that a small database can reach it.
    cost_upper: float = COST_RANGE[1]
    row_budget: int | None = None
    setup_repeats: int = 3  # set-ups per run; ``setup_s`` is their median


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    salt: int
    workers: int
    clients: int
    queries: int
    intervals: int
    num_joins: int
    requests_per_second: float
    # Plan-cost range [0, cost_max] of every job: one the fuzz database's
    # one-join templates reach, so jobs complete and their latency is
    # unimodal.
    cost_max: float
    # A service starts in milliseconds, so more set-ups steady the median.
    setup_repeats: int = 15


WORKLOADS = {
    w.name: w
    for w in (
        # EXPLAIN-costed generation on IMDB: LLM, profiling, BO search and
        # the fastpath planner; nothing executes.
        GenerateWorkload(
            name="plan_cost",
            salt=101,
            database="imdb",
            scale=None,
            shape="redset_cost",
            cost_type="plan_cost",
            num_joins=2,
            queries=10,
            intervals=2,
            requests_per_second=12.5,
        ),
        # Execution-costed generation on a small TPC-H: every candidate runs
        # through the executor, and the fastpath and EXPLAIN cache are
        # bypassed.  Single-table templates and a row budget bound one
        # request's execution time.
        GenerateWorkload(
            name="actual_rows",
            salt=202,
            database="tpch",
            scale=0.0003,
            shape="snowset_card_1",
            cost_type="actual_rows",
            num_joins=0,
            queries=8,
            intervals=2,
            requests_per_second=6.0,
            cost_upper=300.0,
            row_budget=50_000,
            setup_repeats=15,  # a small TPC-H builds in milliseconds
        ),
        # The job service: a database built per job, a checkpoint after
        # every template, journaled transitions, HTTP submit and polling.
        ServeWorkload(
            name="serve_small_jobs",
            salt=303,
            workers=2,
            clients=2,
            queries=8,
            intervals=2,
            num_joins=1,
            requests_per_second=16.0,
            cost_max=100.0,
        ),
    )
}


def request_seed(salt: int, seed: int, index: int) -> int:
    return int(np.random.SeedSequence([salt, seed, index]).generate_state(1)[0] >> 1)


def request_count(workload, seconds: float) -> int:
    return max(int(round(workload.requests_per_second * seconds)), 2)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def quantile(values: list[float], q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


# -- generate workloads ------------------------------------------------------------------


@dataclass
class GenerateRequest:
    specs: list
    distribution: CostDistribution
    config: BarberConfig


def generate_requests(workload: GenerateWorkload, seed: int, count: int):
    scale = workload.cost_upper / COST_RANGE[1]
    requests = []
    for index in range(count):
        sub = request_seed(workload.salt, seed, index)
        requests.append(
            GenerateRequest(
                specs=[TemplateSpec(spec_id="spec", num_joins=workload.num_joins)],
                distribution=CostDistribution.from_samples(
                    fleet_samples(workload.shape, n=5000, seed=sub) * scale,
                    0.0,
                    workload.cost_upper,
                    workload.queries,
                    workload.intervals,
                    name=f"{workload.shape}-{index}",
                    cost_type=workload.cost_type,
                ),
                config=BarberConfig(seed=sub, row_budget=workload.row_budget),
            )
        )
    return requests


def build_db(workload: GenerateWorkload):
    # Looked up on the module at call time so that a traced run sees the hook.
    return registry.build_database(
        workload.database, scale=workload.scale, cached=False
    )


def timed_setup(workload: GenerateWorkload) -> tuple[float, object]:
    """Build the database and the pipeline facade: the user's set-up."""
    started = time.perf_counter()
    db = build_db(workload)
    SQLBarber(db, config=BarberConfig())
    return time.perf_counter() - started, db


def generate(db, request: GenerateRequest):
    db.explain_cache.clear()
    barber = SQLBarber(db, config=request.config)
    return barber.generate_workload(request.specs, request.distribution)


def summarize(request: GenerateRequest, result) -> dict:
    """The request's outcome; ``error`` names the first output check that
    failed (an aborted run, a cost out of range, an overfilled interval)."""
    dist = request.distribution
    costs = [q.cost for q in result.workload.queries]
    counts = [0] * dist.num_intervals
    error = f"aborted: {result.abort_reason}" if result.aborted else None
    for cost in costs:
        interval = dist.interval_of(cost)
        if interval is None:
            error = error or f"kept cost {cost} is out of range"
        else:
            counts[interval] += 1
    if any(have > want for have, want in zip(counts, dist.target_counts)):
        error = error or "overfilled an interval"
    return {
        "error": error,
        "fingerprint": digest(result.fingerprint_json()),
        "generated": len(costs),
        "target": dist.total_queries,
        "tokens": int(result.llm_usage.get("total_tokens", 0)),
        "queries": [(q.sql, q.cost) for q in result.workload.queries],
    }


def run_generate_pass(workload, requests, tracer=None) -> dict:
    """Set up once, then run every request cold.

    ``wall_s`` covers the set-up and the request segments only; the output
    checks run outside it (and untraced), so the traced and untraced walls
    measure the same work.
    """
    setup_s, db = timed_setup(workload)
    walls, outcomes = [], []
    for request in requests:
        started = time.perf_counter()
        result = generate(db, request)
        walls.append(time.perf_counter() - started)
        with tracer.paused() if tracer is not None else contextlib.nullcontext():
            outcomes.append(summarize(request, result))
    cache = db.explain_cache.stats()  # cumulative: clear() keeps the counters
    return {
        "setup_s": setup_s,
        "walls": walls,
        "wall_s": setup_s + sum(walls),
        "outcomes": outcomes,
        "cache_hits": cache["hits"],
        "cache_misses": cache["misses"],
    }


def warm_up(workload: GenerateWorkload, requests) -> None:
    """One untimed request first, so imports and first-call work are paid
    before any pass is timed."""
    generate(build_db(workload), requests[0])


def recost(workload: GenerateWorkload, db, sql: str) -> float:
    if workload.cost_type == "actual_rows":
        return float(db.execute(sql).row_count)
    return float(db.explain(sql).total_cost)


def check_reference(workload: GenerateWorkload, requests, outcomes) -> int:
    """Re-run the first requests on a fresh database: the fingerprints must
    repeat, and every kept query must re-cost to its recorded cost."""
    mismatches = 0
    db = build_db(workload)
    for request, outcome in zip(requests[:REFERENCE_REQUESTS], outcomes):
        again = summarize(request, generate(db, request))
        if again["error"] or again["fingerprint"] != outcome["fingerprint"]:
            mismatches += 1
            continue
        fresh = build_db(workload)
        if any(recost(workload, fresh, sql) != cost for sql, cost in outcome["queries"]):
            mismatches += 1
    return mismatches


def run_generate(workload: GenerateWorkload, seed: int, seconds: float, trace: bool):
    count = request_count(workload, seconds)
    if trace:
        return trace_generate(workload, seed, count)
    requests = generate_requests(workload, seed, count)
    warm_up(workload, requests)
    setups = [timed_setup(workload)[0] for _ in range(workload.setup_repeats - 1)]
    measured = run_generate_pass(workload, requests)
    rss = peak_rss_mb()
    setups.append(measured["setup_s"])
    outcomes = measured["outcomes"]
    walls = measured["walls"]
    metrics = {
        "job_p50_s": (quantile(walls, 0.5), "s"),
        "jobs_per_s": (len(walls) / sum(walls), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "llm_tokens": (statistics.mean(o["tokens"] for o in outcomes), "count"),
        "generated_fraction": (
            sum(o["generated"] for o in outcomes) / sum(o["target"] for o in outcomes),
            "ratio",
        ),
        "peak_rss_mb": (rss, "MB"),
    }
    failed = sum(o["error"] is not None for o in outcomes)
    failed += check_reference(workload, requests, outcomes)
    return count, failed, metrics, [o["fingerprint"] for o in outcomes]


def trace_generate(workload: GenerateWorkload, seed: int, count: int):
    """Half the requests untraced, then the same half traced."""
    requests = generate_requests(workload, seed, max(count // 2, 2))
    warm_up(workload, requests)
    plain = run_generate_pass(workload, requests)
    with tracing(layer_hooks()) as tracer:
        traced = run_generate_pass(workload, requests, tracer)
    failed = sum(
        a["error"] is not None or a["fingerprint"] != b["fingerprint"]
        for a, b in zip(plain["outcomes"], traced["outcomes"])
    )
    metrics = layer_metrics(
        tracer,
        wall=traced["wall_s"],
        plain_wall=plain["wall_s"],
        attributed=tracer.root_seconds("MainThread"),
    )
    metrics["job_p90_s"] = (quantile(plain["walls"], 0.9), "s")
    metrics["fastpath.cache_hit_ratio"] = (
        hit_ratio(traced["cache_hits"], traced["cache_misses"]),
        "ratio",
    )
    return len(requests), failed, metrics, [o["fingerprint"] for o in traced["outcomes"]]


# -- serve workload ---------------------------------------------------------------------


def serve_payloads(workload: ServeWorkload, seed: int, count: int) -> list[dict]:
    """Small one-spec jobs: the seed sets each job's pipeline seed."""
    return [
        {
            "tenant": f"tenant-{index % workload.clients}",
            "seed": request_seed(workload.salt, seed, index),
            "specs": [{"num_joins": workload.num_joins}],
            "queries": workload.queries,
            "intervals": workload.intervals,
            "cost_max": workload.cost_max,
        }
        for index in range(count)
    ]


class Service:
    """One journaled in-process service on a fresh state directory."""

    def __init__(self, workload: ServeWorkload, root: Path):
        started = time.perf_counter()
        config = ServeConfig(
            workers=workload.workers,
            max_queue_depth=4 * workload.clients,
            default_quota=TenantQuota(
                max_concurrent_jobs=workload.workers,
                max_queued_jobs=4 * workload.clients,
            ),
            checkpoint_root=str(root / "checkpoints"),
            state_dir=str(root / "state"),
        )
        self.core = ServeCore.recover(config)
        self.background = BackgroundServer(
            ServeServer(self.core, port=0, worker_poll_seconds=0.005)
        )
        self.url = self.background.start()
        self.setup_s = time.perf_counter() - started

    def stop(self) -> list[str]:
        """Drain and stop; returns the lost-job audit (must be empty)."""
        self.background.drain_and_stop()
        return self.core.audit_lost_jobs()


def run_clients(workload: ServeWorkload, url: str, payloads: list[dict]) -> dict:
    """Each client thread sends its share of *payloads* in a closed loop."""
    results: list[dict | None] = [None] * len(payloads)
    errors: list[str] = []

    def client_loop(client_index: int) -> None:
        client = ServeClient(url, timeout_seconds=30.0)
        for index in range(client_index, len(payloads), workload.clients):
            started = time.perf_counter()
            status, body, _headers = client.submit(payloads[index])
            submit_s = time.perf_counter() - started
            if status != 202:
                errors.append(f"payload {index}: submit answered {status}")
                continue
            final = client.wait_for(body["job_id"], timeout_seconds=120.0, poll_seconds=0.02)
            results[index] = {
                "latency_s": time.perf_counter() - started,
                "submit_s": submit_s,
                "run_s": final["finished_at"] - final["started_at"],
                "state": final["state"],
                "result": final.get("result") or {},
            }

    def guarded(client_index: int) -> None:
        try:
            client_loop(client_index)
        except Exception as error:  # counted as a failure, never a hang
            errors.append(f"client {client_index}: {type(error).__name__}: {error}")

    threads = [
        threading.Thread(target=guarded, args=(i,), name=f"client-{i}")
        for i in range(workload.clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170.0)
    wall = time.perf_counter() - started
    if any(thread.is_alive() for thread in threads):
        errors.append("a client thread did not finish")
    return {"results": results, "errors": errors, "wall_s": wall}


def run_serve_pass(workload, payloads, root: Path) -> dict:
    service = Service(workload, root)
    try:
        loop = run_clients(workload, service.url, payloads)
        tokens = sum(
            account["tokens_spent"]
            for account in ServeClient(service.url).stats()["tenants"].values()
        )
    finally:
        lost = service.stop()
    failed = len(loop["errors"]) + len(lost)
    done = []
    for record in loop["results"]:
        if record is None:
            continue  # its error is already counted
        if record["state"] != "completed" or record["result"].get("aborted"):
            failed += 1
        else:
            done.append(record)
    return {
        "setup_s": service.setup_s,
        "wall_s": loop["wall_s"],
        "results": loop["results"],
        "done": done,
        "failed": failed,
        "tokens": tokens,
    }


def fingerprints_of(serve_pass: dict) -> list[str | None]:
    return [(r or {}).get("result", {}).get("fingerprint") for r in serve_pass["results"]]


def count_mismatches(first: list, again: list) -> int:
    return sum(a is None or a != b for a, b in zip(first, again))


def run_serve(workload: ServeWorkload, seed: int, seconds: float, trace: bool, scratch: Path):
    count = request_count(workload, seconds)
    if trace:
        return trace_serve(workload, seed, count, scratch)
    payloads = serve_payloads(workload, seed, count)
    setups = []
    for index in range(workload.setup_repeats - 1):
        service = Service(workload, scratch / f"setup-{index}")
        setups.append(service.setup_s)
        service.stop()
    measured = run_serve_pass(workload, payloads, scratch / "measured")
    rss = peak_rss_mb()
    setups.append(measured["setup_s"])
    done = measured["done"]
    latencies = [r["latency_s"] for r in done]
    metrics = {
        "job_p50_s": (quantile(latencies, 0.5), "s"),
        "jobs_per_s": (len(done) / measured["wall_s"], "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "llm_tokens": (measured["tokens"] / max(len(done), 1), "count"),
        "generated_fraction": (
            sum(r["result"].get("queries", 0) for r in done)
            / (workload.queries * max(len(done), 1)),
            "ratio",
        ),
        "peak_rss_mb": (rss, "MB"),
    }
    # Reference: the first payloads again, on a fresh service.
    reference = run_serve_pass(
        workload, payloads[: REFERENCE_REQUESTS * workload.clients], scratch / "reference"
    )
    failed = measured["failed"] + reference["failed"] + count_mismatches(
        fingerprints_of(reference), fingerprints_of(measured)
    )
    return count, failed, metrics, fingerprints_of(measured)


def trace_serve(workload: ServeWorkload, seed: int, count: int, scratch: Path):
    """Half the jobs on an untraced service, then the same half on a fresh
    traced one (the per-job database builder is bound at service start)."""
    payloads = serve_payloads(workload, seed, max(count // 2, 2 * workload.clients))
    plain = run_serve_pass(workload, payloads, scratch / "plain")
    with tracing(layer_hooks()) as tracer:
        traced = run_serve_pass(workload, payloads, scratch / "traced")
    failed = plain["failed"] + traced["failed"] + count_mismatches(
        fingerprints_of(plain), fingerprints_of(traced)
    )
    # Busy time is what the worker threads spent inside spans, set against
    # the capacity of all workers over the client loop's wall.
    metrics = layer_metrics(
        tracer,
        wall=workload.workers * traced["wall_s"],
        plain_wall=workload.workers * plain["wall_s"],
        attributed=tracer.root_seconds("worker-"),
    )
    done = traced["done"]
    metrics["job_p90_s"] = (quantile([r["latency_s"] for r in plain["done"]], 0.9), "s")
    metrics["serve.queue_wait_s"] = (
        statistics.median(r["latency_s"] - r["run_s"] - r["submit_s"] for r in done)
        if done
        else 0.0,
        "s",
    )
    hits = misses = 0
    for db in tracer.kept("databases"):
        cache = db.explain_cache.stats()
        hits, misses = hits + cache["hits"], misses + cache["misses"]
    metrics["fastpath.cache_hit_ratio"] = (hit_ratio(hits, misses), "ratio")
    return len(payloads), failed, metrics, fingerprints_of(traced)


# -- per-layer report -------------------------------------------------------------------


def hit_ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(tracer, wall: float, plain_wall: float, attributed: float) -> dict:
    """``<layer>.calls`` / ``<layer>.self_s`` for every reported layer, the
    ratio metrics, and the unattributed remainder of *wall*."""
    layers = tracer.layers()
    metrics: dict[str, tuple[float, str]] = {}
    for layer in REPORTED_LAYERS:
        stats = layers.get(layer)
        metrics[f"{layer}.calls"] = (stats.calls if stats else 0, "count")
        metrics[f"{layer}.self_s"] = (stats.self_s if stats else 0.0, "s")

    def ratio(numerator: str, denominator: str) -> float:
        base = tracer.counter(denominator)
        return tracer.counter(numerator) / base if base else 0.0

    def per_call(counter: str, layer: str) -> float:
        stats = layers.get(layer)
        return tracer.counter(counter) / stats.calls if stats and stats.calls else 0.0

    metrics.update(
        {
            "llm.prompt_tokens": (tracer.counter("llm.prompt_tokens"), "count"),
            "llm.completion_tokens": (tracer.counter("llm.completion_tokens"), "count"),
            "core.profile.useful_ratio": (
                ratio("core.profile.observations", "core.profile.evaluations"),
                "ratio",
            ),
            "core.search.kept_ratio": (
                ratio("core.search.kept", "core.search.evaluations"),
                "ratio",
            ),
            "core.search.final_distance": (
                ratio("core.search.final_distance", "core.search.runs"),
                "cost",
            ),
            "sqldb.execute.rows_per_call": (
                per_call("sqldb.execute.rows", "sqldb.execute"),
                "rows",
            ),
            "checkpoint.bytes_per_save": (
                per_call("checkpoint.bytes", "checkpoint.save"),
                "B",
            ),
            "serve.journal.bytes_per_record": (
                per_call("serve.journal.bytes", "serve.journal.append"),
                "B",
            ),
            "serve.queue_wait_s": (0.0, "s"),  # measured on serve only
            "traced_wall_s": (wall, "s"),
            "unattributed_s": (wall - attributed, "s"),
            "trace_overhead": (wall / plain_wall - 1.0, "ratio"),
        }
    )
    return metrics


def make_scratch(root: Path, name: str) -> Path:
    path = root / f"{name}-{time.time_ns()}"
    path.mkdir(parents=True)
    return path


def remove_scratch(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):
        path.parent.rmdir()  # only when no other run is using it
