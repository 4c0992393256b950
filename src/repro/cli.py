"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``schema``         — print the schema summary of a built-in dataset;
* ``generate``       — run SQLBarber end-to-end and export a JSONL workload;
* ``benchmarks``     — list the ten paper benchmarks (Table 1);
* ``run-benchmark``  — run one method on one benchmark and print metrics;
* ``trace-report``   — per-stage time/token/call breakdown of a trace file;
* ``perf-report``    — tail-latency view of a trace: p50/p95/p99 per stage,
  per operator, and per latency histogram;
* ``fuzz``           — grammar-fuzz the SQL engine against its oracles;
* ``chaos``          — run the pipeline under a seeded transport-fault
  storm with kills and budget exhaustion, verifying graceful degradation
  and bit-identical resume (``--scenario serve`` attacks the job service
  instead);
* ``serve``          — run the multi-tenant generation job service
  (SIGTERM drains gracefully: in-flight jobs checkpoint, queued jobs stay
  accountable);
* ``submit``         — submit one generation job to a running service;
* ``jobs``           — list jobs (or show one) on a running service.

Output discipline: *data* (schema text, tables, JSON summaries, reports)
goes to stdout; *diagnostics* (progress, target histograms) go through the
``repro`` logger to stderr, so ``--output``/JSON consumers can pipe stdout
without scraping.  ``--log-level debug`` additionally streams every
telemetry span through the logger.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from repro.benchsuite import (
    ExperimentRunner,
    METHODS,
    TABLE1_BENCHMARKS,
    benchmark_by_name,
    histogram_text,
    table1_overview,
)
from repro.core import BarberConfig, SQLBarber, schema_text
from repro.datasets import build_database, dataset_names, redset_spec_workload
from repro.obs import (
    JsonlSink,
    LoggingSink,
    ProgressRenderer,
    render_perf_report_file,
    render_report_file,
    setup_logging,
)
from repro.resilience.chaos import (
    SCENARIOS,
    SERVICE_SCENARIOS,
    run_chaos_campaign,
)
from repro.resilience.lock import LockHeld
from repro.workload import CostDistribution, TemplateSpec

logger = logging.getLogger("repro.cli")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI with all six sub-commands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SQLBarber reproduction: customized, cost-targeted "
        "SQL workload generation.",
    )
    parser.add_argument(
        "--log-level", default="info",
        choices=["debug", "info", "warning", "error"],
        help="diagnostic verbosity on stderr (debug also streams spans)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    schema = commands.add_parser("schema", help="print a dataset's schema summary")
    schema.add_argument("--db", choices=dataset_names(), default="tpch")
    schema.add_argument("--scale", type=float, default=None)

    generate = commands.add_parser(
        "generate", help="generate a workload and export it as JSONL"
    )
    generate.add_argument("--db", choices=dataset_names(), default="tpch")
    generate.add_argument("--scale", type=float, default=None)
    generate.add_argument("--queries", type=int, default=100)
    generate.add_argument("--intervals", type=int, default=10)
    generate.add_argument(
        "--shape", default="uniform",
        choices=["uniform", "normal", "snowset_card_1", "snowset_card_2",
                 "snowset_cost", "redset_cost"],
        help="target distribution shape (the last four are fleet-derived)",
    )
    generate.add_argument(
        "--cost-type", default="plan_cost",
        choices=["plan_cost", "cardinality", "execution_time", "actual_rows"],
    )
    generate.add_argument("--cost-min", type=float, default=0.0)
    generate.add_argument("--cost-max", type=float, default=10_000.0)
    generate.add_argument(
        "--spec", action="append", default=[],
        help="a natural-language template spec (repeatable)",
    )
    generate.add_argument(
        "--specs-file", default=None,
        help="JSON file: a list of spec objects (num_joins, instructions, ...)",
    )
    generate.add_argument("--num-specs", type=int, default=8,
                          help="fleet-derived specs when none are given")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--no-explain-cache", action="store_true",
        help="disable the EXPLAIN result cache (debugging escape hatch)",
    )
    generate.add_argument("--time-budget", type=float, default=300.0)
    generate.add_argument(
        "--max-tokens", type=int, default=None,
        help="hard LLM token ceiling; the run aborts gracefully (partial "
             "result, exit 1) when reached",
    )
    generate.add_argument(
        "--max-cost-dollars", type=float, default=None,
        help="hard LLM spend ceiling in USD (see --max-tokens)",
    )
    generate.add_argument(
        "--query-timeout", type=float, default=None, metavar="SECONDS",
        help="per-query deadline enforced cooperatively inside the engine; "
             "a tripped deadline is a quarantine strike, not a crash",
    )
    generate.add_argument(
        "--memory-budget", type=float, default=None, metavar="MB",
        help="per-operator memory ceiling (estimated bytes of any "
             "materialized frame)",
    )
    generate.add_argument(
        "--row-budget", type=int, default=None,
        help="per-query processed-row ceiling; unbounded cross products "
             "are refused before materializing",
    )
    generate.add_argument(
        "--quarantine-after", type=int, default=3, metavar="N",
        help="bench a template after N resource strikes (default 3); the "
             "run continues without it and records why",
    )
    generate.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="save resumable run state here after every stage (and every "
             "few templates within stages)",
    )
    generate.add_argument(
        "--resume", action="store_true",
        help="resume from --checkpoint-dir's checkpoint; the resumed run "
             "is bit-identical to an uninterrupted one",
    )
    generate.add_argument(
        "--workload-mix", default=None, metavar="S,I,U,D",
        help="emit a mixed read/write workload: comma-separated fractions "
             "of SELECT, INSERT, UPDATE, DELETE statements summing to 1 "
             "(e.g. 0.5,0.2,0.2,0.1); DML is drawn deterministically per "
             "--seed from the schema-aware grammar and costed via EXPLAIN",
    )
    generate.add_argument("--output", "-o", default=None,
                          help="JSONL output path (default: stdout summary only)")
    generate.add_argument(
        "--trace-out", default=None,
        help="write the run's telemetry (spans + events + metrics) to this "
             "JSONL file; inspect it with `repro trace-report` / "
             "`repro perf-report`",
    )
    generate.add_argument(
        "--profile", action="store_true",
        help="arm the operator-level executor profiler: every executed plan "
             "operator records rows/batches/self-time, aggregated into the "
             "run summary and the trace (see `repro perf-report`)",
    )
    generate.add_argument(
        "--progress", action="store_true",
        help="stream live pipeline progress events (stages, templates, "
             "checkpoints, retries) to stderr",
    )

    commands.add_parser("benchmarks", help="list the ten paper benchmarks")

    run = commands.add_parser(
        "run-benchmark", help="run one method on one paper benchmark"
    )
    run.add_argument("--name", required=True, help="benchmark name (Table 1)")
    run.add_argument("--db", choices=dataset_names(), default="tpch")
    run.add_argument("--method", choices=METHODS, default="sqlbarber")
    run.add_argument("--queries", type=int, default=None,
                     help="override the benchmark's query count")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--no-explain-cache", action="store_true",
        help="disable the EXPLAIN result cache (sqlbarber method only)",
    )
    run.add_argument("--time-budget", type=float, default=300.0)
    run.add_argument("--baseline-interval-budget", type=float, default=2.0)
    run.add_argument(
        "--trace-out", default=None,
        help="telemetry JSONL output (sqlbarber method only)",
    )

    report = commands.add_parser(
        "trace-report",
        help="print a per-stage time/token/call breakdown of a trace file",
    )
    report.add_argument("trace", help="JSONL trace written with --trace-out")

    perf = commands.add_parser(
        "perf-report",
        help="print p50/p95/p99 latency tables (per stage, per operator, "
             "per histogram) from a trace file",
    )
    perf.add_argument("trace", help="JSONL trace written with --trace-out")

    fuzz = commands.add_parser(
        "fuzz",
        help="grammar-fuzz the SQL engine against its differential oracles",
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument(
        "--budget", type=int, default=200,
        help="number of statements to generate and check",
    )
    fuzz.add_argument(
        "--db", choices=list(dataset_names()) + ["fuzz"], default="fuzz",
        help="target database: the dedicated fuzz schema or a dataset",
    )
    fuzz.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="regression corpus directory; failures are appended as JSON "
        "(default: no corpus writes)",
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="record failures without delta-debugging them first",
    )
    fuzz.add_argument(
        "--trace-out", default=None,
        help="write the fuzz run's telemetry to this JSONL file",
    )

    chaos = commands.add_parser(
        "chaos",
        help="run the pipeline under seeded transport-fault storms, kills, "
             "and budget exhaustion",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--runs", type=int, default=30,
        help="number of chaos runs (cycling storm / kill / budget / engine "
             "scenarios)",
    )
    chaos.add_argument(
        "--intensity", type=float, default=0.3,
        help="upper bound on the total per-call transport-fault probability",
    )
    chaos.add_argument(
        "--scenario", default=None, choices=SCENARIOS + SERVICE_SCENARIOS,
        help="pin every run to one scenario instead of cycling "
             "(engine = governor limits + engine-side fault storm; "
             "serve = worker kills, queue storms, deadline expiry, and "
             "poisoned specs against the job service; restart = kill the "
             "whole service at every journaled transition point and "
             "recover from the durable job store)",
    )
    chaos.add_argument(
        "--trace-out", default=None,
        help="write the campaign's telemetry to this JSONL file (flushed "
             "per record, so it survives crashes)",
    )

    serve = commands.add_parser(
        "serve",
        help="run the multi-tenant generation job service (HTTP/JSON)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8642,
        help="listen port (0 = pick a free one; the bound port is logged)",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="worker threads executing jobs",
    )
    serve.add_argument(
        "--max-queue-depth", type=int, default=32,
        help="global queue bound; submissions past it get an explicit 429 "
             "with a Retry-After hint",
    )
    serve.add_argument(
        "--max-attempts", type=int, default=3,
        help="attempts (original + crash resumes) per job before it fails",
    )
    serve.add_argument(
        "--checkpoint-root", default="serve-checkpoints", metavar="DIR",
        help="per-job checkpoint directories live under here "
             "(checkpointing is always on)",
    )
    serve.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="durable job journal directory: every lifecycle transition "
             "is journaled there and a restart replays it, so accepted "
             "jobs survive process death (omit for an ephemeral service)",
    )
    serve.add_argument(
        "--journal-fsync", default="rotate",
        choices=["always", "rotate", "off"],
        help="journal durability: always = fsync every append (survives "
             "OS crash), rotate = fsync at segment seals/snapshots/exit "
             "(survives process death; an OS crash can drop the unsealed "
             "tail, which recovery quarantines), off = benchmarks only",
    )
    serve.add_argument(
        "--requests-per-window", type=int, default=None, metavar="N",
        help="per-tenant rate limit: N requests per --window-seconds "
             "(token bucket; over-limit submissions get 429 rate_limited "
             "with an exact Retry-After)",
    )
    serve.add_argument(
        "--window-seconds", type=float, default=60.0,
        help="rate-limit window length (with --requests-per-window)",
    )
    serve.add_argument(
        "--burst", type=int, default=None,
        help="rate-limit bucket capacity (default: one window's worth)",
    )

    submit = commands.add_parser(
        "submit", help="submit one generation job to a running service"
    )
    submit.add_argument("--url", default="http://127.0.0.1:8642")
    submit.add_argument("--tenant", default="cli")
    submit.add_argument("--priority", type=int, default=4,
                        help="0 (batch) .. 9 (interactive)")
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument(
        "--specs-file", default=None,
        help="JSON file: a list of spec objects (num_joins, order_by, ...)",
    )
    submit.add_argument("--queries", type=int, default=16)
    submit.add_argument("--intervals", type=int, default=4)
    submit.add_argument("--cost-min", type=float, default=0.0)
    submit.add_argument("--cost-max", type=float, default=200.0)
    submit.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="end-to-end deadline (queue wait included)")
    submit.add_argument("--max-tokens", type=int, default=None)
    submit.add_argument("--max-cost-dollars", type=float, default=None)
    submit.add_argument(
        "--wait", action="store_true",
        help="poll until the job reaches a terminal state",
    )

    jobs = commands.add_parser(
        "jobs", help="list jobs (or show one) on a running service"
    )
    jobs.add_argument("--url", default="http://127.0.0.1:8642")
    jobs.add_argument("job_id", nargs="?", default=None,
                      help="show one job instead of the full table")
    jobs.add_argument(
        "--stats", action="store_true",
        help="print service counters (queue depth, rejections, tenants) "
             "instead of the job table",
    )
    return parser


def _read_specs_file(path: str) -> list[dict]:
    """The spec objects in the ``--specs-file`` at *path*; a ValueError
    (exit 2) when it cannot be read, is not JSON or is not a list of
    objects."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ValueError(
            f"--specs-file: cannot read {path!r}: {exc.strerror or exc}"
        ) from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"--specs-file: {path!r} is not JSON: {exc}") from None
    if not isinstance(payload, list) or not all(
        isinstance(entry, dict) for entry in payload
    ):
        raise ValueError(
            f"--specs-file: {path!r} must hold a JSON list of spec objects"
        )
    return payload


def _load_specs(args) -> list[TemplateSpec]:
    specs: list[TemplateSpec] = []
    for index, text in enumerate(args.spec):
        specs.append(TemplateSpec.from_natural_language(text, spec_id=f"cli_{index}"))
    if args.specs_file:
        payload = _read_specs_file(args.specs_file)
        for index, entry in enumerate(payload):
            specs.append(
                TemplateSpec.from_json(entry, spec_id=f"file_{index}")
            )
    if not specs:
        specs = redset_spec_workload(num_specs=args.num_specs, seed=args.seed)
    return specs


def _build_distribution(args) -> CostDistribution:
    if args.shape == "uniform":
        return CostDistribution.uniform(
            args.cost_min, args.cost_max, args.queries, args.intervals,
            cost_type=args.cost_type,
        )
    if args.shape == "normal":
        return CostDistribution.normal(
            args.cost_min, args.cost_max, args.queries, args.intervals,
            cost_type=args.cost_type,
        )
    from repro.datasets import fleet_distribution

    return fleet_distribution(
        args.shape, args.queries, args.intervals, args.cost_type
    )


def _telemetry_sinks(trace_out: str | None) -> list:
    sinks: list = [LoggingSink()]
    if trace_out:
        try:
            sinks.append(JsonlSink(trace_out))
        except OSError as exc:
            raise SystemExit(
                f"repro: error: cannot write trace to {trace_out!r}: {exc}"
            ) from exc
    return sinks


def cmd_schema(args) -> int:
    """`repro schema`: print a dataset's human-readable schema summary."""
    db = build_database(args.db, scale=args.scale)
    print(schema_text(db))
    return 0


def _workload_mix(text: str | None):
    if not text:
        return None
    from repro.workload.mixer import parse_mix

    try:
        return parse_mix(text)
    except ValueError as exc:
        raise ValueError(f"--workload-mix: {exc}") from None


def cmd_generate(args) -> int:
    """`repro generate`: run SQLBarber end-to-end, optionally write JSONL.

    Stdout carries exactly one JSON summary object; the target histogram and
    progress diagnostics go to the logger (stderr).  Exit code 0 for a
    complete run, 1 for an incomplete one, and 2 (one line on stderr) for
    arguments that make no target distribution or no valid configuration,
    and for a ``--checkpoint-dir`` another run holds.
    """
    try:
        distribution = _build_distribution(args)
        config = BarberConfig(
            seed=args.seed,
            max_tokens=args.max_tokens,
            max_cost_dollars=args.max_cost_dollars,
            query_timeout_seconds=args.query_timeout,
            memory_budget_mb=args.memory_budget,
            row_budget=args.row_budget,
            quarantine_after=args.quarantine_after,
            profile=args.profile,
            workload_mix=_workload_mix(args.workload_mix),
        )
        specs = _load_specs(args)
    except ValueError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    db = build_database(args.db, scale=args.scale)
    if args.no_explain_cache:
        db.set_explain_cache(False)
    logger.info("target distribution:\n%s", histogram_text(distribution))
    barber = SQLBarber(
        db, config=config, sinks=_telemetry_sinks(args.trace_out)
    )
    subscribers = [ProgressRenderer(sys.stderr)] if args.progress else []
    try:
        result = barber.generate_workload(
            specs, distribution, time_budget_seconds=args.time_budget,
            checkpoint_dir=args.checkpoint_dir, resume=args.resume,
            subscribers=subscribers,
        )
    except LockHeld as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    logger.info(
        "generated %d/%d queries in %.1fs; Wasserstein distance %.2f; "
        "templates %d; LLM tokens %d",
        len(result.workload), distribution.total_queries,
        result.elapsed_seconds, result.final_distance,
        result.num_templates, result.llm_usage["total_tokens"],
    )
    if result.aborted:
        logger.warning(
            "run aborted in stage %s (%s); partial result%s",
            result.abort_stage, result.abort_reason,
            f"; resume with --checkpoint-dir {args.checkpoint_dir} --resume"
            if args.checkpoint_dir else "",
        )
    if result.quarantined:
        logger.warning(
            "%d template(s) quarantined by the resource governor: %s",
            len(result.quarantined),
            ", ".join(record.template_id for record in result.quarantined),
        )
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(result.workload.to_jsonl())
        logger.info("workload written to %s", args.output)
    if args.trace_out:
        logger.info("telemetry trace written to %s", args.trace_out)
    summary = {
        "generated": len(result.workload),
        "target_queries": distribution.total_queries,
        "complete": result.complete,
        "elapsed_seconds": round(result.elapsed_seconds, 3),
        "wasserstein_distance": round(result.final_distance, 4),
        "num_templates": result.num_templates,
        "stage_seconds": {
            stage: round(seconds, 3)
            for stage, seconds in result.stage_seconds.items()
        },
        "llm_usage": result.llm_usage,
        "explain_cache": db.explain_cache.stats(),
        "aborted": result.aborted,
        "abort_stage": result.abort_stage,
        "abort_reason": result.abort_reason,
        "quarantined": [record.to_dict() for record in result.quarantined],
        "workload_mix": args.workload_mix,
        "dml_statements": sum(
            1
            for q in result.workload
            if (q.template_id or "").startswith("mix_")
        ),
        "checkpoint": result.checkpoint_path,
        "output": args.output,
        "trace": args.trace_out,
    }
    if result.operator_profiles is not None:
        summary["operator_profiles"] = result.operator_profiles["operators"]
    print(json.dumps(summary, indent=2))
    return 0 if result.complete else 1


def cmd_benchmarks(_args) -> int:
    """`repro benchmarks`: print the Table-1 benchmark inventory."""
    print(table1_overview())
    return 0


def cmd_run_benchmark(args) -> int:
    """`repro run-benchmark`: one method on one benchmark, JSON metrics.

    An unknown ``--name`` exits 2 with one ``repro: error:`` line naming
    the valid benchmarks.
    """
    try:
        benchmark = benchmark_by_name(args.name)
    except KeyError:
        names = ", ".join(b.name for b in TABLE1_BENCHMARKS)
        print(
            f"repro: error: unknown benchmark {args.name!r}; choose from {names}",
            file=sys.stderr,
        )
        return 2
    distribution = benchmark.distribution(num_queries=args.queries)
    runner = ExperimentRunner(seed=args.seed)
    run = runner.run(
        args.method,
        args.db,
        distribution,
        benchmark_name=benchmark.name,
        time_budget_seconds=args.time_budget,
        per_interval_budget_seconds=args.baseline_interval_budget,
        sinks=_telemetry_sinks(args.trace_out) if args.trace_out else None,
        explain_cache=not args.no_explain_cache,
    )
    if args.trace_out:
        logger.info("telemetry trace written to %s", args.trace_out)
    print(json.dumps(run.summary_row(), indent=2))
    return 0 if run.complete else 1


def cmd_trace_report(args) -> int:
    """`repro trace-report`: offline breakdown of a --trace-out file."""
    try:
        print(render_report_file(args.trace))
    except OSError as exc:
        print(f"repro: error: cannot read trace file: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(
            f"repro: error: {args.trace!r} is not a JSONL trace "
            f"(line {exc.lineno}: {exc.msg})",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_perf_report(args) -> int:
    """`repro perf-report`: tail-latency breakdown of a --trace-out file."""
    try:
        print(render_perf_report_file(args.trace))
    except OSError as exc:
        print(f"repro: error: cannot read trace file: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(
            f"repro: error: {args.trace!r} is not a JSONL trace "
            f"(line {exc.lineno}: {exc.msg})",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_fuzz(args) -> int:
    """`repro fuzz`: grammar-fuzz the engine; JSON report on stdout.

    Exit code 0 iff every oracle agreed on every statement.  The report is
    byte-identical across runs with the same seed/budget/database, so CI
    can diff two runs to prove reproducibility.
    """
    from repro.fuzz import Corpus, FuzzRunner, build_fuzz_database
    from repro.obs import Telemetry, use_telemetry

    if args.db == "fuzz":
        database = build_fuzz_database(args.seed)
    else:
        # cached=False: the cache oracle bumps the statistics epoch, which
        # must not leak into other commands' shared dataset instances.
        database = build_database(args.db, cached=False)
    corpus = Corpus(args.corpus) if args.corpus else None
    runner = FuzzRunner(
        db=database,
        seed=args.seed,
        corpus=corpus,
        shrink=not args.no_shrink,
    )
    telemetry = Telemetry(sinks=_telemetry_sinks(args.trace_out))
    try:
        with use_telemetry(telemetry):
            report = runner.run(args.budget)
    finally:
        telemetry.finish()
    if args.trace_out:
        logger.info("telemetry trace written to %s", args.trace_out)
    print(report.to_json(), end="")
    logger.info(
        "fuzz: %d statements, %d disagreements, %d invalid",
        report.statements,
        len(report.disagreements),
        report.invalid,
    )
    return 0 if report.ok else 1


def cmd_chaos(args) -> int:
    """`repro chaos`: seeded chaos campaign; JSON report on stdout.

    Exit code 0 iff every run completed, aborted gracefully, or resumed
    bit-identically after its injected kill; 2 (one line on stderr) for
    ``--runs`` below 1 or ``--intensity`` outside [0, 1].  The report is
    byte-identical across runs with the same seed/runs/intensity, so CI
    can diff two runs to prove reproducibility.
    """
    try:
        report = run_chaos_campaign(
            seed=args.seed, runs=args.runs, intensity=args.intensity,
            scenario=args.scenario, trace_path=args.trace_out,
        )
    except ValueError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    if args.trace_out:
        logger.info("telemetry trace written to %s", args.trace_out)
    print(report.to_json(), end="")
    logger.info(
        "chaos (%s): %d runs, %d mismatches, %d failures, ok=%s",
        args.scenario or "mixed", report.runs, len(report.mismatches),
        len(report.failures), report.ok,
    )
    return 0 if report.ok else 1


def cmd_serve(args) -> int:
    """`repro serve`: run the job service until SIGTERM/SIGINT, then drain.

    The drain is the graceful-shutdown contract: admission stops (503 +
    Retry-After), every in-flight job stops at its next durable checkpoint
    and is recorded CHECKPOINTED (resumable), queued jobs stay accountable
    in the job table.  The drain summary is printed as JSON on stdout.
    A ``--state-dir`` that a live service holds exits 2 with one line on
    stderr.
    """
    import asyncio
    import signal

    from repro.serve import ServeConfig, ServeCore, ServeServer, TenantQuota

    config = ServeConfig(
        workers=args.workers,
        max_queue_depth=args.max_queue_depth,
        max_attempts=args.max_attempts,
        checkpoint_root=args.checkpoint_root,
        default_quota=TenantQuota(
            requests_per_window=args.requests_per_window,
            window_seconds=args.window_seconds,
            burst=args.burst,
        ),
        state_dir=args.state_dir,
        journal_fsync=args.journal_fsync,
    )
    if args.state_dir:
        # Durable mode: replay whatever a previous lifetime journaled.
        # A dead holder's lock died with its process; a *live* one makes
        # this exit 2 before any port is bound — one service per state dir.
        try:
            core = ServeCore.recover(config)
        except LockHeld as exc:
            print(f"repro: error: {exc}", file=sys.stderr)
            return 2
        recovery = core.recovery or {}
        logger.info(
            "recovered state dir %s: %d record(s) replayed, "
            "%d running requeued, %d checkpointed resumed, "
            "%d quarantined damage item(s)",
            args.state_dir,
            recovery.get("records_replayed", 0),
            recovery.get("requeued_running", 0),
            recovery.get("resumed_checkpointed", 0),
            len(recovery.get("quarantined", [])),
        )
    else:
        core = ServeCore(config)
    server = ServeServer(core, host=args.host, port=args.port)

    async def _run() -> dict:
        await server.start()
        logger.info(
            "serving on http://%s:%d (%d workers, queue depth %d); "
            "SIGTERM drains gracefully",
            server.host, server.port, args.workers, args.max_queue_depth,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        return await server.serve_until(stop)

    summary = asyncio.run(_run())
    if core.recovery is not None:
        summary["recovery"] = {
            key: core.recovery.get(key)
            for key in (
                "records_replayed",
                "requeued_running",
                "resumed_checkpointed",
                "quarantined_counts",
                "clean_shutdown",
            )
        }
    logger.info(
        "drained: %d job(s) checkpointed/queued for resume",
        summary.get("running", 0) + summary.get("queued", 0),
    )
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_submit(args) -> int:
    """`repro submit`: POST one job; JSON response (or final state) on stdout.

    Exit 0 for an accepted (or, with ``--wait``, completed) job, 1 for a
    rejected or failed one or an unreachable service, and 2 (one line on
    stderr, nothing sent) for a ``--specs-file`` that cannot be used.
    """
    from repro.serve import ServeClient, ServeClientError

    try:
        specs = (
            _read_specs_file(args.specs_file)
            if args.specs_file
            else [{"num_joins": 1}]
        )
    except ValueError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    payload = {
        "tenant": args.tenant,
        "priority": args.priority,
        "seed": args.seed,
        "queries": args.queries,
        "intervals": args.intervals,
        "cost_min": args.cost_min,
        "cost_max": args.cost_max,
        "specs": specs,
    }
    for key, value in (
        ("deadline_seconds", args.deadline),
        ("max_tokens", args.max_tokens),
        ("max_cost_dollars", args.max_cost_dollars),
    ):
        if value is not None:
            payload[key] = value
    client = ServeClient(args.url)
    try:
        status, body, headers = client.submit(payload)
        if status != 202:
            retry_after = headers.get("retry-after")
            logger.warning(
                "submission rejected (%d%s): %s",
                status,
                f", retry after {retry_after}s" if retry_after else "",
                body.get("reason", body.get("error", "")),
            )
            print(json.dumps(body, indent=2, sort_keys=True))
            return 1
        if args.wait:
            body = client.wait_for(body["job_id"])
        print(json.dumps(body, indent=2, sort_keys=True))
        return 0 if body.get("state") != "failed" else 1
    except ServeClientError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1


def cmd_jobs(args) -> int:
    """`repro jobs`: the service's job table / one job / counters, as JSON."""
    from repro.serve import ServeClient, ServeClientError

    client = ServeClient(args.url)
    try:
        if args.stats:
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if args.job_id:
            status, body = client.job(args.job_id)
            print(json.dumps(body, indent=2, sort_keys=True))
            return 0 if status == 200 else 1
        print(json.dumps(client.jobs(), indent=2, sort_keys=True))
        return 0
    except ServeClientError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    setup_logging(args.log_level)
    handlers = {
        "schema": cmd_schema,
        "generate": cmd_generate,
        "benchmarks": cmd_benchmarks,
        "run-benchmark": cmd_run_benchmark,
        "trace-report": cmd_trace_report,
        "perf-report": cmd_perf_report,
        "fuzz": cmd_fuzz,
        "chaos": cmd_chaos,
        "serve": cmd_serve,
        "submit": cmd_submit,
        "jobs": cmd_jobs,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
