"""Perf-regression gate over the committed ``BENCH_*.json`` reports.

Compares a *candidate* set of benchmark reports against a *baseline* set
and fails (exit 1) when any metric regressed beyond a noise-aware
threshold.  Used by CI (the ``perf-gate`` job) and locally:

    PYTHONPATH=src python benchmarks/perf_gate.py \
        --baseline baselines/ --candidate .

Matching and comparison rules:

* Reports are paired by their top-level ``"benchmark"`` key, not by
  filename.  A benchmark present on only one side is reported but never
  fails the gate (new benchmarks must not break it).
* Sections carrying ``"status": "skipped"`` are ignored entirely,
  including everything nested under them — a hardware-gated section
  (e.g. a multi-core speedup recorded on a single-CPU runner)
  contributes nothing.
* Metric kinds are inferred from key names:
    - ``seconds`` / ``*_seconds``: wall-clock, lower is better;
    - ``*_per_second`` / ``*_ops_per_s``: throughput, higher is better;
    - ``speedup``: ratio, higher is better;
    - ``*overhead_percent``: compared additively (percentage points).
* Wall-clock and throughput numbers are only comparable when the two
  reports ran at the same ``scale`` and ``smoke`` setting; otherwise
  those metrics are skipped with a note.  Ratios and overheads are
  scale-free and always compared.
* Thresholds are multiplicative (default 1.8x) so a baseline rerun on
  the same machine passes on noise, while a planted 2x slowdown trips.
  Tiny timings (below ``--min-seconds``) are ignored as pure noise.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from dataclasses import dataclass

TIME_LOWER = "time_lower"        # seconds, lower is better
TIME_HIGHER = "time_higher"      # throughput, higher is better
RATIO_HIGHER = "ratio_higher"    # speedup, higher is better
OVERHEAD = "overhead"            # percentage points, lower is better

TIME_KINDS = frozenset({TIME_LOWER, TIME_HIGHER})


def classify(key: str) -> str | None:
    """Map a metric key to a comparison kind, or None for non-metrics."""
    if key == "seconds" or key.endswith("_seconds"):
        return TIME_LOWER
    if key.endswith("_per_second") or key.endswith("_per_s"):
        return TIME_HIGHER
    if key == "speedup":
        return RATIO_HIGHER
    if key.endswith("overhead_percent"):
        return OVERHEAD
    return None


def iter_metrics(node, path=()):
    """Yield ``(dotted_path, kind, value)`` for every metric in a report.

    Skips any dict subtree marked ``status: "skipped"`` — those sections
    deliberately carry no comparable numbers.
    """
    if isinstance(node, dict):
        if node.get("status") == "skipped":
            return
        for key in sorted(node):
            yield from iter_metrics(node[key], path + (key,))
    elif isinstance(node, bool):
        return
    elif isinstance(node, (int, float)):
        kind = classify(path[-1]) if path else None
        if kind is not None:
            yield ".".join(path), kind, float(node)


def load_reports(spec: str) -> dict[str, dict]:
    """Load ``BENCH_*.json`` reports from a file or directory, keyed by
    their ``"benchmark"`` field."""
    if os.path.isdir(spec):
        paths = sorted(glob.glob(os.path.join(spec, "BENCH_*.json")))
    else:
        paths = [spec]
    reports: dict[str, dict] = {}
    for path in paths:
        with open(path) as handle:
            report = json.load(handle)
        name = report.get("benchmark")
        if not name:
            print(f"WARN: {path} has no 'benchmark' key; ignored",
                  file=sys.stderr)
            continue
        reports[name] = report
    return reports


@dataclass
class Finding:
    benchmark: str
    metric: str
    kind: str
    baseline: float
    candidate: float
    verdict: str  # "ok" | "regression" | "skipped"
    note: str = ""

    def line(self) -> str:
        tag = {"ok": "OK  ", "regression": "FAIL", "skipped": "SKIP"}[
            self.verdict
        ]
        body = (f"{tag} {self.benchmark}.{self.metric}: "
                f"{self.baseline:g} -> {self.candidate:g}")
        return body + (f"  ({self.note})" if self.note else "")


def compare_metric(
    benchmark: str,
    metric: str,
    kind: str,
    base: float,
    cand: float,
    *,
    tolerance: float,
    overhead_slack: float,
    min_seconds: float,
    times_comparable: bool,
) -> Finding:
    if kind in TIME_KINDS and not times_comparable:
        return Finding(benchmark, metric, kind, base, cand, "skipped",
                       "scale/smoke differ between baseline and candidate")
    if kind == TIME_LOWER:
        if max(base, cand) < min_seconds:
            return Finding(benchmark, metric, kind, base, cand, "skipped",
                           f"below noise floor {min_seconds}s")
        if cand > base * tolerance:
            return Finding(benchmark, metric, kind, base, cand, "regression",
                           f"{cand / base:.2f}x slower > {tolerance}x")
    elif kind == TIME_HIGHER:
        if base > 0 and cand < base / tolerance:
            return Finding(benchmark, metric, kind, base, cand, "regression",
                           f"{base / max(cand, 1e-12):.2f}x less throughput")
    elif kind == RATIO_HIGHER:
        if base > 0 and cand < base / tolerance:
            return Finding(benchmark, metric, kind, base, cand, "regression",
                           f"speedup fell below {base / tolerance:.2f}")
    elif kind == OVERHEAD:
        if cand > base + overhead_slack:
            return Finding(benchmark, metric, kind, base, cand, "regression",
                           f"+{cand - base:.1f} points > {overhead_slack}")
    return Finding(benchmark, metric, kind, base, cand, "ok")


def run_gate(
    baseline: dict[str, dict],
    candidate: dict[str, dict],
    *,
    tolerance: float,
    overhead_slack: float,
    min_seconds: float,
) -> tuple[list[Finding], list[str]]:
    findings: list[Finding] = []
    notes: list[str] = []
    for name in sorted(set(baseline) | set(candidate)):
        if name not in candidate:
            notes.append(f"benchmark {name!r} missing from candidate set")
            continue
        if name not in baseline:
            notes.append(f"benchmark {name!r} is new (no baseline); skipped")
            continue
        base_report, cand_report = baseline[name], candidate[name]
        times_comparable = all(
            base_report.get(key) == cand_report.get(key)
            for key in ("scale", "smoke")
        )
        base_metrics = dict(
            (path, (kind, value))
            for path, kind, value in iter_metrics(base_report)
        )
        for path, kind, cand_value in iter_metrics(cand_report):
            entry = base_metrics.get(path)
            if entry is None or entry[0] != kind:
                continue  # metric new/retyped in candidate: not a regression
            findings.append(compare_metric(
                name, path, kind, entry[1], cand_value,
                tolerance=tolerance,
                overhead_slack=overhead_slack,
                min_seconds=min_seconds,
                times_comparable=times_comparable,
            ))
    return findings, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="baseline BENCH_*.json file or directory")
    parser.add_argument("--candidate", required=True,
                        help="candidate BENCH_*.json file or directory")
    parser.add_argument("--tolerance", type=float, default=1.8,
                        help="multiplicative slack on time/ratio metrics "
                             "(default 1.8: a 2x slowdown trips, reruns pass)")
    parser.add_argument("--overhead-slack", type=float, default=15.0,
                        help="additive slack, in percentage points, on "
                             "*_overhead_percent metrics (default 15)")
    parser.add_argument("--min-seconds", type=float, default=0.02,
                        help="ignore wall-clock metrics below this (noise)")
    parser.add_argument("--quiet", action="store_true",
                        help="print regressions and notes only")
    args = parser.parse_args(argv)

    baseline = load_reports(args.baseline)
    candidate = load_reports(args.candidate)
    if not baseline or not candidate:
        print("ERROR: no BENCH_*.json reports found "
              f"(baseline={len(baseline)}, candidate={len(candidate)})",
              file=sys.stderr)
        return 2

    findings, notes = run_gate(
        baseline, candidate,
        tolerance=args.tolerance,
        overhead_slack=args.overhead_slack,
        min_seconds=args.min_seconds,
    )
    if not findings:
        print("ERROR: no comparable metrics between baseline and candidate",
              file=sys.stderr)
        return 2

    regressions = [f for f in findings if f.verdict == "regression"]
    for finding in findings:
        if finding.verdict == "regression" or not args.quiet:
            print(finding.line())
    for note in notes:
        print(f"NOTE: {note}")
    counts = {
        "ok": sum(f.verdict == "ok" for f in findings),
        "skipped": sum(f.verdict == "skipped" for f in findings),
        "regressions": len(regressions),
    }
    print(f"perf-gate: {counts['ok']} ok, {counts['skipped']} skipped, "
          f"{counts['regressions']} regressions "
          f"(tolerance {args.tolerance}x)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
