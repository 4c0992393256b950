"""SQLBarber end-to-end benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload plan_cost --seed 101 --seconds 25 --trace 0

Run from the repository root (the program is imported from ``src/``).
With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run (see
``perfbench/README.md``).  Output checks that fail are counted in
``failed`` and make the run exit non-zero after printing its result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    scratch = workloads.make_scratch(Path.cwd() / ".perfbench_tmp", workload.name)
    try:
        if isinstance(workload, workloads.ServeWorkload):
            attempted, failed, metrics, fingerprints = workloads.run_serve(
                workload, args.seed, args.seconds, bool(args.trace), scratch
            )
        else:
            attempted, failed, metrics, fingerprints = workloads.run_generate(
                workload, args.seed, args.seconds, bool(args.trace)
            )
    finally:
        workloads.remove_scratch(scratch)
    print(
        json.dumps(
            {
                "workload": workload.name,
                "seed": args.seed,
                "fingerprints_sha256": workloads.digest(
                    "\n".join(str(f) for f in fingerprints)
                ),
            }
        ),
        file=sys.stderr,
    )
    report = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(report))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
