"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-tables --seed 1 --seconds 8 --trace 0

Workloads: ``paper-tables``, ``user-programs``, ``long-replay``,
``service-mix`` (see perfbench/README.md).  ``--trace 0`` prints the
end-to-end metrics, measured with tracing off; ``--trace 1`` runs an
untraced and a traced pass and prints the per-layer metrics.  Every
metric is printed by name with its unit; the last line of stdout is
one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Every output is checked against an independent reference; a mismatch
is a failed operation, not a crash.  Scratch files live under
``.perfbench-runs/`` and are removed at exit, except the traced run's
merged spans (``.perfbench-runs/trace-<workload>.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("paper-tables", "user-programs", "long-replay", "service-mix")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, _frame):
    # unwind through every ``finally`` so children are reaped
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"error: {ROOT / 'src' / 'repro'} not found; run the benchmark "
            "from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    os.chdir(ROOT)
    signal.signal(signal.SIGTERM, _terminate)

    from perfbench import inputs as seeded
    from perfbench.common import RUNS_DIR, RunContext, host_factor, median
    from perfbench.metrics import DETAIL_UNITS, END_TO_END, PER_LAYER
    from perfbench.workloads import WORKLOADS

    ctx = RunContext(args.seconds, bool(args.trace))
    # the benchmark process itself never touches ./.repro-cache either
    os.environ["REPRO_CACHE_DIR"] = str(ctx.run_dir / "parent-cache")
    try:
        from repro.vm.stream import resolve_backend

        inputs = seeded.for_workload(args.workload, args.seed, args.seconds)
        result = WORKLOADS[args.workload](ctx, inputs)
    finally:
        ctx.close()

    print(
        f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} inputs={seeded.digest(inputs)[:16]} "
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"stream_backend={resolve_backend(None)}"
    )
    if not args.trace:
        # times scaled to the reference host; the raw ones are printed too
        factor = host_factor(ctx.probe.samples)
        for name in result.scaled:
            result.detail[f"raw_{name}"] = result.metrics[name]
            result.metrics[name] *= factor
        result.detail["host_kernel_ms"] = median(ctx.probe.samples) * 1e3
    for message in result.ops.messages:
        print(f"# FAILED {message}")
    if args.trace:
        RUNS_DIR.mkdir(exist_ok=True)
        trace_file = RUNS_DIR / f"trace-{args.workload}.json"
        trace_file.write_text(json.dumps({"spans": result.spans}))
        print(f"# spans written to {os.path.relpath(trace_file, ROOT)}")
        table = [(name, unit) for name, unit in PER_LAYER]
        values = result.layers
    else:
        table = [(name, unit) for name, unit, _better in END_TO_END]
        values = result.metrics
        for name, value in result.detail.items():
            print(f"detail {name:<28} {value:14.6g} {DETAIL_UNITS[name]}")
    for name, unit in table:
        print(f"metric {name:<34} {values[name]:14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": result.ops.failed == 0,
                "attempted": result.ops.attempted,
                "failed": result.ops.failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit} for name, unit in table
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
