"""The SES benchmark: one workload per process, checked outputs, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates traced rounds (layer wrappers of ``tracer.py``
installed) with untraced rounds of the same work, and reports the
per-layer metrics of the traced rounds, per operation, with the tracing
overhead: traced minus untraced wall time per timed operation.

The last line of standard output is the result object; the line before it
records the seed, the CPU count and the interpreter and library versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

#: The end-to-end metrics every workload reports, with their units.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_mean_ms": "ms",
    "utility": "attendees",
    "peak_rss_mb": "MB",
}

#: Serving quantities the traced run reports beside the layer metrics,
#: taken from its untraced rounds: latencies, and bytes left on disk per
#: committed write.
SERVING = {
    "serve.write_p50_ms": "ms",
    "serve.gap_p50_ms": "ms",
    "serve.solve_p90_ms": "ms",
    "serve.durable_bytes": "bytes/write",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SOURCE}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCE), str(HERE)]

    import numpy
    import scipy

    from tracer import LAYER_METRICS, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    if args.trace:
        tracer = Tracer()
        measured = workload(args.seed, args.seconds, tracer=tracer)
        try:
            layers = tracer.report(measured.traced_wall, measured.traced_done)
        except AssertionError as error:
            measured.errors.append(str(error))
            layers = {}
        # traced and untraced rounds alternate over the same work
        layers["trace.overhead_ms"] = (
            measured.traced_wall / measured.traced_done - measured.wall / measured.done
        ) * 1e3
        layers.update(measured.extras)
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit} for name, unit in {**LAYER_METRICS, **SERVING}.items()}
    else:
        measured = workload(args.seed, args.seconds)
        metrics = {name: {"value": measured.metrics[name], "unit": unit} for name, unit in END_TO_END.items()}

    for error in measured.errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": measured.rounds,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "attempted": measured.attempted,
        "failed": measured.failed,
    }))
    print(json.dumps({
        "correct": measured.correct,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
