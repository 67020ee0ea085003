#!/usr/bin/env python3
"""Host-normalised benchmark of the PDNspot reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` runs one timed workload with no tracing and prints its
end-to-end metrics; ``--trace 1`` runs the traced per-layer pass instead.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the same
figures (plus raw, unnormalised ones) as a readable table.  The program is
imported from this checkout's ``src`` directory and nowhere else: without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
from pathlib import Path
from typing import Dict, Tuple

import measure

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep-cold", "sweep-diskwarm", "sim-trace", "serve-mixed")

Metrics = Dict[str, Tuple[float, str]]


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and import ``repro``.

    Exits with status 2 if ``repro`` is missing or resolves elsewhere (an
    installed copy must never stand in for the checkout's).
    """
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as error:
        print(f"perfbench: cannot import repro from {src}: {error}", file=sys.stderr)
        sys.exit(2)
    location = Path(repro.__file__).resolve()
    if src.resolve() not in location.parents:
        print(f"perfbench: repro resolves to {location}, not under {src}", file=sys.stderr)
        sys.exit(2)


def end_to_end(outcome) -> Metrics:
    """The gated metrics of one timed run (timings host-normalised)."""
    primary = outcome.samples.op(outcome.primary)
    return {
        "setup_s": (statistics.median(outcome.setup_norm_s), "s"),
        "units_per_s": (measure.rate(outcome.samples.total_units(), outcome.busy_norm_s), "1/s"),
        "op_p50_ms": (measure.percentile(primary.norm_ms, 0.5), "ms"),
        "op_p90_ms": (measure.percentile(primary.norm_ms, 0.9), "ms"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MiB"),
    }


def report(outcome) -> Metrics:
    """Everything a run shows beside the gated metrics: raw figures, classes."""
    shown: Metrics = {
        "host.ref_ms": (outcome.ref.median_ms(), "ms"),
        "raw.setup_s": (statistics.median(outcome.setup_raw_s), "s"),
        "raw.units_per_s": (
            measure.rate(outcome.samples.total_units(), outcome.busy_raw_s), "1/s"),
    }
    for name, samples in sorted(outcome.samples.classes.items()):
        count = len(samples.norm_ms)
        shown[f"{name}_n"] = (float(count), "count")
        top = measure.highest_reportable(count)  # 0 when not even p50 is
        for q in sorted({0.5, top}) if top else ():
            tag = f"p{round(q * 100)}"
            shown[f"{name}_{tag}_ms"] = (measure.percentile(samples.norm_ms, q), "ms")
            shown[f"raw.{name}_{tag}_ms"] = (measure.percentile(samples.raw_ms, q), "ms")
    for name, value in sorted(outcome.extra.items()):
        shown[name] = (value, "count")
    return shown


def print_table(title: str, metrics: Metrics) -> None:
    """One line per metric: name, value, unit."""
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.4f} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # SIGTERM unwinds like an error, so every started daemon is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import_program()

    if args.trace:
        import traced

        result = traced.run(args.workload, args.seed)
        print_table(f"{args.workload} traced per-layer run (seed {args.seed})", {
            name: (value, unit) for name, (value, unit) in result.metrics.items()})
        for line in result.failures[:10]:
            print(f"  FAILED {line}")
        metrics, attempted, failed = result.metrics, result.attempted, len(result.failures)
    else:
        import workloads

        outcome = workloads.RUNNERS[args.workload](args.seed, args.seconds)
        metrics = end_to_end(outcome)
        print_table(f"{args.workload} (seed {args.seed}, {args.seconds:g} s, "
                    "timings normalised to the host reference)", metrics)
        print_table("  raw and per-class figures", report(outcome))
        print(f"  result digest {outcome.digest}")
        for key, message in list(outcome.failures.items())[:10]:
            print(f"  FAILED {key}: {message}")
        attempted, failed = outcome.attempted, outcome.failed

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
