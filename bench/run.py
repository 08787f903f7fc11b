"""dnsamp benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload backbone-day --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. The benchmark generates the workload's
inputs from the seed, then runs the workload's `dnsamp` CLI stages in a closed
loop with one job: one subprocess per stage, one stage at a time, pass after
pass until the measuring time is used up. It checks every pass's outputs and
prints, as the last line of standard output, one JSON object with `correct`,
`attempted`, `failed` and `metrics`. The line before it holds sample counts,
high percentiles, input sizes and the environment.

With `--trace 0` the metrics are the end-to-end ones. With `--trace 1` they are
the per-layer ones: half of the measuring time runs untraced subprocess
passes (per-stage wall time and RSS), the other half alternates untraced and
traced in-process passes (span times, counts and the tracing overhead).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

from harness import WORKLOADS, Bench
from metrics import END_TO_END_UNITS, PER_LAYER_UNITS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    # The stages import dnsamp from this checkout's src/, never an installed copy.
    if not (SRC / "dnsamp" / "__init__.py").is_file():
        print(f"error: no dnsamp source at {SRC / 'dnsamp'}", file=sys.stderr)
        return 2
    # On SIGTERM, unwind: the running child is killed and waited for, and the
    # scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bench = Bench(ROOT, args.workload, args.seed, args.seconds)
    try:
        bench.setup()
        if args.trace:
            values, timings = bench.per_layer()
            units = PER_LAYER_UNITS
        else:
            values, timings = bench.end_to_end()
            units = END_TO_END_UNITS
    finally:
        bench.cleanup()
    print(json.dumps(bench.detail(timings)))
    print(json.dumps({
        "correct": bench.checks.failed == 0,
        "attempted": bench.checks.attempted,
        "failed": bench.checks.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
