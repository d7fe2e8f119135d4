"""Run one unit of a benchmark workload in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --unit UNIT [--trace] [--setup-only]

Set-up is everything before the timed region: interpreter start, import
of vknots, and input generation.  The worker reports, as one JSON line,
the monotonic clock reading at the start of the timed region (the parent
subtracts its spawn time), the region's wall time, each item's time,
the failure ledger, the search counters and its own peak RSS.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "vknots" / "__init__.py").is_file():
    sys.exit(f"worker: no vknots package under {SRC}")
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402  (needs the path above)
from spec import UNITS  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(UNITS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--unit", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if args.unit not in UNITS[args.workload]:
        ap.error(f"{args.workload} has units {UNITS[args.workload]}")

    run, info = workloads.prepare(args.workload, args.seed, args.unit)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer().install()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    led = workloads.Ledger()
    t0 = time.perf_counter()
    item_ms = run(led)
    wall = time.perf_counter() - t0
    result = {
        "ready": ready,
        "wall_s": wall,
        "item_ms": item_ms,
        "attempted": led.attempted,
        "failures": dict(led.failures),
        "wrong_verdicts": led.wrong_verdicts,
        "searches": led.searches,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "info": info,
    }
    if tracer:
        result["layers"] = tracer.metrics(wall)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
