"""Benchmark of vknots: end-to-end metrics, or per-layer metrics when traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: kishino-slice, trefoil-probe, unknot-reduce, cert-transport,
or `all` to run each in turn.  Run from the root of a checkout that holds
src/vknots; the program is run from that source.

A *pass* runs every unit of the workload once, each unit in a fresh
interpreter (bench/worker.py), so module-level caches start cold as they
do for one command-line invocation.  Passes repeat on the same seeded
inputs until --seconds have gone by (at least one pass).  With --trace 0
the end-to-end metrics are reported; with --trace 1 one untraced pass is
followed by traced passes, and the per-layer metrics and the tracing
overhead are reported.  See bench/README.md for the metrics.

Lines before the last are key=value records: every unit run, its failed
checks, the search counters and whether they repeat.  The last line is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import END_TO_END, PER_LAYER, REFERENCE_COUNTERS, UNITS, ratios

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150


class RunState:
    """What one benchmark run of one workload has measured and checked."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.setups: list[float] = []
        self.counters: dict[str, list] = {}

    def spawn(self, unit: str, trace: bool = False, setup_only: bool = False) -> dict | None:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--unit", unit]
        if trace:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            return self._crashed(unit, f"timed out after {WORKER_TIMEOUT_S} s")
        if proc.returncode != 0:
            return self._crashed(unit, f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
        try:
            res = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return self._crashed(unit, "no result line")
        if not trace:
            self.setups.append(res["ready"] - t_spawn)
        if setup_only:
            return res
        self.attempted += res["attempted"]
        failed = sum(res["failures"].values())
        self.failed += failed
        if res["wrong_verdicts"]:
            self.correct = False
        self._check_counters(unit, res["searches"])
        print(f"unit workload={self.workload} seed={self.seed} unit={unit} "
              f"traced={int(trace)} setup_s={res['ready'] - t_spawn:.4f} "
              f"wall_s={res['wall_s']:.4f} items={len(res['item_ms'])} "
              f"rss_mb={res['rss_kb'] / 1024:.1f} attempted={res['attempted']} "
              f"failed={failed} info={json.dumps(res['info'], separators=(',', ':'))}")
        if res["failures"]:
            print("failures " + " ".join(f"{k}={v}" for k, v in sorted(res["failures"].items())))
        for verdict in res["wrong_verdicts"][:5]:
            print(f"wrong_verdict unit={unit} {verdict}")
        return res

    def _crashed(self, unit: str, why: str) -> None:
        print(f"unit workload={self.workload} unit={unit} crashed: {why}", file=sys.stderr)
        self.correct = False
        self.attempted += 1
        self.failed += 1
        return None

    def _check_counters(self, unit: str, searches: list) -> None:
        """Search counters must repeat exactly across the passes of a run."""
        first = self.counters.setdefault(unit, searches)
        if searches != first:
            self.correct = False
            print(f"counters_repeat=no unit={unit}")

    def report_counters(self) -> None:
        for unit, searches in self.counters.items():
            digest = hashlib.sha256(json.dumps(searches).encode()).hexdigest()[:16]
            line = (f"counters workload={self.workload} seed={self.seed} unit={unit} "
                    f"searches={len(searches)} digest={digest}")
            ref = REFERENCE_COUNTERS.get((self.workload, unit))
            if ref is not None:
                line += f" match={'yes' if searches == ref else 'no'}"
                line += " " + " ".join(f"status={s} nodes={n} dedup={d}" for s, n, d in searches)
            print(line)


def run_pass(state: RunState, trace: bool) -> dict | None:
    """Each unit once; None if a unit crashed."""
    results = [state.spawn(unit, trace) for unit in UNITS[state.workload]]
    if None in results:
        return None
    return {
        "wall_s": sum(r["wall_s"] for r in results),
        "item_ms": [ms for r in results for ms in r["item_ms"]],
        "rss_mb": max(r["rss_kb"] for r in results) / 1024,
        "layers": [r.get("layers") for r in results],
    }


def repeat_passes(state: RunState, deadline: float, trace: bool) -> list[dict]:
    """Passes until the next one would end after the deadline; at least one."""
    durations, passes = [], []
    while True:
        t0 = time.monotonic()
        p = run_pass(state, trace)
        durations.append(time.monotonic() - t0)
        if p is not None:
            passes.append(p)
        if time.monotonic() + statistics.median(durations) > deadline:
            return passes


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between the closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(state: RunState, deadline: float) -> dict[str, float] | None:
    passes = repeat_passes(state, deadline, trace=False)
    while len(state.setups) < SETUP_SAMPLES:
        if state.spawn(UNITS[state.workload][0], setup_only=True) is None:
            break
    if not passes or not state.setups:
        return None
    items = [ms for p in passes for ms in p["item_ms"]]
    print(f"summary workload={state.workload} passes={len(passes)} items={len(items)} "
          f"setup_samples={len(state.setups)}")
    # The mean, not the median, over passes: on a shared 2-core VM the CPU
    # switched between two speeds a third apart for seconds to minutes at
    # a time; a median over a few passes jumps between the two, while the
    # mean moves with the share of slow time.
    return {
        "wall_s": statistics.mean(p["wall_s"] for p in passes),
        "verdict_p50_ms": quantile(items, 0.50),
        "verdict_p95_ms": quantile(items, 0.95),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "setup_s": statistics.median(state.setups),
    }


def per_layer(state: RunState, deadline: float) -> dict[str, float] | None:
    untraced = run_pass(state, trace=False)
    if untraced is None:
        return None
    passes = repeat_passes(state, deadline, trace=True)
    if not passes:
        return None
    per_pass = []
    for p in passes:
        merged: dict[str, float] = {}
        for layers in p["layers"]:
            for k, v in layers.items():
                if k == "search.frontier_peak":  # units run one after another
                    merged[k] = max(merged.get(k, 0), v)
                else:
                    merged[k] = merged.get(k, 0) + v
        per_pass.append(merged)
    out = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    out.update(ratios(out))
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced["wall_s"]
    print(f"summary workload={state.workload} traced_passes={len(passes)} "
          f"untraced_wall_s={untraced['wall_s']:.4f} traced_wall_s={out['trace.wall_s']:.4f}")
    return out


def self_check() -> bool:
    try:
        proc = subprocess.run([sys.executable, str(HERE / "selfcheck.py")], cwd=ROOT,
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    for line in proc.stdout.splitlines():
        print(line)
    return proc.returncode == 0


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict | None:
    deadline = time.monotonic() + seconds
    state = RunState(workload, seed)
    if not self_check():
        print("selfcheck failed: the gates would not register a failure", file=sys.stderr)
        state.correct = False
    metrics = per_layer(state, deadline) if trace else end_to_end(state, deadline)
    if metrics is None:
        return None
    state.report_counters()
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": state.correct,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*UNITS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "vknots" / "__init__.py").is_file():
        print(f"run.py: no vknots package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    names = tuple(UNITS) if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        res = bench(name, args.seed, args.seconds, bool(args.trace))
        if res is None:
            print(f"run.py: {name} produced no measurement", file=sys.stderr)
            return 1
        results[name] = res
        if len(names) > 1:
            print(f"result workload={name} {json.dumps(res)}")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
