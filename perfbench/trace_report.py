#!/usr/bin/env python3
"""Traced-run report: where each workload's time goes.

    python3 perfbench/trace_report.py [--workload NAME ...] [--seed N]
        [--seconds S]

For each workload, runs perfbench/run.py untraced (--trace 0) and traced
(--trace 1) on the same seed and prints:
  * the attribution table of the traced run: layer self times plus an
    explicit `unattributed` row, summing to the traced wall time;
  * every per-layer metric with its unit;
  * the tracing overhead two ways: trace.overhead_frac (time the tracer
    spent on its own bookkeeping over the traced wall) and the traced
    run's latency_p50_ms / flow_px_per_s against the untraced run's
    (run-to-run noise included);
  * the path of the Chrome trace (load it in https://ui.perfetto.dev).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("semi_pair", "rapidscan_session", "outofcore_shard")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        sys.exit(f"{workload} trace={trace} failed: {r.stderr.strip()}")
    lines = r.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    build = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))

    for workload in args.workload or WORKLOADS:
        _, plain = run(workload, args.seed, seconds, 0)
        notes, traced = run(workload, args.seed, seconds, 1)
        print(f"== {workload} (seed {args.seed}, {seconds:g} s, "
              f"correct={traced['correct']}, {traced['attempted']} pairs)")
        traced_e2e = {}
        for line in notes:
            if line.startswith("traced_end_to_end "):
                traced_e2e = json.loads(line.split(" ", 1)[1])
            elif not line.startswith("env "):
                print(line)
        print("per-layer metrics:")
        for name, m in sorted(traced["metrics"].items()):
            print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")
        print("tracing overhead:")
        ovh = traced["metrics"]["trace.overhead_frac"]["value"]
        print(f"  trace.overhead_frac (tracer bookkeeping / traced wall) "
              f"{ovh:.3g}")
        for name in ("latency_p50_ms", "flow_px_per_s"):
            u = plain["metrics"][name]["value"]
            t = traced_e2e.get(name, {}).get("value")
            if t is not None and u:
                print(f"  {name}: untraced {u:.6g}, traced {t:.6g} "
                      f"({(t - u) / u:+.2%}, includes run-to-run noise)")
        trace_file = ROOT / build / "perfbench" / "traces" / \
            f"{workload}-seed{args.seed}.trace.json"
        print(f"chrome trace: {trace_file}")
        print()


if __name__ == "__main__":
    main()
