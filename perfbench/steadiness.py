#!/usr/bin/env python3
"""Steadiness report: how much each end-to-end metric moves between runs.

    python3 perfbench/steadiness.py --workload NAME [--runs 10]
        [--seconds S] [--first-seed 1] [--series 2] [--fixed-seed]

Runs perfbench/run.py on one workload --runs times per series, on the
same code.  Each run gets its own seed (first-seed + 1000 * series + i),
as the acceptance check does; --fixed-seed keeps one seed per series
instead.  Per metric it prints the median, the quartiles (Python's
statistics.quantiles, n=4), the spread (q3 - q1) / median against the
metric's bound in BENCHMARK.json, and how far each later series' median
moved from the first.  A spread above a third of the bound, or a
median shift above the bound, is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        sys.exit(f"run failed (seed {seed}): {r.stderr.strip()}")
    result = json.loads(r.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  seed {seed}: correct=false "
              f"(failed {result['failed']} of {result['attempted']})")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--series", type=int, default=2)
    ap.add_argument("--fixed-seed", action="store_true")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    medians = []
    for s in range(args.series):
        base = args.first_seed + 1000 * s
        runs = []
        for i in range(args.runs):
            seed = base if args.fixed_seed else base + i
            runs.append(run_once(args.workload, seed, seconds))
            print(f"  series {s} run {i} seed {seed}: " +
                  ", ".join(f"{k}={v:.6g}" for k, v in sorted(runs[-1].items())),
                  flush=True)
        print(f"{args.workload} series {s} ({args.runs} runs, "
              f"{'seed ' + str(base) if args.fixed_seed else 'seeds from ' + str(base)}):")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        meds = {}
        for name in sorted(runs[0]):
            med, q1, q3, spread = summarize([r[name] for r in runs])
            meds[name] = med
            bound = bounds.get(name, {}).get("bound")
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above bound/3"
            print(f"  {name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {bound if bound is not None else '-':>6}"
                  f"{flag}")
        medians.append(meds)

    for s in range(1, len(medians)):
        print(f"median shift, series {s} vs series 0:")
        for name, m0 in sorted(medians[0].items()):
            m1 = medians[s][name]
            spec_m = bounds.get(name, {})
            lower = spec_m.get("better") == "lower"
            worse = (m1 - m0) / m0 if lower else (m0 - m1) / m0 if m0 else 0.0
            bound = spec_m.get("bound")
            flag = "  <-- worse than bound" if bound is not None and worse > bound else ""
            print(f"  {name:<16} {m0:>12.6g} -> {m1:>12.6g}  "
                  f"worse by {worse:+.4f}{flag}")


if __name__ == "__main__":
    main()
