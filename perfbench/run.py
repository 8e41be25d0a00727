#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the harness (perfbench/CMakeLists.txt,
which compiles the repository's libraries from source) into the build
directory ($CARGO_TARGET_DIR, default .bench_build), synthesizes the
workload's inputs from the seed in one process, measures them in a second
process pinned to 2 compute threads, and prints as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 1 the
metrics are the per-layer ones, a Chrome trace (loadable in Perfetto) is
kept under <build>/traces/, and an attribution table is printed.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("semi_pair", "rapidscan_session", "outofcore_shard")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Compute threads per workload process: the sched pool, OpenMP, and the
# daemon's sched_threads all get this width (2 of the host's 4 cores).
THREADS = "2"


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return (ROOT / target).resolve() / "perfbench"


def build(bdir):
    """Configures once, then builds the harness target (a no-op when
    nothing changed).  A file lock serializes concurrent invocations."""
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    with open(bdir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps = []
        if not (bdir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(bdir), "--target",
                      "perfbench_e2e", "-j", jobs])
        with open(log, "w") as out:
            for cmd in steps:
                if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=850).returncode != 0:
                    tail = log.read_text(errors="replace").splitlines()[-20:]
                    fail("build failed:\n" + "\n".join(tail))
    return bdir / "perfbench_e2e"


def source_identity():
    """git commit when the checkout is a repository, plus a digest of
    the sources the harness builds (stable without git)."""
    commit = "unknown"
    if (ROOT / ".git").exists():  # never ask a repository above the checkout
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10)
            if r.returncode == 0:
                commit = r.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for base in (ROOT / "src", HERE):
        files += [p for p in base.rglob("*") if p.is_file()]
    for p in sorted(files):
        digest.update(str(p.relative_to(ROOT)).encode())
        digest.update(p.read_bytes())
    return commit, digest.hexdigest()[:16]


def check_metrics(metrics, trace):
    """Holds the harness output to BENCHMARK.json, the one list of metric
    names and units.  Per-layer metrics of layers the workload does not
    engage are added as 0; returns their names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    for name, m in metrics.items():
        if units.get(name) != m["unit"]:
            fail(f"metric {name} ({m['unit']}) is not declared so in "
                 "BENCHMARK.json", 1)
    idle = [name for name in units if name not in metrics]
    if idle and not trace:
        fail("missing end-to-end metrics: " + ", ".join(idle), 1)
    for name in idle:
        metrics[name] = {"value": 0.0, "unit": units[name]}
    return idle


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources next to {HERE.name}/ to build")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    bdir = build_dir()
    exe = build(bdir)
    commit, digest = source_identity()

    env = dict(os.environ, SMA_THREADS=THREADS, OMP_NUM_THREADS=THREADS)
    env.pop("SMA_SIMD_LEVEL", None)
    work = bdir / "runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", str(work)]
    try:
        # Input synthesis and references are not measured: use every core.
        cores = str(os.cpu_count() or 1)
        prep = subprocess.run([str(exe), "--phase", "prepare"] + common,
                              env=dict(env, SMA_THREADS=cores,
                                       OMP_NUM_THREADS=cores),
                              capture_output=True, text=True, timeout=120)
        if prep.returncode != 0:
            fail("prepare failed: " + prep.stderr.strip(), 1)
        cmd = [str(exe), "--phase", "run", "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--commit", commit,
               "--source-digest", digest] + common
        if args.trace:
            traces = bdir / "traces"
            traces.mkdir(exist_ok=True)
            cmd += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.trace.json")]
        t0 = time.monotonic()
        run = subprocess.run(cmd, env=env, capture_output=True, text=True,
                             timeout=args.seconds + 140)
        if run.returncode != 0:
            fail(f"run failed (exit {run.returncode}): " + run.stderr.strip(),
                 1)
    except subprocess.TimeoutExpired as e:
        fail(f"timed out: {e}", 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        fail("harness printed no result line", 1)
    for line in lines[:-1]:
        print(line)
    idle = check_metrics(result["metrics"], args.trace)
    if idle:
        print(f"layers not engaged on {args.workload} (reported as 0): "
              + ", ".join(idle))
    print(f"wall {time.monotonic() - t0:.2f} s for the measured process",
          file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
