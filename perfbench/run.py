#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench/ (the library from src/ plus the harness) with CMake into
$CARGO_TARGET_DIR (default .bench_build); later calls reuse the build.
Build output goes to standard error, so the last line of standard output
is the harness's JSON result. Traced runs write their spans under
<build dir>/traces/. See perfbench/NOTES.md for workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_azure_milp", "des_steady", "cluster_tcp_zipf")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    return os.path.join(path, "perfbench")


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no src/ next to perfbench/: run from a full checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}")
    return os.path.join(out, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    binary = build()
    if args.selftest:
        cmd = [binary, "--selftest"]
    else:
        traces = os.path.join(os.path.dirname(binary), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out", traces]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", 1)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if args.selftest or done.returncode != 0:
        return done.returncode
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no JSON result", 1)
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}", 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
