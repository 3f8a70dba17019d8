#!/usr/bin/env python3
"""Simulator benchmark: build bh_perfbench from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mp8_attack --seed 1 --seconds 30 --trace 0

bh_perfbench is built with CMake from perfbench/CMakeLists.txt, which
compiles the simulator sources under src/. The build directory is
$CARGO_TARGET_DIR when set, else .bench_build, both relative to the
checkout root. Build output goes to stderr; the benchmark's own output
goes to stdout and ends with one JSON line (see perfbench/README.md).
The exit status is the benchmark's: 0 only when every simulated cell
passed its output checks.
"""

import argparse
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build bh_perfbench; return the binary's path."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "bh_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
