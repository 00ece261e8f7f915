#!/usr/bin/env python3
"""Entry point of the serving benchmark.

Builds the servebench program from this checkout's sources (incrementally,
under $CARGO_TARGET_DIR or .bench_build), runs one workload and passes the
program's report through; the last line of standard output is the result
JSON. Run from the repository root:

    python3 servebench/run.py --workload mget_loopback --seed 1 \
        --seconds 10 --trace 0

Build output goes to standard error. The exit code is the program's: 0 on
a clean run, 1 when an operation failed, 2 on a usage or set-up error.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "servebench")


def build():
    """Configure once, then build the program; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=True,
            timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", out, "--target", "servebench",
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, stderr=sys.stderr, check=True,
        timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "servebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks keys and pool (self-test)")
    args = parser.parse_args()
    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as err:
        print(f"servebench: build failed: {err}", file=sys.stderr)
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("servebench: run timed out", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
