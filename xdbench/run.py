#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 xdbench/run.py --workload build-sbm --seed 1 --seconds 30 --trace 0

The first call configures and compiles the library from src/ plus the xdbench
binary's sources in xdbench/ into .bench_build/ (a few minutes at most);
later calls only check that the build is current.  The last line of stdout
is the binary's JSON result.  The exit code is the binary's: non-zero when an
output check failed or when the sources are missing.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "xdbench"
# One run must end within 180 s; the build before the first run is not
# part of that budget.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"xdbench/run.py: {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "xdbench", "-j", jobs],
        check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["build-sbm", "build-powerlaw", "serve-mixed"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--tiny", action="store_true",
                    help="self-test scale (1000-vertex graphs)")
    ap.add_argument("--corrupt", action="store_true",
                    help="self-test: corrupt one served answer")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not (ROOT / "src" / "serve" / "artifact.hpp").is_file():
        log(f"library sources not found under {ROOT / 'src'}")
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--workdir", str(BUILD / "work")]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3


if __name__ == "__main__":
    sys.exit(main())
