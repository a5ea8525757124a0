#!/usr/bin/env python3
"""Build and run the end-to-end FDIL benchmark.

    python3 fdilbench/run.py --workload digits-finetune --seed 7 --seconds 40 --trace 0

Configures and builds fdilbench/CMakeLists.txt (the reffil library from src/
plus the fdilbench binary) into .bench_build/fdilbench under the checkout
root, then runs it. Build output goes to stderr; the binary's stdout
is passed through unchanged, so its last line is the result object. With
--trace 1 the spans of the traced cells are written to
.bench_build/fdilbench-traces/<workload>-seed<seed>.jsonl.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "fdilbench")
TRACES = os.path.join(ROOT, ".bench_build", "fdilbench-traces")
RUN_TIMEOUT_S = 170


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD] + generator,
                   stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "fdilbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "fdilbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"fdilbench: build failed: {e}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        os.makedirs(TRACES, exist_ok=True)
        command += ["--trace-out", os.path.join(
            TRACES, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        # stdout is inherited, so the binary's lines reach the caller as-is.
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"fdilbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
