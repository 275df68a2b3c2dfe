#!/usr/bin/env python3
"""Build and run the tsu end-to-end benchmark.

    python3 tsubench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
benchmark package (tsubench/CMakeLists.txt, which compiles the library from
src/) into .bench_build/; later calls only re-check the build. With
--trace 1 the traced binary runs and its spans are written to
.bench_build/spans/. On the default seed the workload's final-state digest
is checked against tsubench/reference.json.

The last line of standard output is the result JSON; the exit code is 0
only when the build succeeded and every correctness check passed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds both drivers; shows the log on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode:
            sys.stderr.write(proc.stdout)
            return False
    return True


def main():
    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(reference["digests"]))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        print("tsubench: build failed", file=sys.stderr)
        return 1

    binary = "tsubench_traced" if args.trace else "tsubench"
    cmd = [os.path.join(CMAKE_DIR, binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.seed == reference["default_seed"]:
        cmd += ["--expect-digest", reference["digests"][args.workload]]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("tsubench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
