#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs it.

Usage, from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --record-goldens <first_seed> <last_seed>

The build goes to .bench_build/perfbench (CMake, Release). Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result. The
exit code is the benchmark's: 0 when every digest matched, non-zero on a
mismatch, a failed build or a missing src/ tree.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKDIR = os.path.join(BUILD, "work")
GOLDENS = os.path.join(HERE, "goldens.txt")
RUN_TIMEOUT_S = 170


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no src/ tree next to the benchmark; nothing to build",
              file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run(cmd, timeout=None):
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: timed out after %d s" % timeout, file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record-goldens", nargs=2, type=int, metavar=("FIRST", "LAST"))
    args = parser.parse_args()

    if args.selftest:
        if not build("perfbench_selftest"):
            return 1
        return run([os.path.join(BUILD, "perfbench_selftest")])

    if not build("perfbench"):
        return 1
    binary = os.path.join(BUILD, "perfbench")

    if args.record_goldens:
        first, last = args.record_goldens
        out = subprocess.run([binary, "--record", str(first), str(last)],
                             stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            return out.returncode
        with open(GOLDENS, "w") as f:
            f.write("# workload part seed digest — written by run.py --record-goldens\n")
            f.write(out.stdout)
        return 0

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    os.makedirs(WORKDIR, exist_ok=True)
    return run([binary, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--goldens", GOLDENS, "--workdir", WORKDIR], timeout=RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
