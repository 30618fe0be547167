#!/usr/bin/env python3
"""Builds the benchmark from the enclosing checkout, then runs one workload.

    python3 benchmark/run.py --workload <sleepers|hogs|partitioned|runtime>
                             [--seed N] [--seconds S] [--trace 0|1]

The build goes to $CARGO_TARGET_DIR/benchmark (default .bench_build/benchmark),
relative to the checkout root; build output goes to stderr.  The run's last
stdout line is the JSON result printed by sfs_benchmark.  Exits non-zero,
without a result, if the program's sources are not there to build.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The run itself is time-boxed by --seconds; this only catches a hang.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sched", "sfs.h")):
        sys.exit("benchmark: the program's sources (src/) are missing; nothing to build")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "benchmark")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "sfs_benchmark", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "sfs_benchmark")


def main():
    binary = build()
    sys.stdout.flush()
    try:
        proc = subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("benchmark: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
