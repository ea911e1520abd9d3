#!/usr/bin/env python3
"""Benchmark of the threaded Morse-Smale pipeline, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload jet_full --seed 1 --seconds 20 --trace 0

Builds the library from src/ and the benchmark driver (perfbench/CMakeLists.txt)
into .bench_build/perfbench, runs the driver's self-test, then one measurement
of the workload (see perfbench/main.cpp for what a run does). The last line of
standard output is the JSON result. Exits non-zero without a result if the
build, the self-test or the run fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("jet_full", "noise_merge", "rt_partial")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    out = os.path.join(root, ".bench_build")
    build = os.path.join(out, "perfbench")
    work = os.path.join(out, "work")
    os.makedirs(build, exist_ok=True)

    log_path = os.path.join(out, "perfbench-build.log")
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                    ["cmake", "--build", build, "-j4"]):
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode
            except OSError as e:
                sys.stderr.write(f"perfbench: cannot run {cmd[0]}: {e}\n")
                return 1
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.stderr.write(f"perfbench: build failed ({' '.join(cmd)})\n")
                return 1

    rc = subprocess.run([os.path.join(build, "msc_perfbench_selftest"), "--workdir", work],
                        stdout=sys.stderr).returncode
    if rc != 0:
        sys.stderr.write("perfbench: self-test failed\n")
        return 1

    sys.stdout.flush()
    return subprocess.run([
        os.path.join(build, "msc_perfbench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--workdir", work, "--results", os.path.join(out, "results"),
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
