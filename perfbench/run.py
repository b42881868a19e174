#!/usr/bin/env python3
"""Builds and runs the dhtjoin repo benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload twoway-cold-cluster --seed 1 \
        --seconds 10 --trace 0

The script configures and builds perfbench/ (which pulls in the
library through the repo's own CMakeLists.txt) into the build
directory named by $CARGO_TARGET_DIR, or `.bench_build` when unset,
then runs the benchmark binary with a private scratch directory
inside that build directory. The binary prints a human-readable
report followed by one JSON result line; this script passes both
through and exits with the binary's code. Build output goes to
stderr so the JSON stays the last line of stdout.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("twoway-cold-cluster", "nway-pji")
BINARY = "dhtjoin_perfbench"
# The whole command must end within 180 s; the build of a fresh
# checkout is exempt from that limit (it gets 900 s).
RUN_LIMIT_S = 170.0
BUILD_LIMIT_S = 840.0


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_step(cmd, timeout_s):
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout_s, check=False)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("failed (exit %d): %s" % (done.returncode, " ".join(cmd)))


def build(root, build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    binary = os.path.join(cmake_dir, BINARY)
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        run_step(["cmake", "-S", os.path.join(root, "perfbench"),
                  "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
                 BUILD_LIMIT_S)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    run_step(["cmake", "--build", cmake_dir, "--target", BINARY,
              "-j", jobs], BUILD_LIMIT_S)
    if not os.path.exists(binary):
        fail("build produced no " + BINARY)
    return binary


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(root, "src")):
        fail("run from the root of a dhtjoin checkout (no src/ here)")

    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    binary = build(root, build_dir)

    scratch = tempfile.mkdtemp(prefix="run-", dir=build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    started = time.monotonic()
    # Own session, so a timeout can stop the binary and any worker
    # process it forked in one signal.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = 3
        print("perfbench: run exceeded %.0f s, killed" % RUN_LIMIT_S,
              file=sys.stderr)
    finally:
        # Reap anything left in the session (workers exit with their
        # parent, but never leave one behind).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(scratch, ignore_errors=True)
    print("perfbench: %s finished in %.1f s (exit %d)" %
          (args.workload, time.monotonic() - started, code), file=sys.stderr)
    sys.exit(code)


if __name__ == "__main__":
    main()
