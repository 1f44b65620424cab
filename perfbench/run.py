#!/usr/bin/env python3
"""Builds and runs the ipqs end-to-end benchmark.

    python3 perfbench/run.py --workload adhoc_panel --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout. The first run configures and
builds the harness (perfbench/CMakeLists.txt, Release, with the repository's
own LTO and kernel flags) under .bench_build/; later runs only check that the
build is current. The harness's output is passed through; its last line is
the JSON result. Build output goes to stderr. Exits non-zero, without a
result line, if the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("adhoc_panel", "standing", "ingest_faulty")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(base):
    cmake_dir = os.path.join(base, "perfbench-cmake")
    binary = os.path.join(cmake_dir, "ipqs_perfbench")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", cmake_dir, "--target", "ipqs_perfbench",
                  "-j", jobs])
    # The compiler's temporary files (LTO partitions among them) stay inside
    # the checkout too.
    tmp = os.path.join(base, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT, env=env)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=0,
                        help="fixed-length run for tests (ignores --seconds)")
    args = parser.parse_args()

    base = build_dir()
    binary = build(base)
    if binary is None:
        return 1
    out_dir = os.path.join(base, "perfbench", "out")
    scratch = os.path.join(base, "perfbench", "scratch", str(os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rounds", str(args.rounds), "--out", out_dir,
           "--scratch", scratch]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        print("perfbench: the harness timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        print("perfbench: the harness failed", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        sys.stdout.write(done.stdout)
        print("perfbench: the harness printed no result", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
