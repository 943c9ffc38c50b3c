#!/usr/bin/env python3
"""Build and run the repository's end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload lj-5cc --seed 0 --seconds 20 --trace 0

The first run configures and builds perfbench (and the library it
measures, compiled from src/) in Release mode under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later
runs only rebuild what changed.  Build output goes to stderr.  The
benchmark's stdout is passed through, so its last line is the JSON
result.  A workload's latency limit for slo_met_frac is read from its
"why" in BENCHMARK.json ("SLO <n> ms").
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def slo_ms(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for entry in spec["workloads"]:
        if entry["name"] == workload:
            match = re.search(r"SLO (\d+(?:\.\d+)?) ms", entry["why"])
            if not match:
                fail("workload %s states no 'SLO <n> ms'" % workload)
            return match.group(1)
    fail("unknown workload %s" % workload)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.hh")):
        fail("library sources (src/) not found next to perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    # Compiler temporaries stay inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S, env=env)
        if result.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="scaled-down inputs (self-test only)")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    limit = slo_ms(args.workload)
    binary = build()
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--slo-ms", limit]
    if args.tiny:
        command.append("--tiny")
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines:
        sys.stdout.write(result.stdout)
        fail("benchmark exited with code %d" % result.returncode)
    json.loads(lines[-1])  # the result line must parse
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
