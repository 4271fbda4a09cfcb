#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

One workload (the form BENCHMARK.json's "command" is run in):

    python3 perfbench/run.py --workload build-ml1m --seed 1 --seconds 25 --trace 0

Every workload in turn, untraced, printing each end-to-end metric with its
unit plus ops_attempted and ops_failed per workload:

    python3 perfbench/run.py --all --seed 1 --seconds 25

Run from the repository root. The binary is built with cargo into
$CARGO_TARGET_DIR (default perfbench/target); scratch files go under the
same directory and are removed when a run ends, except a traced run's
trace file. The exit code is the
benchmark's: 0 when every output check passed, 1 when one failed, 2 on bad
arguments; a failed build exits with cargo's code.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = [w["name"] for w in json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))["workloads"]]


def build():
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    # Cargo's progress goes to stderr; stdout stays reserved for the result.
    code = subprocess.run(cmd, stdout=sys.stderr).returncode
    if code != 0:
        sys.exit(code)
    return os.path.join(target, "release", "perfbench"), os.path.join(target, "perfbench-work")


def main(argv):
    binary, work = build()
    if "--all" not in argv:
        return subprocess.run([binary, *argv, "--work-dir", work]).returncode
    rest = [a for a in argv if a != "--all"]
    worst = 0
    for name in WORKLOADS:
        args = [binary, "--workload", name, *rest, "--trace", "0", "--work-dir", work]
        out = subprocess.run(args, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, out.returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
