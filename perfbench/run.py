#!/usr/bin/env python3
"""Builds and runs the benchmark for one workload.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` package in release mode (into `$CARGO_TARGET_DIR`,
or `perfbench/target`), then runs it pinned to one CPU and relays its
output.  The last line of standard output is the result object.  Exits
non-zero, without a result, when the build fails; exits non-zero with a
result whose `correct` is false when a check fails.  See README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["learn_sim", "learn_engine", "learn_remote", "learn_hw"]
# A run must end within 180 s; each workload stops starting iterations well
# before its --seconds budget, so this only catches a hang.
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    )
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        env=dict(os.environ, CARGO_TARGET_DIR=target_dir),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: building perfbench failed", file=sys.stderr)
        return 1

    # Every workload runs on one CPU: cqd's threads and the learner then
    # take turns instead of waking each other across CPUs, which made
    # loopback learning bimodal (see README.md).
    cpu = min(os.sched_getaffinity(0))
    work_dir = os.path.join(target_dir, "perfbench-work", str(os.getpid()))
    command = [
        os.path.join(target_dir, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--work-dir", work_dir,
    ]
    try:
        run = subprocess.run(
            command,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
