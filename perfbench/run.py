#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <tenants|firefly|storms|fibers> \
        --seed <n> --seconds <s> --trace <0|1> [--small]

Run from the repository root.  The first run configures and builds the
`perfbench` binary (and the library it drives) from source into
`.bench_build/perfbench`; later runs only check that the build is current.
The binary's stdout is passed through, so the last line is the result
object.  A record with host metadata and the runner's spans is written to
`.bench_build/records/`.  Build output goes to stderr; a failed build or run
exits non-zero without printing a result.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("tenants", "firefly", "storms", "fibers")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    build_dir = os.path.join(BUILD_ROOT, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--small", action="store_true",
                        help="small sizes (the self-test); not for measurements")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    records = os.path.join(BUILD_ROOT, "records")
    os.makedirs(records, exist_ok=True)
    record = os.path.join(
        records, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", record]
    if args.small:
        cmd.append("--small")
    # Its own session, so a timeout can stop the binary and its unit processes.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: exited with {proc.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(out.decode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
