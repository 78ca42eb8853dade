#!/usr/bin/env python3
"""Self-test of the repository benchmark, at small sizes.

    python3 perfbench/selftest.py

Run from the repository root.  Checks that BENCHMARK.json keeps to its
schema, then runs every workload once untraced and once traced with
`--small` and asserts that the result line is well formed: correct, nothing
failed, and every metric of the matching BENCHMARK.json table printed with
its unit and a finite value (end-to-end values also nonzero).  Last, it
copies BENCHMARK.json and the benchmark's own directories into an otherwise
empty directory under .bench_build/ and asserts that the benchmark refuses
to run there: a non-zero exit and no result line.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec):
    """Asserts the BENCHMARK.json schema; returns a list of problems."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"top-level keys {sorted(spec)}")
    if not isinstance(spec.get("run_seconds"), int) or not 1 <= spec["run_seconds"] <= 60:
        problems.append("run_seconds must be a whole number in 1..60")
    if not 2 <= len(spec.get("workloads", [])) <= 8:
        problems.append("2..8 workloads")
    names = []
    for w in spec.get("workloads", []):
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w}")
        names.append(w.get("name", ""))
    for m in spec.get("end_to_end", []):
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            problems.append(f"end-to-end metric {m}")
        names.append(m.get("name", ""))
    for m in spec.get("per_layer", []):
        if set(m) != {"name", "unit", "better"}:
            problems.append(f"per-layer metric {m}")
        names.append(m.get("name", ""))
    for m in spec.get("end_to_end", []) + spec.get("per_layer", []):
        if not UNIT.match(m.get("unit", "")) or m.get("better") not in ("lower", "higher"):
            problems.append(f"unit or direction of {m.get('name')}")
    bad = [n for n in names if not NAME.match(n)]
    if bad or len(names) != len(set(names)):
        problems.append(f"names malformed or reused: {bad}")
    setup = [m for m in spec.get("end_to_end", []) if m.get("name") == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s (s, lower) is missing")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must have the largest bound")
    return problems


def run(args, cwd):
    return subprocess.run(["python3", "perfbench/run.py"] + args, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


def check_result(stdout, table, nonzero):
    """Asserts one result line; returns a list of problems."""
    lines = stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return [f"last line is not JSON: {lines[-1][:120]}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in table}:
        problems.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in table})}")
    for m in table:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')} != {m['unit']}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value}")
        elif nonzero and value == 0:
            problems.append(f"{m['name']}: zero")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = [f"BENCHMARK.json: {p}" for p in check_spec(spec)]

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, table in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                        "--trace", str(trace), "--small"], ROOT)
            problems = ([f"exit {proc.returncode}: {proc.stderr[-300:]}"]
                        if proc.returncode != 0
                        else check_result(proc.stdout, table, nonzero=trace == 0))
            label = f"{workload} --trace {trace}"
            print(f"{'FAIL' if problems else 'ok  '} {label}")
            failures += [f"{label}: {p}" for p in problems]

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    proc = run(["--workload", spec["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0"], bare)
    refused = proc.returncode != 0 and '"metrics"' not in proc.stdout
    print(f"{'ok  ' if refused else 'FAIL'} refuses to run without the library sources")
    if not refused:
        failures.append("benchmark ran in a directory without the library sources")
    shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print("  " + failure)
    print("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
