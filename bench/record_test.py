#!/usr/bin/env python3
"""Checks the bench record writer (bench::Record) end to end on one bench.

    record_test.py <bench binary> <record path> <release|debug>

Release: the bench exits 0 and writes a record that parses as JSON, carries
the header (bench, build_type, host.nproc, wall_s, gates_passed), and holds
one row object per row of every table the bench printed, with the same
values: the record keeps numbers exact, so each must print as the console
cell does when rounded to that cell's decimals.
Debug: the bench refuses to record — it exits 2 and writes no file.
"""

import json
import os
import re
import subprocess
import sys


def console_tables(stdout):
    """Yields (header, rows) for every common::Table in the console output."""
    lines = stdout.splitlines()
    for i, line in enumerate(lines):
        if i == 0 or not line or set(line) != {"-"}:
            continue
        header = lines[i - 1].split()
        rows = []
        for row in lines[i + 1:]:
            if not row.startswith("  "):
                break
            rows.append(re.split(r" {2,}", row.strip()))
        yield header, rows


def same(console, recorded):
    if isinstance(recorded, str):
        return console == recorded
    if recorded is None:
        return console.lstrip("-") in ("nan", "inf")
    decimals = len(console.partition(".")[2])
    return f"{recorded:.{decimals}f}" == console


def main():
    binary, path, build_type = sys.argv[1:4]
    if os.path.exists(path):
        os.remove(path)
    run = subprocess.run([binary, path], capture_output=True, text=True)
    if build_type == "debug":
        assert run.returncode == 2, f"debug build exited {run.returncode}, want 2"
        assert not os.path.exists(path), "debug build wrote a record"
        return
    assert run.returncode == 0, f"exited {run.returncode}:\n{run.stdout}{run.stderr}"
    with open(path) as f:
        record = json.load(f)
    for key in ("bench", "build_type", "host", "wall_s", "gates_passed"):
        assert key in record, f"record lacks {key!r}"
    assert record["build_type"] == "release", record["build_type"]
    assert record["host"]["nproc"] >= 1, record["host"]
    assert record["wall_s"] > 0, record["wall_s"]
    assert record["gates_passed"] is True
    tables = [v for v in record.values()
              if isinstance(v, list) and v and isinstance(v[0], dict)]
    printed = list(console_tables(run.stdout))
    assert printed and len(printed) == len(tables), \
        f"{len(printed)} console tables, {len(tables)} recorded"
    for (header, rows), recorded in zip(printed, tables):
        assert len(rows) == len(recorded), \
            f"{len(rows)} console rows, {len(recorded)} row objects"
        for cells, obj in zip(rows, recorded):
            assert list(obj) == header, f"keys {list(obj)} != header {header}"
            for name, cell in zip(header, cells):
                assert same(cell, obj[name]), f"{name}: console {cell!r}, record {obj[name]!r}"


if __name__ == "__main__":
    main()
