"""Smoke test of the benchmark itself.

Usage (from the root of a checkout): python3 perfbench/smoke.py

Runs every workload run.py knows, also those BENCHMARK.json does not gate,
once at the tiny input size, untraced and traced, and asserts that the last
output line is the result object, that every metric BENCHMARK.json names
prints with its unit, and that every output check passed. It also checks that the benchmark refuses to run, without printing a
result, in a directory that holds only BENCHMARK.json and the benchmark's
files. Exits 1 at the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import WORKLOADS  # noqa: E402


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def check_result(spec, workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "tiny")
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        raise AssertionError(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{where}: output checks failed\n{proc.stdout[-3000:]}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        raise AssertionError(f"{where}: metrics/units {got} != {wanted}")
    for name, unit in wanted.items():
        value = result["metrics"][name]["value"]
        if not isinstance(value, (int, float)):
            raise AssertionError(f"{where}: {name} is not a number: {value!r}")
        if not any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines[:-1]):
            raise AssertionError(f"{where}: no printed line for {name} with unit {unit}")
    print(f"ok  {where}: {result['attempted']} runs, {len(wanted)} metrics")


def check_refuses_without_sources():
    bare = os.path.join(ROOT, ".perfbench_work", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "--workload", "continual-gaussian", "--seed", "0", "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            raise AssertionError(f"ran without sources: exit {proc.returncode}\n{proc.stdout[-1000:]}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        parent = os.path.dirname(bare)
        if not os.listdir(parent):
            os.rmdir(parent)
    print(f"ok  refuses to run without sources (exit {proc.returncode})")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        for workload in sorted(WORKLOADS):
            for trace in (0, 1):
                check_result(spec, workload, trace)
        check_refuses_without_sources()
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
