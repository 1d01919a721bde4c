"""Quick self-test of the benchmark harness.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Runs every workload at the tiny corpus size for one second, untraced
and traced, and checks that the last output line has exactly the keys
``correct``/``attempted``/``failed``/``metrics``, that the run is
correct, and that it prints every metric of ``BENCHMARK.json`` -- the
end-to-end ones untraced, the per-layer ones traced -- with its unit.
It also checks that ``layers.json`` names only metrics that exist, and
that the benchmark refuses to run, printing nothing, in a directory
that holds only ``BENCHMARK.json`` and the benchmark's files.
"""

from __future__ import annotations

import fnmatch
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench_out", "selftest")


def _fail(message: str) -> None:
    print(f"selftest: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def _run(workload: str, trace: int, expected) -> None:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--tiny"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    label = f"{workload} --trace {trace}"
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        _fail(f"{label} exited with {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        _fail(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        _fail(f"{label}: not correct or nothing attempted")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        _fail(f"{label}: missing {sorted(set(expected) - set(metrics))}, "
              f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        value = metrics[name].get("value")
        if metrics[name].get("unit") != unit:
            _fail(f"{label}: {name} has unit {metrics[name].get('unit')}, "
                  f"BENCHMARK.json says {unit}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            _fail(f"{label}: {name} = {value!r}")
    print(f"selftest: {label}: ok ({len(metrics)} metrics)")


def _check_layer_notes(benchmark) -> None:
    names = [metric["name"] for metric
             in benchmark["per_layer"] + benchmark["end_to_end"]]
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as handle:
        notes = json.load(handle)
    workloads = {workload["name"] for workload in benchmark["workloads"]}
    if set(notes["workloads"]) != workloads:
        _fail("layers.json and BENCHMARK.json name different workloads")
    for row in notes["mapping"]:
        for pattern in row["layer_metrics"]:
            if not fnmatch.filter(names, pattern):
                _fail(f"layers.json: {pattern} matches no metric")
        for name in row["end_to_end"]:
            if name not in names:
                _fail(f"layers.json: unknown end-to-end metric {name}")
        for name in [row["workload"]] + row["no_change_expected_on"]:
            if name not in workloads:
                _fail(f"layers.json: unknown workload {name}")


def _check_refuses_without_program(benchmark) -> None:
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        benchmark["command"] + ["--workload", "decide", "--seed", "0",
                                "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=170)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        _fail("the benchmark ran without the program's sources")
    print("selftest: refuses to run without the program: ok")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    _check_layer_notes(benchmark)
    _check_refuses_without_program(benchmark)
    end_to_end = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    for workload in benchmark["workloads"]:
        _run(workload["name"], 0, end_to_end)
        _run(workload["name"], 1, per_layer)
    print("selftest: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
