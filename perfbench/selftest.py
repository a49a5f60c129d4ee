#!/usr/bin/env python3
"""Self-test of the benchmark itself.

Run from the repository root:

    python3 perfbench/selftest.py

1. For every workload, two traced runs with the same seed must report the
   same work counters: every per-layer metric whose unit is not a time
   (calls, Smith input shapes, kernel dimension, cycles enumerated, bytes
   read and written, and the ratios built from them).  Both runs must pass
   every output check.
2. In a directory holding only ``BENCHMARK.json`` and the benchmark's own
   files, the benchmark must exit non-zero without printing a result.

Runs are small (``--seconds 2``) and made one after another.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_UNITS = {"s", "1/s", "s/s"}


def traced_counters(command, workload, seed) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", "2", "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload}: {result['failed']} failed ops\n{proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] not in TIME_UNITS}


def check_bare_directory(bench) -> str | None:
    with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        argv = bench["command"] + ["--workload", bench["workloads"][0]["name"],
                                   "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        return f"exit {proc.returncode}, stdout {proc.stdout!r}"
    return None


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    (HERE / "out").mkdir(exist_ok=True)
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        first = traced_counters(bench["command"], workload, 7)
        second = traced_counters(bench["command"], workload, 7)
        diff = sorted(k for k in first if first[k] != second.get(k))
        status = "ok" if not diff and first.keys() == second.keys() else "DIFFERS"
        failures += status != "ok"
        print(f"{workload}: {len(first)} counters repeat: {status}")
        for key in diff:
            print(f"  {key}: {first[key]} then {second.get(key)}")
    problem = check_bare_directory(bench)
    failures += problem is not None
    print(f"bare directory exits non-zero without a result: {problem or 'ok'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
