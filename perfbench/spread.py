#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's quartiles.

Run from the repository root, for example:

    python3 perfbench/spread.py --workloads fill_ico2,cli_fill_capped --seeds 1-10

Runs are made one after another, never in parallel.  For every end-to-end
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, (q3 - q1) / median, next to the bound in ``BENCHMARK.json``;
a spread above a third of its bound is flagged.  ``--out`` writes the same
figures, with every run's raw values, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(command, workload, seed, seconds, trace) -> tuple[dict, float]:
    """The run's result line and its wall time in seconds, start-up included."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    report = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    flagged = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result, elapsed = run_once(bench["command"], workload, seed, args.seconds, 0)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed ops")
            runs.append({"seed": seed, "attempted": result["attempted"], "run_wall_s": elapsed,
                         **{k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed} ({elapsed:.1f} s): " + "  ".join(
                f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for name, bound in bounds.items():
            stats = summarize([r[name] for r in runs])
            summary[name] = stats
            flag = ""
            if stats["spread"] > bound / 3:
                flag = "  <-- above a third of the bound"
                flagged += 1
            print(f"  {name:<12} median {stats['median']:.6g}  q1 {stats['q1']:.6g}  "
                  f"q3 {stats['q3']:.6g}  spread {stats['spread']:.3f}  bound {bound}{flag}")
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
