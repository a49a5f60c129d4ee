#!/usr/bin/env python3
"""fillbound benchmark: one workload per run, from a seed, with exactness checks.

Run from the repository root:

    python3 perfbench/run.py --workload fill_ico2 --seed 1 --seconds 25 --trace 0

Load comes from this one process, single-threaded, as a closed loop with one
client: the next op starts when the previous one has returned and its
output has been checked.  Checks run outside the timed region.

``--trace 0`` runs the workload's ``setups`` set-ups, then ops until their
summed wall time reaches ``--seconds`` and at least ``min_ops`` ops have
run, and reports the end-to-end metrics.  Their times
are corrected for the host's speed (see ``hostspeed.py``); the wall times are
printed beside them.
``--trace 1`` runs a fixed number of ops, derived from ``--seconds`` only, so
that its work counters repeat exactly for a seed.  It runs one set-up and those
ops untraced, then again with the tracer installed, and reports the
per-layer metrics.  Both sets of end-to-end numbers are included, in wall
time, and their difference is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from hostspeed import REF_S, HostSpeed
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
UNITS = {"setup_s": "s", "op_p50_s": "s", "op_p90_s": "s", "ops_per_s": "1/s",
         "peak_rss_mb": "MB"}
# glue allowed outside the root span of an op, as a share of untraced op time
ACCOUNT_TOL = 0.02


def import_library():
    """Import fillbound from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "fillbound" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fillbound sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fillbound

    if Path(fillbound.__file__).resolve().parent != SRC / "fillbound":
        sys.exit(f"perfbench: fillbound was imported from {fillbound.__file__}, not {SRC}")


def wall(t0: float, t1: float) -> float:
    return t1 - t0


class Phase:
    """Set-up and op intervals (``perf_counter`` start and end) and failures
    of one pass over a workload."""

    def __init__(self):
        self.setups: list[tuple[float, float]] = []
        self.ops: list[tuple[float, float]] = []
        self.failures: list[str] = []

    def op_total(self, duration=wall) -> float:
        return sum(duration(*iv) for iv in self.ops)

    def end_to_end(self, duration=wall) -> dict[str, float]:
        """The end-to-end metrics, each interval measured by ``duration``."""
        lat = sorted(duration(*iv) for iv in self.ops)
        n = len(lat)
        return {
            "setup_s": statistics.median(duration(*iv) for iv in self.setups),
            "op_p50_s": statistics.median(lat),
            # a percentile is reported only with ten samples beyond it; with
            # fewer than 100 ops (hf1_ico2 makes 4-6) the median stands in
            "op_p90_s": statistics.quantiles(lat, n=10, method="inclusive")[8]
            if n >= 100 else statistics.median(lat),
            "ops_per_s": n / sum(lat),
        }


def run_phase(wl, n_setups, tracer=None, seconds=None, n_ops=None) -> Phase:
    """Run ``n_setups`` set-ups, then exactly ``n_ops`` ops, or ops until
    ``seconds`` of op wall time and at least ``wl.min_ops`` ops.  With a
    tracer, set-ups and ops are traced; checks never are.

    All set-ups come first: a set-up after the ops peaked at 32.5 to
    34.1 MB between identical runs of ``fill_ico2``, as the heap the ops
    left behind allowed, while set-ups before them always peaked alike."""
    phase = Phase()
    perf = time.perf_counter

    def setup(i):
        # untimed: free what the set-up replaces, so that neither peak
        # memory nor the set-up's own time depends on when the collector
        # last ran
        wl.release(i)
        gc.collect()
        if tracer is not None:
            tracer.op, tracer.enabled = f"setup-{i}", True
        t0 = perf()
        wl.setup(i)
        phase.setups.append((t0, perf()))
        if tracer is not None:
            tracer.enabled = False

    for i in range(n_setups):
        setup(i)
    busy = 0.0
    for inp in wl.inputs():
        j = len(phase.ops)
        if n_ops is not None and j >= n_ops:
            break
        if seconds is not None and busy >= seconds and j >= wl.min_ops:
            break
        if tracer is not None:
            tracer.op, tracer.enabled = j, True
        err = out = None
        t0 = perf()
        try:
            out = wl.op(inp)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            err = exc
        t1 = perf()
        if tracer is not None:
            tracer.enabled = False
        phase.ops.append((t0, t1))
        busy += t1 - t0
        if err is None:
            try:
                wl.check(inp, out)
            except Exception as exc:  # CheckFailed, or a report that does not parse
                err = exc
        if err is not None:
            phase.failures.append(f"op {j}: {type(err).__name__}: {err}")
    return phase


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workloads.OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    try:
        if args.trace:
            result = run_traced(wl, args)
        else:
            result = run_untraced(wl, args)
    finally:
        if hasattr(wl, "close"):
            wl.close()
    print(json.dumps(result))
    return 0


def print_failures(phase: Phase):
    for line in phase.failures[:20]:
        print(f"  FAILED {line}")


def run_untraced(wl, args) -> dict:
    speed = HostSpeed()
    speed.start()
    try:
        phase = run_phase(wl, wl.setups, seconds=args.seconds)
    finally:
        speed.stop()
    e2e = phase.end_to_end(speed.duration)
    e2e["peak_rss_mb"] = peak_rss_mb()
    wall_e2e = phase.end_to_end()
    n, failed = len(phase.ops), len(phase.failures)
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"ops {n}  set-ups {len(phase.setups)}")
    print(f"  host speed: {len(speed.refs)} samples, reference slice median "
          f"{statistics.median(speed.refs) * 1e6:.0f} us (fast host {REF_S * 1e6:.0f} us), "
          f"wall time / corrected time {phase.op_total() / phase.op_total(speed.duration):.3f} "
          f"over the ops")
    print(f"  {'metric':<12} {'corrected':>14}      {'wall':>14}")
    for name, value in e2e.items():
        print(f"  {name:<12} {value:14.6f} {UNITS[name]:<4} {wall_e2e.get(name, value):14.6f}")
    if wl.name == "hf1_ico2":
        print(f"  {'hf1_s':<12} {e2e['op_p50_s']:14.6f} s   (median hf1_profile call)")
    else:
        print(f"  {'hf1_s':<12} {'n/a':>14}     (no hf1_profile call in this workload)")
    print(f"  {'failed_frac':<12} {failed / n:14.6f}     ({failed} of {n} ops)")
    print_failures(phase)
    return {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in e2e.items()},
    }


def run_traced(wl, args) -> dict:
    from workloads import OUT

    # fixed op count: the counters must not depend on how fast this machine is
    n_ops = max(1, round(args.seconds / 2.0 / wl.nominal_op_s))
    plain = run_phase(wl, 1, n_ops=n_ops)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_phase(wl, 1, tracer=tracer, n_ops=n_ops)
    finally:
        tracer.uninstall()
    tracer.write_spans(str(OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"))

    metrics = tracer.layer_metrics(range(n_ops))
    metrics["trace.ops"] = (n_ops, "count")
    plain_e2e, traced_e2e = plain.end_to_end(), traced.end_to_end()
    for name in plain_e2e:
        metrics[f"trace.untraced.{name}"] = (plain_e2e[name], UNITS[name])
        metrics[f"trace.traced.{name}"] = (traced_e2e[name], UNITS[name])
    plain_total, traced_total = plain.op_total(), traced.op_total()
    metrics["trace.untraced.op_total_s"] = (plain_total, "s")
    metrics["trace.traced.op_total_s"] = (traced_total, "s")
    metrics["trace.overhead_s"] = (traced_total - plain_total, "s")
    metrics["trace.overhead_frac"] = ((traced_total - plain_total) / plain_total, "s/s")
    # op time outside every traced call: the glue between library calls
    metrics["trace.unwrapped_s"] = (traced_total - metrics["trace.op_self_s"][0], "s")
    # The self times must account for the untraced op time within the
    # tracing overhead, up to a little glue: every op has a root span.
    gap = abs(plain_total - metrics["trace.op_self_s"][0])
    accounted = gap <= abs(traced_total - plain_total) + ACCOUNT_TOL * plain_total

    failures = plain.failures + traced.failures
    attempted = len(plain.ops) + len(traced.ops)
    print(f"workload {wl.name}  seed {args.seed}  traced ops {n_ops} (plus {n_ops} untraced)")
    for name, (value, unit) in metrics.items():
        text = f"{value:d}" if isinstance(value, int) else f"{value:.6f}"
        print(f"  {name:<48} {text:>16} {unit}")
    print(f"  {'failed_frac':<48} {len(failures) / attempted:16.6f}")
    print(f"  self times {metrics['trace.op_self_s'][0]:.4f} s vs untraced op time "
          f"{plain_total:.4f} s: gap {gap:.4f} s, overhead {traced_total - plain_total:+.4f} s, "
          f"{'accounted' if accounted else 'NOT ACCOUNTED'}")
    print_failures(plain)
    print_failures(traced)
    return {
        "correct": not failures and accounted,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
