"""Per-layer tracing of the fillbound library from outside it.

The tracer replaces the public functions named in ``TRACED`` with wrappers
that record one span per call: name, op id, parent span, start and end.  A
function is replaced in every fillbound module that holds it, so a call
such as ``geom.pipeline_fill -> filling.h1_is_trivial`` is seen even though
``geom`` imported the name from ``filling``.  Methods are replaced on their
class.  Nothing under ``src/`` is edited; ``uninstall`` puts the originals
back.

Spans stay in memory and are written out once, by ``write_spans``, after
the run.  A few calls also feed deterministic work counters (Smith input
shapes, nerve kernel dimension, cycles enumerated, bytes read and written),
which depend only on the inputs, never on timing.
"""

from __future__ import annotations

import importlib
import json
import os
import time

# Metric name -> (module, attribute or Class.method).
TRACED = {
    "chains.boundary": ("chains", "boundary"),
    "intlin.rank": ("intlin", "rank"),
    "intlin.smith_decomposition": ("intlin", "smith_decomposition"),
    "intlin.solve_with_obstruction": ("intlin", "SmithDecomposition.solve_with_obstruction"),
    "filling.h1_is_trivial": ("filling", "h1_is_trivial"),
    "filling.fill_boundary": ("filling", "fill_boundary"),
    "filling.min_mass_fill": ("filling", "min_mass_fill"),
    "filling.enumerate_simple_cycles": ("filling", "enumerate_simple_cycles"),
    "filling.hf1_profile": ("filling", "hf1_profile"),
    "geom.ball_cover": ("geom", "ball_cover"),
    "geom.geodesic_graph": ("geom", "geodesic_graph"),
    "geom.nerve": ("geom", "nerve"),
    "geom.decompose_cycle": ("geom", "decompose_cycle"),
    "geom.neck_contract": ("geom", "neck_contract"),
    "geom.project_cycle_to_graph": ("geom", "project_cycle_to_graph"),
    "geom.cone_fill": ("geom", "cone_fill"),
    "geom.pipeline_fill": ("geom", "pipeline_fill"),
    "fileio.load_space": ("fileio", "load_space"),
    "fileio.load_chain": ("fileio", "load_chain"),
    "fileio.canonical_json": ("fileio", "canonical_json"),
    "fileio.write_atomic": ("fileio", "write_atomic"),
    "cli.main": ("cli", "main"),
}

# Every module searched for references to a traced function.
MODULES = ("chains", "intlin", "filling", "geom", "shapes", "fileio", "cli")

# Counters, all deterministic for a fixed seed and op count.
COUNTERS = (
    "intlin.smith_decomposition.max_rows",
    "intlin.smith_decomposition.max_cols",
    "intlin.kernel_dim",
    "filling.enumerate_simple_cycles.cycles",
    "fileio.bytes_read",
    "fileio.bytes_written",
)


class Tracer:
    """Span recorder; wrappers pass straight through while ``enabled`` is false."""

    def __init__(self):
        self.enabled = False
        self.op = None
        self.spans: list[list] = []  # [name, op, parent, start, end]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._hooks = {
            "intlin.smith_decomposition": self._on_smith,
            "filling.fill_boundary": self._on_fill_boundary,
            "filling.enumerate_simple_cycles": self._on_enumerate,
            "fileio.load_space": self._on_load,
            "fileio.load_chain": self._on_load,
            "fileio.write_atomic": self._on_write,
        }

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [importlib.import_module(f"fillbound.{m}") for m in MODULES]
        for name, (module, attr) in TRACED.items():
            mod = importlib.import_module(f"fillbound.{module}")
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(mod, cls_name)
                self._patch(owner, method, self._wrap(name, owner.__dict__[method]))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def _patch(self, owner, key, wrapper):
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn):
        spans, stack, perf = self.spans, self._stack, time.perf_counter
        hook = self._hooks.get(name)

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(spans)
            span = [name, self.op, stack[-1] if stack else None, 0.0, 0.0]
            spans.append(span)
            stack.append(sid)
            span[3] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    # -- counter hooks ------------------------------------------------------

    def _max(self, key, value):
        self.counters[key] = max(self.counters[key], value)

    def _on_smith(self, args, result):
        self._max("intlin.smith_decomposition.max_rows", args[0].rows)
        self._max("intlin.smith_decomposition.max_cols", args[0].cols)

    def _on_fill_boundary(self, args, result):
        complex_, c_k = args[0], args[1]
        _, cert = result
        self._max("intlin.kernel_dim", complex_.n_simplices(c_k.dim + 1) - cert.rank_used)

    def _on_enumerate(self, args, result):
        self.counters["filling.enumerate_simple_cycles.cycles"] += len(result)

    def _on_load(self, args, result):
        self.counters["fileio.bytes_read"] += os.path.getsize(args[0])

    def _on_write(self, args, result):
        self.counters["fileio.bytes_written"] += len(args[1].encode())

    # -- summaries ----------------------------------------------------------

    def layer_metrics(self, op_ids) -> dict[str, tuple[float, str]]:
        """calls, total_s and self_s per traced function, counters and ratios.

        Calls and times cover set-up and ops; the ratios cover the ops in
        ``op_ids`` only, each over the base its name gives.
        """
        child_time = [0.0] * len(self.spans)
        for name, op, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls = dict.fromkeys(TRACED, 0)
        total = dict.fromkeys(TRACED, 0.0)
        self_time = dict.fromkeys(TRACED, 0.0)
        for sid, (name, op, parent, start, end) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start - child_time[sid]

        out: dict[str, tuple[float, str]] = {}
        for name in TRACED:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.total_s"] = (total[name], "s")
            out[f"{name}.self_s"] = (self_time[name], "s")
        for key, value in self.counters.items():
            out[key] = (value, "bytes" if key.startswith("fileio.bytes") else "count")

        ops = set(op_ids)
        in_ops = [s for s in self.spans if s[1] in ops]
        op_calls = dict.fromkeys(TRACED, 0)
        for s in in_ops:
            op_calls[s[0]] += 1
        fallbacks = sum(
            1 for s in in_ops
            if s[0] == "filling.min_mass_fill"
            and s[2] is not None
            and self.spans[s[2]][0] == "geom.cone_fill"
        )
        reached_e2 = {s[1] for s in in_ops if s[0] == "filling.fill_boundary"}
        n_ops = len(ops)
        out["filling.h1_is_trivial.calls_per_op"] = (
            _ratio(op_calls["filling.h1_is_trivial"], n_ops), "1/op")
        out["intlin.smith_decomposition.calls_per_op"] = (
            _ratio(op_calls["intlin.smith_decomposition"], n_ops), "1/op")
        out["filling.min_mass_fill.calls_per_cone_fill"] = (
            _ratio(fallbacks, op_calls["geom.cone_fill"]), "1/call")
        out["geom.e2_share"] = (_ratio(len(reached_e2), n_ops), "ratio")
        out["trace.op_self_s"] = (
            sum(end - start - child_time[sid]
                for sid, (_, op, _, start, end) in enumerate(self.spans) if op in ops),
            "s")
        return out

    def write_spans(self, path):
        """Write every span as one JSON line, times relative to the first span."""
        t0 = self.spans[0][3] if self.spans else 0.0
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for sid, (name, op, parent, start, end) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": sid, "op": op, "parent": parent, "name": name,
                    "start_s": round(start - t0, 9), "end_s": round(end - t0, 9),
                }) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0
