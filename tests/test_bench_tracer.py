"""The benchmark's per-layer tracer still finds what it wraps in the library.

``perfbench/tracer.py`` looks its functions up by name and reads the
``rows``/``cols`` of the Smith form's argument, so a renamed function or a
changed matrix type would break ``perfbench/run.py --trace 1`` without any
other test noticing.
"""

import importlib.util
from pathlib import Path

from fillbound import filling
from fillbound.shapes import octahedron

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_smith_shape_of_h1_check():
    tracer = load_tracer_module().Tracer()
    try:
        tracer.install()
        tracer.enabled = True
        assert filling.h1_is_trivial(octahedron().complex)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    assert tracer.counters["intlin.smith_decomposition.max_rows"] == 12
    assert tracer.counters["intlin.smith_decomposition.max_cols"] == 8
    assert [span[0] for span in tracer.spans][:2] == [
        "filling.h1_is_trivial", "intlin.smith_decomposition"]
