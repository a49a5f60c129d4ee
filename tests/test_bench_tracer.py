"""The benchmark's per-layer tracer still finds what it wraps in the library.

``perfbench/tracer.py`` looks its functions up by name and reads the
``rows``/``cols`` of the Smith form's argument and the ``rank_used`` of a
fill's certificate, so a renamed function, a changed matrix type or a
changed certificate would break ``perfbench/run.py --trace 1`` without any
other test noticing.
"""

import importlib.util
from pathlib import Path

from fillbound import filling, geom
from fillbound.chains import Chain, boundary
from fillbound.geom import ball_cover, nerve
from fillbound.shapes import icosphere, octahedron

from test_filling import two_octahedra_sharing_a_face

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_smith_shape_of_h1_check():
    # an edge in three triangles: the H1 check takes the Smith form of d2
    k = two_octahedra_sharing_a_face()
    tracer = load_tracer_module().Tracer()
    try:
        tracer.install()
        tracer.enabled = True
        assert filling.h1_is_trivial(k)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    assert tracer.counters["intlin.smith_decomposition.max_rows"] == k.n_simplices(1) == 21
    assert tracer.counters["intlin.smith_decomposition.max_cols"] == k.n_simplices(2) == 15
    assert [span[0] for span in tracer.spans][:2] == [
        "filling.h1_is_trivial", "intlin.smith_decomposition"]


def test_tracer_counts_kernel_dim_of_nerve_fill():
    k = nerve(ball_cover(octahedron(), 0.8))
    z = boundary(k, Chain(2, {0: 1, 7: -2}))
    tracer = load_tracer_module().Tracer()
    try:
        tracer.install()
        tracer.enabled = True
        filled, _ = filling.fill_boundary(k, z)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    assert boundary(k, filled) == z
    kernel_dim = len(filling.boundary_smith(k, 2).kernel_columns())
    assert kernel_dim == 10
    assert tracer.counters["intlin.kernel_dim"] == kernel_dim
    assert "filling.fill_boundary" in [span[0] for span in tracer.spans]


def test_tracer_sees_cover_graph_and_nerve_built_once():
    space = icosphere(1)
    cover = ball_cover(space, 0.8)
    k = space.complex
    # the boundary of the cap above z = 0.3 reaches the nerve fill (E2)
    cap = [i for i, t in enumerate(k.simplices(2)) if all(space.coords[v][2] > 0.3 for v in t)]
    z = boundary(k, Chain(2, dict.fromkeys(cap, 1)))
    tracer = load_tracer_module().Tracer()
    try:
        tracer.install()
        tracer.enabled = True
        _, first = geom.pipeline_fill(space, cover, z)
        n_first = len(tracer.spans)
        _, second = geom.pipeline_fill(space, cover, z)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    assert first.certificate is not None and second.certificate is not None
    names = [span[0] for span in tracer.spans]
    assert names[:n_first].count("geom.geodesic_graph") == 1
    assert names[:n_first].count("geom.nerve") == 1
    assert "geom.geodesic_graph" not in names[n_first:]
    assert "geom.nerve" not in names[n_first:]
