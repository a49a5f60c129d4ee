"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
summary.  Every criterion is checked at its stated tolerance and wall-clock
budget.
"""

import math
import random
import sys
import time

from fillbound.chains import Chain, boundary, chain_from_simplices
from fillbound.errors import CapacityError
from fillbound.filling import (
    amin_upper_bound,
    fill_boundary,
    hf1_profile,
    min_mass_fill,
)
from fillbound.geom import (
    ball_cover,
    cone_fill,
    neck_contract,
    pipeline_fill,
    scale_coordinates,
    skeleton_diameter,
)
from fillbound.intlin import IntMatrix, certify_small_solution
from fillbound.shapes import capped_prism, disk, icosphere, octahedron, prism, tetra_boundary

from conftest import det, random_boundary, random_complex
from test_geom import _random_cycle, cycle_from_loop

sys.setrecursionlimit(100000)


def _report(n, label, elapsed, budget, detail=""):
    print(f"ACCEPTANCE {n}: PASS  {label}  ({elapsed:.2f}s < {budget}s) {detail}")


def test_criterion_1_boundary_squared():
    """d o d = 0 on 500 randomized complexes (<= 12 vertices)."""
    t0 = time.perf_counter()
    rng = random.Random(101)
    violations = 0
    for _ in range(500):
        k = random_complex(rng, max_vertices=12)
        for dim in range(2, k.dimension + 1):
            for idx in range(k.n_simplices(dim)):
                dd = boundary(k, boundary(k, Chain(dim, {idx: 1})))
                if not dd.is_zero():
                    violations += 1
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed < 5.0
    _report(1, "chain algebra d o d = 0 on 500 complexes", elapsed, 5)


def test_criterion_2_bfrt_hadamard_certification():
    """500 solvable systems, m <= 3, n <= 8, M_A <= 3: max|x| <= Y <= ceil(bound)."""
    t0 = time.perf_counter()
    rng = random.Random(202)
    violations = 0
    checked = 0
    while checked < 500:
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 8)
        a = IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        )
        if a.max_abs() == 0:
            continue  # the bound assumes M_A >= 1
        x0 = [rng.randint(-2, 2) for _ in range(cols)]
        b = a.mul_vec(x0)
        cert = certify_small_solution(a, b)
        assert cert is not None
        checked += 1
        if cert.solution is None:
            violations += 1
            continue
        sol_max = max(map(abs, cert.solution), default=0)
        if cert.minor_max is None:
            violations += 1
        elif not (sol_max <= cert.minor_max and cert.minor_max <= cert.hadamard_bound_ceiling):
            violations += 1
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed < 60.0
    _report(2, "small-solution certification on 500 systems", elapsed, 60)


def test_criterion_3_hadamard_inequality():
    """1000 random square integer matrices (size <= 5): det^2 <= prod ||col||^2."""
    t0 = time.perf_counter()
    rng = random.Random(303)
    violations = 0
    for _ in range(1000):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        d = det(IntMatrix.from_rows(rows))
        prod = 1
        for col in zip(*rows):
            prod *= sum(x * x for x in col)
        if d * d > prod:
            violations += 1
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed < 2.0
    _report(3, "Hadamard inequality on 1000 matrices", elapsed, 2)


def _min_maxnorm_oracle(rows, b, b_hi, node_cap=2_000_000):
    """Smallest B <= b_hi such that Ax = b has a solution in [-B, B]^n.

    Independent of the library: plain DFS over coefficient columns with
    residual pruning.  Returns (B, nodes) or (None, nodes) when no solution
    exists within b_hi.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    suffix = [[0] * (n + 1) for _ in range(m)]
    for i in range(m):
        for j in range(n - 1, -1, -1):
            suffix[i][j] = suffix[i][j + 1] + abs(rows[i][j])
    total_nodes = 0
    for bound in range(b_hi + 1):
        nodes = 0

        def dfs(j, residual):
            nonlocal nodes
            nodes += 1
            if nodes > node_cap:
                raise CapacityError("oracle budget")
            if j == n:
                return all(r == 0 for r in residual)
            for i in range(m):
                if abs(residual[i]) > bound * suffix[i][j]:
                    return False
            for v in sorted(range(-bound, bound + 1), key=lambda x: (abs(x), x)):
                nxt = [residual[i] - v * rows[i][j] for i in range(m)]
                if dfs(j + 1, nxt):
                    return True
            return False

        hit = dfs(0, list(b))
        total_nodes += nodes
        if hit:
            return bound, total_nodes
    return None, total_nodes


def test_criterion_4_combinatorial_filling():
    """200 random boundaries: exact refill plus the binomial coefficient
    bound; on <= 8 vertices the returned max-norm is within 2x of minimal."""
    t0 = time.perf_counter()
    rng = random.Random(404)
    checked = 0
    while checked < 200:
        k = random_complex(rng, max_vertices=10)
        if k.dimension < 2:
            continue
        z = random_boundary(rng, k, max_coeff=3)
        filled, cert = fill_boundary(k, z)
        assert boundary(k, filled) == z
        # exact comparison of output_max^2 <= C(n0,2)^C(n0,2) * input_max^2
        c = math.comb(k.n_vertices, 2)
        assert filled.max_abs() ** 2 <= c ** c * max(z.max_abs(), 0) ** 2 or z.is_zero()
        assert cert.bounds_hold()
        checked += 1

    confirmed = 0
    rng2 = random.Random(405)
    while confirmed < 40:
        k = random_complex(rng2, max_vertices=8, max_faces=12)
        if k.dimension < 2 or k.n_simplices(2) > 12:
            continue
        z = random_boundary(rng2, k, max_coeff=2)
        if z.is_zero():
            continue
        filled, _ = fill_boundary(k, z)
        fill_max = filled.max_abs()
        a = [[0] * k.n_simplices(2) for _ in range(k.n_simplices(1))]
        from fillbound.chains import boundary_matrix

        bm = boundary_matrix(k, 2)
        rows = bm.to_rows()
        b = z.to_vector(k.n_simplices(1))
        best, _ = _min_maxnorm_oracle(rows, b, fill_max)
        assert best is not None  # the fill itself is a witness
        assert fill_max <= 2 * best
        confirmed += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(
        4,
        "combinatorial filling bound on 200 boundaries + 40 oracle-confirmed optima",
        elapsed,
        120,
    )


def test_criterion_5_min_mass_oracle():
    """Octahedron equator optimum 2*sqrt(3); tetra face optimum = its area."""
    t0 = time.perf_counter()
    space = octahedron(1.0)
    loop = [0, 2, 1, 3]
    z = chain_from_simplices(
        space.complex, 1, [((loop[i], loop[(i + 1) % 4]), 1) for i in range(4)]
    )
    _, m = min_mass_fill(space.complex, space.volumes, z)
    assert abs(m - 2 * math.sqrt(3)) <= 1e-9 * 2 * math.sqrt(3)

    tet = tetra_boundary(1.0)
    face = tet.complex.simplices(2)[0]
    zf = boundary(tet.complex, chain_from_simplices(tet.complex, 2, [(face, 1)]))
    _, mf = min_mass_fill(tet.complex, tet.volumes, zf)
    assert abs(mf - tet.triangle_areas[0]) <= 1e-9 * tet.triangle_areas[0]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(5, "min-mass fill optima (octahedron equator, tetra face)", elapsed, 1)


def test_criterion_6_pipeline_exactness():
    """Exact boundary identity for 50 random cycles on four spaces."""
    t0 = time.perf_counter()
    cases = [
        ("octahedron", octahedron(1.0), 0.8),
        ("icosphere(1)", icosphere(1), 0.7),
        ("icosphere(2)", icosphere(2), 0.8),
        ("capped_prism", capped_prism(6, 2, 1.0), 1.2),
    ]
    rng = random.Random(606)
    for name, space, radius in cases:
        cover = ball_cover(space, radius)
        for _ in range(50):
            z = _random_cycle(rng, space, parts=rng.randint(1, 2))
            e, report = pipeline_fill(space, cover, z)
            assert boundary(space.complex, e) == z, name
            assert report.boundary_verified
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(6, "pipeline exactness, 4 spaces x 50 cycles", elapsed, 120)


def test_criterion_7_cone_bound():
    """Flat disks (n=12, rings=3, r in {1,2}): cone mass <= 1.05 r mass1."""
    t0 = time.perf_counter()
    for r in (1.0, 2.0):
        space = disk(12, 3, r)
        ring = [1 + 2 * 12 + i for i in range(12)]
        z = cycle_from_loop(space, ring)
        filled = cone_fill(space, z, 0)
        assert boundary(space.complex, filled) == z
        assert space.mass2(filled) <= 1.05 * r * space.mass1(z)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(7, "cone fill bound on flat disks r in {1, 2}", elapsed, 5)


def test_criterion_8_neck_contraction():
    """Hexagonal prism: exact swept identity and 1.05 * span * mass1 bound."""
    t0 = time.perf_counter()
    space = prism(6, 1, 1.0)
    top = [6 + i for i in range(6)]
    z = cycle_from_loop(space, top)
    c2, e = neck_contract(space, z, 0.0)
    assert boundary(space.complex, e) == z - c2
    span = 1.0
    assert space.mass2(e) <= 1.05 * span * space.mass1(z)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(8, "neck contraction on the hexagonal prism", elapsed, 1)


def test_criterion_9_hf1_linearity():
    """Fitted envelope dominates the profile with f1 <= 3.0 on icospheres;
    the varifold bound equals 60x the profile at twice the diameter."""
    t0 = time.perf_counter()
    for level in (1, 2):
        space = icosphere(level)
        diam = skeleton_diameter(space)
        at_2d = 2.0 * diam
        grid = [0.0, 1.0, 2.0, 3.0, at_2d]
        prof = hf1_profile(space.complex, space.volumes, grid, cycle_budget=150)
        for l, est in prof.samples:
            assert est <= prof.fitted_f1 * l + prof.fitted_f2 + 1e-9
        assert 0.0 <= prof.fitted_f1 <= 3.0
        vals = [e for _, e in prof.samples]
        assert vals == sorted(vals)
        hf_at_2d = prof.estimate_at(at_2d)
        assert amin_upper_bound(hf_at_2d, 4) == 60.0 * hf_at_2d
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(9, "HF1 envelope linearity on icosphere(1) and icosphere(2)", elapsed, 300)


def test_criterion_10_scale_equivariance():
    """Scaling coordinates by t in {0.5, 2}: mass1 x t, mass2 x t^2, chains fixed."""
    t0 = time.perf_counter()
    space = icosphere(1)
    cover = ball_cover(space, 0.7)
    rng = random.Random(1010)
    cycles = [_random_cycle(rng, space, parts=1) for _ in range(5)]
    base = [pipeline_fill(space, cover, z) for z in cycles]
    base_fills = [
        min_mass_fill(space.complex, space.volumes, z) for z in cycles
    ]
    for t in (0.5, 2.0):
        scaled = scale_coordinates(space, t)
        cover_t = ball_cover(scaled, 0.7 * t)
        for z, (e, rep), (mc, mv) in zip(cycles, base, base_fills):
            e2, rep2 = pipeline_fill(scaled, cover_t, z)
            assert e2 == e  # integer chains unchanged, exact
            assert abs(rep2.input_mass1 - t * rep.input_mass1) <= 1e-9 * abs(t * rep.input_mass1)
            assert abs(rep2.total_mass2 - t * t * rep.total_mass2) <= 1e-9 * abs(
                t * t * rep.total_mass2
            )
            mc2, mv2 = min_mass_fill(scaled.complex, scaled.volumes, z)
            assert mc2 == mc
            assert abs(mv2 - t * t * mv) <= 1e-9 * abs(t * t * mv)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(10, "scale equivariance of masses and integer chains", elapsed, 10)
