import functools
import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fillbound.filling
import fillbound.intlin
from fillbound import cli, fileio
from fillbound.chains import (
    Chain,
    SimplicialComplex,
    boundary,
    boundary_matrix,
    chain_from_simplices,
    mass,
    path_chain,
)
from fillbound.errors import CapacityError, DomainError, StructuralError
from fillbound.filling import (
    ABS_TOL,
    DEFAULT_MAX_CYCLE_EDGES,
    Hf1Profile,
    _mass_kernel,
    _mass_table,
    _median_fill,
    _min_mass_vector,
    _staircase,
    _tie_slack,
    amin_upper_bound,
    boundary_smith,
    dual_graph,
    enumerate_simple_cycles,
    fill_boundary,
    h1_is_trivial,
    hf1_profile,
    min_mass_fill,
    rank_d1,
)
from fillbound.intlin import (
    column_echelon_basis,
    coset_min,
    dense_vector,
    rank,
    smith_decomposition,
)
from fillbound.geom import MetricComplex, ball_cover, geodesic_graph
from fillbound.shapes import capped_prism, icosphere, octahedron

from conftest import (
    collected_after,
    complete_complex,
    octahedron_necklace,
    random_boundary,
    random_complex,
)
from test_chains import OCTA, OCTA_COORDS, TRIANGLE, equator_cycle
from test_golden import SPACES as GOLDEN_SPACES
from test_golden import octahedra_sharing_a_face, pinched_octahedra
from test_intlin import (
    dense_column,
    dense_echelon_oracle,
    greedy_reduce,
    list_solve_oracle,
    smith_matrices,
    solve_dense,
)


def heron(p, q, r):
    a = math.dist(p, q)
    b = math.dist(q, r)
    c = math.dist(p, r)
    s = (a + b + c) / 2
    return math.sqrt(max(s * (s - a) * (s - b) * (s - c), 0.0))


def octa_weights():
    lengths = [math.dist(OCTA_COORDS[u], OCTA_COORDS[v]) for u, v in OCTA.simplices(1)]
    areas = [
        heron(OCTA_COORDS[a], OCTA_COORDS[b], OCTA_COORDS[c])
        for a, b, c in OCTA.simplices(2)
    ]
    return {1: lengths, 2: areas}


def brute_force_fills(complex, z, coeff_range=(-1, 0, 1)):
    """All 2-chains with coefficients in coeff_range whose boundary is z."""
    n2 = complex.n_simplices(2)
    hits = []
    for coeffs in itertools.product(coeff_range, repeat=n2):
        c = Chain(2, {i: a for i, a in enumerate(coeffs) if a})
        if boundary(complex, c) == z:
            hits.append(c)
    return hits


TETRA_SURFACE = SimplicialComplex.from_simplices(
    [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
)

# the 6-vertex, 10-triangle real projective plane: H1 = Z/2
RP2 = SimplicialComplex.from_simplices(
    [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
     (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]
)


class TestFillBoundary:
    def test_triangle(self):
        w = chain_from_simplices(TRIANGLE, 2, [((0, 1, 2), 1)])
        c1 = boundary(TRIANGLE, w)
        filled, cert = fill_boundary(TRIANGLE, c1)
        assert filled == w
        assert cert.output_max_coeff == 1
        assert cert.bounds_hold()

    def test_zero(self):
        # on K_25, C(25, 2)^(C(25, 2)/2) is beyond binary64, and inf * 0 is nan
        for k in (TRIANGLE, complete_complex(25, 2)):
            filled, cert = fill_boundary(k, Chain.zero(1))
            assert filled.is_zero()
            assert cert.input_max_coeff == 0
            assert cert.bound_max == 0.0 and cert.bound_l1 == 0.0
            assert cert.bounds_hold()

    def test_octahedron_equator(self):
        z = equator_cycle()
        filled, cert = fill_boundary(OCTA, z)
        assert boundary(OCTA, filled) == z
        assert cert.output_max_coeff == 1
        assert cert.bounds_hold()
        # oracle: some +-1 fill exists (a hemisphere), and ours is one of them
        hits = brute_force_fills(OCTA, z)
        assert hits
        assert filled in hits

    def test_not_a_boundary(self):
        # single edge is not even a cycle, so not a boundary
        with pytest.raises(DomainError):
            fill_boundary(OCTA, Chain(1, {0: 1}))

    def test_dimension_unavailable(self):
        path = SimplicialComplex.from_simplices([(0, 1), (1, 2)])
        with pytest.raises(DomainError):
            fill_boundary(path, Chain(1, {0: 1}))

    def test_k_zero_excluded(self):
        with pytest.raises(DomainError):
            fill_boundary(TRIANGLE, Chain(0, {0: 1}))

    def test_validity_randomized(self, rng):
        checked = 0
        while checked < 200:
            k = random_complex(rng, max_vertices=10)
            if k.dimension < 2:
                continue
            z = random_boundary(rng, k)
            filled, cert = fill_boundary(k, z)
            assert boundary(k, filled) == z
            assert cert.bounds_hold()
            checked += 1

    def test_torsion_pivot(self):
        # the last invariant factor of RP2's boundary matrix is 2, so the
        # generator g does not bound and 2g does
        assert boundary_smith(RP2, 2).diagonal[-1] == 2
        assert not h1_is_trivial(RP2)
        g = chain_from_simplices(RP2, 1, [((0, 1), 1), ((1, 3), 1), ((0, 3), -1)])
        assert boundary(RP2, g).is_zero()
        with pytest.raises(DomainError, match=r"invariant factor d\[\d+\]=2 "):
            fill_boundary(RP2, g)
        filled, cert = fill_boundary(RP2, g * 2)
        assert boundary(RP2, filled) == g * 2
        assert cert.bounds_hold()

    def test_large_lattice_takes_the_greedy_vector(self):
        # K_16: a kernel of dimension 455 on 560 triangles (kernel * n is
        # 254,800), where the greedy reduction lowers the Smith solution's max
        k = complete_complex(16, 2)
        z = boundary(k, Chain(2, {0: 1, 7: -2, 30: 1, 100: 3}))
        snf = boundary_smith(k, 2)
        x0, _ = solve_dense(snf, z.to_vector(k.n_simplices(1)))
        assert (len(snf.kernel_columns()), len(x0)) == (455, 560)
        filled, cert = fill_boundary(k, z)
        assert filled == Chain.from_vector(2, greedy_reduce(x0, snf.kernel_columns()))
        assert (cert.output_max_coeff, cert.output_l1) == (2, 9)
        assert max(map(abs, x0)) == 3
        assert boundary(k, filled) == z and cert.bounds_hold()

    def test_greedy_index_built_once_per_kernel(self, monkeypatch):
        # the row -> columns index is cached on the complex beside the
        # kernel's Smith form, so a second fill reuses it
        k = complete_complex(16, 2)
        z = boundary(k, Chain(2, {0: 1, 7: -2, 30: 1, 100: 3}))
        first = fill_boundary(k, z)
        kernel = boundary_smith(k, 2).kernel_columns()
        assert k._memo[("greedy index", 2)] == fillbound.intlin._greedy_index(kernel, 560)

        def no_rebuild(*args):
            raise AssertionError("the greedy index was rebuilt")

        monkeypatch.setattr(fillbound.filling, "_greedy_index", no_rebuild)
        assert fill_boundary(k, z) == first

    def test_fill_2_boundary_in_solid_tetra(self):
        solid = SimplicialComplex.from_simplices([(0, 1, 2, 3)])
        w = chain_from_simplices(solid, 3, [((0, 1, 2, 3), 1)])
        c2 = boundary(solid, w)
        filled, cert = fill_boundary(solid, c2)
        assert filled == w
        assert cert.k == 2 and cert.bounds_hold()


class TestMinMassFill:
    def test_single_face(self):
        w = octa_weights()
        face = OCTA.simplices(2)[0]
        z = boundary(OCTA, chain_from_simplices(OCTA, 2, [(face, 1)]))
        chain, m = min_mass_fill(OCTA, w, z)
        assert chain == chain_from_simplices(OCTA, 2, [(face, 1)])
        assert m == pytest.approx(w[2][0], rel=1e-9)

    def test_zero(self):
        chain, m = min_mass_fill(OCTA, octa_weights(), Chain.zero(1))
        assert chain.is_zero()
        assert m == 0.0

    def test_octahedron_equator_optimum(self):
        w = octa_weights()
        z = equator_cycle()
        chain, m = min_mass_fill(OCTA, w, z)
        assert boundary(OCTA, chain) == z
        # oracle: enumerate every candidate fill with coefficients in {-1,0,1}
        # (both hemispheres appear) and take the smallest mass by coordinates
        best = min(mass(w[2], c) for c in brute_force_fills(OCTA, z))
        assert best == pytest.approx(2 * math.sqrt(3), rel=1e-12)
        assert m == pytest.approx(best, rel=1e-9)
        assert chain.l1() == 4

    def test_tetra_face(self):
        w = {1: [1.0] * 6, 2: [1.0] * 4}
        z = boundary(
            TETRA_SURFACE, chain_from_simplices(TETRA_SURFACE, 2, [((0, 1, 2), 1)])
        )
        chain, m = min_mass_fill(TETRA_SURFACE, w, z)
        assert m == pytest.approx(1.0, rel=1e-9)

    def test_infeasible(self):
        # two disjoint triangles: the difference of their boundaries is a
        # cycle; each triangle boundary is fillable, but an edge is not
        with pytest.raises(DomainError):
            min_mass_fill(OCTA, octa_weights(), Chain(1, {0: 1}))

    def test_oracle_consistency_randomized(self, rng):
        checked = 0
        while checked < 40:
            k = random_complex(rng, max_vertices=8, max_faces=14)
            if k.dimension < 2:
                continue
            n2 = k.n_simplices(2)
            if n2 > 14:
                continue
            z = random_boundary(rng, k, max_coeff=1)
            w = {
                1: [1.0] * k.n_simplices(1),
                2: [1.0 + 0.25 * (i % 4) for i in range(n2)],
            }
            try:
                chain, m = min_mass_fill(k, w, z)
            except CapacityError:
                continue
            fb_chain, _ = fill_boundary(k, z)
            assert boundary(k, chain) == z
            assert m <= mass(w[2], fb_chain) + 1e-9
            checked += 1

    def test_capacity_incumbent_is_a_fill(self):
        # one case per raise: the coset search's node budget (two octahedra
        # sharing a face, whose kernel columns overlap, so coset_min runs),
        # and a kernel past MIN_MASS_MAX_KERNEL_DIM (complete_complex(8, 2):
        # dimension 35)
        twin = two_octahedra_sharing_a_face()
        k8 = complete_complex(8, 2)
        cases = [
            (twin, {1: [1.0] * twin.n_simplices(1),
                    2: [1.0 + 0.25 * (i % 4) for i in range(twin.n_simplices(2))]},
             Chain(2, {0: 1, 5: -1, 9: 2}).scale(3), 0),
            (k8, {1: [1.0] * k8.n_simplices(1),
                  2: [1.0 + 0.25 * (i % 4) for i in range(k8.n_simplices(2))]},
             Chain(2, {0: 1, 7: -2, 30: 1}), 10 ** 6),
        ]
        for k, w, e, node_budget in cases:
            z = boundary(k, e)
            with pytest.raises(CapacityError) as info:
                min_mass_fill(k, w, z, node_budget=node_budget)
            incumbent = info.value.incumbent
            assert isinstance(incumbent, Chain)
            assert boundary(k, incumbent) == z
            assert info.value.incumbent_cost == mass(w[2], incumbent)

    def test_median_path_takes_any_kernel_dimension(self):
        # 21 disjoint +-1 kernel columns, past MIN_MASS_MAX_KERNEL_DIM: the
        # median path searches nothing, so it fills; here each octahedron's
        # own triangle, lighter than the other seven of its octahedron
        space = octahedron_necklace(21)
        k = space.complex
        assert len(boundary_smith(k, 2).kernel_columns()) == 21 > fillbound.filling.MIN_MASS_MAX_KERNEL_DIM
        first = {}  # octahedron i's first triangle; its centroid has x near 2i
        for t, tri in enumerate(k.simplices(2)):
            first.setdefault(round(sum(space.coords[v][0] for v in tri) / 6), t)
        e = Chain(2, {t: 1 - 2 * (i % 2) for i, t in first.items()})
        chain, m = min_mass_fill(k, space.volumes, boundary(k, e))
        assert chain == e
        assert m == mass(space.triangle_areas, e)

    def test_mass_is_the_chains_own(self):
        # the fill and a tied vector differ in their last bits of mass; the
        # mass reported is the returned chain's, bit for bit
        w2 = [2.0, 1.000000000001, 0.5, 1.000000000001, 1.000000000001, 0.5, 2.0, 2.0]
        z = boundary(OCTA, Chain(2, {4: 3, 6: -1, 7: 1}))
        chain, m = min_mass_fill(OCTA, {1: [1.0] * 12, 2: w2}, z)
        assert chain == Chain(2, {4: 3, 6: -1, 7: 1})
        assert m.hex() == mass(w2, chain).hex() == (7.000000000003).hex()

    def test_equality_on_single_triangle(self):
        w = {1: [1.0] * 3, 2: [2.5]}
        z = boundary(TRIANGLE, chain_from_simplices(TRIANGLE, 2, [((0, 1, 2), 1)]))
        chain, m = min_mass_fill(TRIANGLE, w, z)
        fb_chain, _ = fill_boundary(TRIANGLE, z)
        assert mass(w[2], fb_chain) == pytest.approx(m, rel=1e-12)


def sparse(vec):
    """A dense vector as {index: value}, keys ascending and no zeros."""
    return {i: a for i, a in enumerate(vec) if a}


def vector_mass(weights, vec):
    return mass(weights, Chain.from_vector(2, vec))


def integer_weights(weights):
    """Each weight as the exact rational it is, all scaled by the least common
    multiple of their denominators: (integer weights, the integer of 1)."""
    exact = [Fraction(w) for w in weights]
    one = math.lcm(*(f.denominator for f in exact))
    return [int(f * one) for f in exact], one


def tie_slack(tol, one):
    """The tie rule's slack at relative tolerance tol, as a function of the
    least integer cost: floor(tol * (one + m*))."""
    return lambda least: math.floor(Fraction(tol) * (one + least))


def greedy_weighted_oracle(x, cols, weights):
    """The weighted greedy reduction on dense columns, as it ran before they were sparse."""
    x = x[:]
    if not cols:
        return x
    best = vector_mass(weights, x)
    improved = True
    while improved:
        improved = False
        for col in cols:
            candidates = {0}
            for xi, ci in zip(x, col):
                if ci:
                    q = round(xi / ci)
                    candidates.update((q - 1, q, q + 1))
            best_q = 0
            for q in sorted(candidates):
                if q == 0:
                    continue
                trial_cost = vector_mass(weights, [xi - q * ci for xi, ci in zip(x, col)])
                if trial_cost < best * (1 - 1e-12):
                    best = trial_cost
                    best_q = q
            if best_q:
                x = [xi - best_q * ci for xi, ci in zip(x, col)]
                improved = True
    return x


def weighted_coset_oracle(xr, kernel, weights, slack, node_budget):
    """The branch and bound that min_mass_fill ran before coset_min, on
    integer weights with exact comparisons and counting nodes, then the tie
    rule by listing.

    Takes sparse kernel columns and works on dense copies of them and the
    dense echelon form, starting from xr as given.  The search finds the
    least cost m*; when slack(m*) is positive, every vector of cost at most
    m* + slack(m*) is then listed and the least one kept.  Returns (vector,
    cost, nodes of the search); raises CapacityError carrying the incumbent,
    as min_mass_fill does, once the search uses ``node_budget`` nodes.
    """
    n = len(xr)
    kernel = [dense_column(col, n) for col in kernel]
    best_vec = tuple(xr)
    best_cost = sum(abs(a) * w for a, w in zip(xr, weights))
    if not kernel:
        return list(best_vec), best_cost, 0
    cols, pivots = dense_echelon_oracle(kernel, n)
    r = len(cols)
    next_pivot = pivots[1:] + [n]
    fixed_cost = sum(abs(xr[i]) * weights[i] for i in range(pivots[0]))
    nodes = 0

    def dfs(j, cur, partial):
        nonlocal best_vec, best_cost, nodes
        if j == r:
            if (partial, tuple(cur)) < (best_cost, best_vec):
                best_cost, best_vec = partial, tuple(cur)
            return
        col, p = cols[j], pivots[j]
        hp, base = col[p], cur[p]
        if best_cost < partial:
            return
        limit = (best_cost - partial) // weights[p]
        t_center = round(Fraction(-base, hp))
        for direction in (0, 1, -1):
            t = t_center + direction
            while abs(base + t * hp) <= limit:
                nodes += 1
                if nodes > node_budget:
                    raise CapacityError(
                        f"mass minimization exceeded node budget {node_budget}",
                        incumbent=list(best_vec),
                        incumbent_cost=best_cost,
                    )
                nxt = cur[:p] + [cur[i] + t * col[i] for i in range(p, n)]
                seg = partial + sum(abs(nxt[i]) * weights[i] for i in range(p, next_pivot[j]))
                if seg <= best_cost:
                    dfs(j + 1, nxt, seg)
                if direction == 0:
                    break
                t += direction

    dfs(0, xr, fixed_cost)
    bound = best_cost + slack(best_cost)
    within = []

    def every(j, cur, partial):
        if j == r:
            within.append((tuple(cur), partial))
            return
        col, p = cols[j], pivots[j]
        room = (bound - partial) // weights[p]
        lo = math.ceil(Fraction(-room - cur[p], col[p]))
        for t in range(lo, math.floor(Fraction(room - cur[p], col[p])) + 1):
            nxt = cur[:p] + [cur[i] + t * col[i] for i in range(p, n)]
            seg = partial + sum(abs(nxt[i]) * weights[i] for i in range(p, next_pivot[j]))
            if seg <= bound:
                every(j + 1, nxt, seg)

    if bound > best_cost:
        every(0, xr, fixed_cost)
        best_vec, best_cost = min(within)
    return list(best_vec), best_cost, nodes


def weighted_coset_min(x0, kernel, weights, slack, node_budget):
    """min_mass_fill's branch and bound on any lattice, coset_min from the
    given point, with integer weights and a tie slack."""
    cost, best = sum(abs(a) * w for a, w in zip(x0, weights)), tuple(x0)
    nodes = 0
    if kernel:
        cost, best, nodes = coset_min(x0, column_echelon_basis(kernel), weights, node_budget,
                                      incumbent=(cost, best), slack=slack)
    return list(best), cost, nodes


def greedy_start(x0, kernel, weights):
    """The start min_mass_fill searched from before it used the Smith
    solution: the weighted greedy reduction along sparse kernel columns."""
    return greedy_weighted_oracle(x0, [dense_column(col, len(x0)) for col in kernel], weights)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def gram_schmidt(basis):
    """The Gram-Schmidt vectors of a basis and their coefficients mu[i][j],
    in exact rationals."""
    ortho, mu = [], []
    for v in basis:
        w = [Fraction(a) for a in v]
        mu.append([Fraction(dot(v, u), dot(u, u)) for u in ortho])
        for m, u in zip(mu[-1], ortho):
            w = [a - m * c for a, c in zip(w, u)]
        ortho.append(w)
    return ortho, mu


def lll_reduced(cols):
    """An LLL-reduced basis, with delta 3/4, of the lattice that the dense
    columns span (Lenstra, Lenstra and Lovasz 1982), in exact rationals."""
    b = [col[:] for col in cols]
    ortho, mu = gram_schmidt(b)
    k = 1
    while k < len(b):
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                ortho, mu = gram_schmidt(b)
        lovasz = (Fraction(3, 4) - mu[k][k - 1] ** 2) * dot(ortho[k - 1], ortho[k - 1])
        if dot(ortho[k], ortho[k]) >= lovasz:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            ortho, mu = gram_schmidt(b)
            k = max(k - 1, 1)
    return b


def nearest_plane(x, basis):
    """x less the lattice vector that Babai's nearest-plane rounding in
    ``basis`` picks for it: a point of the same coset."""
    ortho, _ = gram_schmidt(basis)
    y = list(x)
    for v, w in zip(reversed(basis), reversed(ortho)):
        q = round(Fraction(dot(y, w)) / dot(w, w))
        y = [a - q * c for a, c in zip(y, v)]
    return y


def reduced_start(x0, kernel, weights):
    """The weighted greedy reduction along the kernel and its LLL-reduced
    basis, from the point of x0's coset that nearest-plane rounding in that
    basis gives.  Along nearly parallel columns the greedy reduction alone
    can stop near 10^6, and from raw Smith solutions near 10^8 it did, where
    the oracle's search from it runs past 10^6 nodes."""
    dense = [dense_column(col, len(x0)) for col in kernel]
    reduced = lll_reduced(dense)
    return greedy_weighted_oracle(nearest_plane(x0, reduced), dense + reduced, weights)


def outcome(search, *args):
    try:
        return search(*args)
    except CapacityError as err:
        return str(err), err.incumbent, err.incumbent_cost


# weights within 1e-9 relative of each other tie at REL_TOL
NEAR_TIE_WEIGHTS = [1.0, 1.0, 1.0 + 1e-12, 1.0 - 4e-10, 1.0 + 3e-9, 2.0, 2.0 - 1e-11,
                    0.5, 0.5 + 2e-10, math.sqrt(2), math.sqrt(3) / 4]


@st.composite
def weighted_coset_cases(draw):
    """A point of a small lattice coset, float weights with near-ties, a tolerance."""
    a = draw(smith_matrices())
    snf = smith_decomposition(a)
    x = draw(st.lists(st.integers(-3, 3), min_size=a.cols, max_size=a.cols))
    if draw(st.booleans()):
        x = solve_dense(snf, a.mul_vec(x))[0]
    weight = st.sampled_from(NEAR_TIE_WEIGHTS) | st.floats(0.5, 3.0)
    weights = draw(st.lists(weight, min_size=a.cols, max_size=a.cols))
    tol = draw(st.sampled_from([fillbound.filling.REL_TOL, 0.0, 1e-6]))
    budget = draw(st.sampled_from([10 ** 5, 10 ** 5, 20, 1]))
    return x, snf.kernel_columns(), weights, tol, budget


class TestWeightedCosetDifferential:
    """coset_min gives the tie rule's answers, and with no slack those of the
    old branch and bound, in no more nodes."""

    @settings(max_examples=500, deadline=None)
    @given(case=weighted_coset_cases())
    # a draw on which the oracle passed 10^6 nodes from the greedy start
    # along the pairwise reduced kernel, at (-2, -4519155, 258966, ...)
    @example(case=([-11867798, -17245476, 7992, 0, 613500, -1260738, 1888447],
                   [([0, 1, 3], [-9, -10, 1]), ([0, 1, 4, 5, 6], [-38, -55, 2, -4, 6]),
                    ([0, 1, 2, 4, 5, 6], [13367, 19424, -9, -691, 1420, -2127])],
                   [1.99999999999, 0.5, 0.7107659261660222, 0.7107659261660222,
                    0.4330127018922193, 0.4330127018922193, 0.4330127018922193],
                   0.0, 20))
    def test_matches_oracle(self, case):
        x, kernel, weights, tol, budget = case
        big, one = integer_weights(weights)
        slack = tie_slack(tol, one)
        # the oracle needs a reduced start: from raw Smith solutions near 10^8
        # it can run past 10^6 nodes
        start = reduced_start(x, kernel, weights)
        vec, cost, nodes = weighted_coset_oracle(start, kernel, big, slack, 10 ** 6)
        assert weighted_coset_min(start, kernel, big, slack, 10 ** 7)[:2] == (vec, cost)
        args = (start, kernel, big, slack, budget)
        got = outcome(weighted_coset_min, *args)
        if tol:
            assert got[:2] == (vec, cost) or (
                got[0] == f"mass minimization exceeded node budget {budget}")
            return
        # the search raises as soon as it passes its budget, so succeeding on
        # the oracle's node count shows it visits no more nodes
        assert weighted_coset_min(start, kernel, big, slack, nodes)[:2] == (vec, cost)
        if nodes <= budget:
            assert got[:2] == (vec, cost) and got[2] <= nodes
        else:
            message, _, incumbent_cost = outcome(weighted_coset_oracle, *args)
            assert got[:2] == (vec, cost) or (
                got[0] == message and got[2] <= incumbent_cost)

    def test_min_mass_fill_matches_oracle(self, rng):
        checked = 0
        while checked < 40:
            k = random_complex(rng, max_vertices=8, max_faces=14)
            if k.dimension < 2:
                continue
            n2 = k.n_simplices(2)
            z = random_boundary(rng, k, max_coeff=2)
            w = {1: [1.0] * k.n_simplices(1), 2: [rng.choice(NEAR_TIE_WEIGHTS) for _ in range(n2)]}
            snf = boundary_smith(k, 2)
            x0, _ = solve_dense(snf, z.to_vector(k.n_simplices(1)))
            big, one = integer_weights(w[2])
            vec, _, _ = weighted_coset_oracle(x0, snf.kernel_columns(), big,
                                              tie_slack(fillbound.filling.REL_TOL, one), 10 ** 6)
            chain = Chain.from_vector(2, vec)
            assert min_mass_fill(k, w, z) == (chain, mass(w[2], chain))
            checked += 1


def two_octahedra(relabel) -> SimplicialComplex:
    """The octahedron and a copy of it whose vertex v is ``relabel[v]``."""
    second = [tuple(sorted(relabel[v] for v in face)) for face in OCTA.simplices(2)]
    return SimplicialComplex.from_simplices(list(OCTA.simplices(2)) + second)


def two_octahedra_sharing_a_vertex() -> SimplicialComplex:
    """Vertex 0 of the second copy is vertex 0 of the first; a 2-column kernel."""
    return two_octahedra([0] + list(range(6, 11)))


def two_octahedra_sharing_a_face() -> SimplicialComplex:
    """The copies share face (0, 2, 4): 15 triangles, and the two fundamental
    classes of the 2-column kernel overlap there in every basis."""
    return two_octahedra([0, 6, 2, 7, 4, 8])


FILL_SURFACES = {
    "octahedron": octahedron(1.0).complex,
    "icosphere1": icosphere(1).complex,
    "pinched": two_octahedra_sharing_a_vertex(),
}


class TestStartDifferential:
    """Searching from the Smith solution gives the tie rule's fills from the
    old greedy start."""

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(sorted(FILL_SURFACES)), data=st.data())
    def test_matches_greedy_start(self, name, data):
        k = FILL_SURFACES[name]
        n2 = k.n_simplices(2)
        w2 = data.draw(st.lists(st.floats(0.5, 3.0), min_size=n2, max_size=n2))
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=n2, max_size=n2))
        z = boundary(k, Chain.from_vector(2, coeffs))
        snf = boundary_smith(k, 2)
        x0, _ = solve_dense(snf, z.to_vector(k.n_simplices(1)))
        kernel = snf.kernel_columns()
        big, one = integer_weights(w2)
        vec, _, _ = weighted_coset_oracle(greedy_start(x0, kernel, w2), kernel, big,
                                          tie_slack(fillbound.filling.REL_TOL, one), 10 ** 6)
        chain, m = min_mass_fill(k, {1: [1.0] * k.n_simplices(1), 2: w2}, z)
        assert chain == Chain.from_vector(2, vec)
        assert m == mass(w2, chain)


# closed surfaces whose echelon kernel columns are disjoint fundamental classes
MEDIAN_SURFACES = dict(FILL_SURFACES, disjoint=two_octahedra(range(6, 12)))


def near_tie_weights(n2):
    return (st.lists(st.sampled_from(NEAR_TIE_WEIGHTS), min_size=n2, max_size=n2)
            | st.just([1.0] * n2)
            | st.lists(st.floats(0.5, 3.0), min_size=n2, max_size=n2))


class TestMedianDifferential:
    """The weighted median and coset_min give the same fills under the tie
    rule, from the Smith solution."""

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(sorted(MEDIAN_SURFACES)), data=st.data())
    def test_matches_coset_min(self, name, data):
        k = MEDIAN_SURFACES[name]
        n2 = k.n_simplices(2)
        w2 = data.draw(near_tie_weights(n2))
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=n2, max_size=n2))
        z = boundary(k, Chain.from_vector(2, coeffs))
        snf = boundary_smith(k, 2)
        x0, _ = solve_dense(snf, z.to_vector(k.n_simplices(1)))
        big, one = integer_weights(w2)
        vec, _, _ = weighted_coset_min(x0, snf.kernel_columns(), big,
                                       tie_slack(fillbound.filling.REL_TOL, one), 10 ** 7)
        chain, m = min_mass_fill(k, {1: [1.0] * k.n_simplices(1), 2: w2}, z)
        assert chain == Chain.from_vector(2, vec)
        assert m == mass(w2, chain)

    def test_median_path_visits_no_nodes(self):
        # disjoint +-1 columns take the median, which needs no node budget;
        # overlapping columns still run coset_min, which raises at once
        twin = two_octahedra_sharing_a_face()
        e = Chain(2, {0: 1, 3: -1, 5: 2}).scale(3)
        for k in [*MEDIAN_SURFACES.values(), twin]:
            w = {1: [1.0] * k.n_simplices(1),
                 2: [1.0 + 0.25 * (i % 4) for i in range(k.n_simplices(2))]}
            z = boundary(k, e)
            if k is twin:
                with pytest.raises(CapacityError, match="exceeded node budget 0"):
                    min_mass_fill(k, w, z, node_budget=0)
            else:
                chain, _ = min_mass_fill(k, w, z, node_budget=0)
                assert boundary(k, chain) == z

    def test_median_fill_leaves_no_cycles(self):
        # the median path builds no closure that refers to itself, so a fill
        # frees everything it made when it returns
        k = two_octahedra(range(6, 12))
        w = {1: [1.0] * k.n_simplices(1), 2: [NEAR_TIE_WEIGHTS[i % 11] for i in range(16)]}
        z = boundary(k, Chain(2, {0: 2, 3: -1, 9: 3}))
        assert collected_after(lambda: min_mass_fill(k, w, z)) == 0


class TestFillMemory:
    """What a fill keeps after it returns."""

    def test_mass_table_keeps_the_last_table(self):
        # a caller that varies the weights on one complex keeps one table,
        # and each fill is the one a complex with nothing cached gives
        space = icosphere(2)
        k, faces = space.complex, space.complex.simplices(2)
        rng = random.Random(5)
        for _ in range(100):
            w = {1: space.volumes[1],
                 2: [a * rng.uniform(0.9, 1.1) for a in space.volumes[2]]}
            e = {t: rng.choice((1, -1, 2)) for t in rng.sample(range(320), 6)}
            z = boundary(k, Chain(2, e))
            fresh = SimplicialComplex.from_simplices(faces, n_vertices=k.n_vertices)
            assert min_mass_fill(k, w, z) == min_mass_fill(fresh, w, z)
            assert list(k._memo["mass table"]) == [tuple(w[2])]

    def test_coset_min_fill_leaves_no_cycles(self):
        # coset_min's recursive dfs drops its reference to itself on return
        k = two_octahedra_sharing_a_face()
        w = {1: [1.0] * k.n_simplices(1), 2: [1.0] * k.n_simplices(2)}
        z = boundary(k, Chain(2, {0: 1, 5: -1, 9: 2}))
        assert _mass_kernel(k)[1] is None  # the fill runs coset_min
        assert collected_after(lambda: min_mass_fill(k, w, z)) == 0


# the spaces of the tie rule's tests: disjoint fundamental classes (the
# median path) and two that overlap (coset_min)
RULE_SPACES = dict(MEDIAN_SURFACES, shared_face=two_octahedra_sharing_a_face())


def rule_box_oracle(complex, w2, z, upper):
    """The tie rule by exhaustion in exact rationals, given an upper bound
    ``upper`` on the least mass m* (the mass of any fill of z).

    Every fill of mass at most U = upper + REL_TOL * (1 + upper) has
    |y_i| <= U / w_i on each row, so it lies in the box that the listing
    below walks level by level over a dense echelon basis of ker d2: a shift
    whose pivot row leaves the box, or whose rows fixed so far weigh more
    than U, holds no such fill.  Every fill of mass at most
    m* + REL_TOL * (1 + m*) <= U is listed, and the least one is returned.
    """
    tol = Fraction(fillbound.filling.REL_TOL)
    exact = [Fraction(w) for w in w2]
    bound = upper + tol * (1 + upper)
    snf = boundary_smith(complex, 2)
    x0, _ = solve_dense(snf, z.to_vector(complex.n_simplices(1)))
    n = len(x0)
    cols, pivots = dense_echelon_oracle([dense_column(c, n) for c in snf.kernel_columns()], n)
    ends = pivots[1:] + [n]
    fills = []

    def walk(j, cur, partial):
        if j == len(cols):
            fills.append((partial, tuple(cur)))
            return
        col, p = cols[j], pivots[j]
        room = math.floor((bound - partial) / exact[p])
        for t in range(math.ceil(Fraction(-room - cur[p], col[p])),
                       math.floor(Fraction(room - cur[p], col[p])) + 1):
            nxt = [a + t * c for a, c in zip(cur, col)]
            seg = partial + sum(exact[i] * abs(nxt[i]) for i in range(p, ends[j]) if nxt[i])
            if seg <= bound:
                walk(j + 1, nxt, seg)

    walk(0, x0, sum(exact[i] * abs(x0[i]) for i in range(pivots[0]) if x0[i]))
    least = min(m for m, _ in fills)
    return list(min(y for m, y in fills if m <= least + tol * (1 + least)))


def exact_mass(w2, vec):
    return sum(Fraction(w) * abs(a) for w, a in zip(w2, vec))


def sparse_fills(n2):
    """2-chains on at most four triangles, so that fills stay light and the
    box oracle's listing short."""
    return st.dictionaries(st.integers(0, n2 - 1), st.integers(-3, 3), max_size=4)


class TestTieRule:
    """Every minimum-mass fill is the lexicographically least fill of mass at
    most m* + REL_TOL * (1 + m*), with exact masses, on both paths."""

    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(sorted(RULE_SPACES)), data=st.data())
    def test_matches_box_oracle(self, name, data):
        k = RULE_SPACES[name]
        n2 = k.n_simplices(2)
        w2 = data.draw(near_tie_weights(n2))
        z = boundary(k, Chain(2, data.draw(sparse_fills(n2))))
        chain, m = min_mass_fill(k, {1: [1.0] * k.n_simplices(1), 2: w2}, z)
        got = chain.to_vector(n2)
        assert got == rule_box_oracle(k, w2, z, exact_mass(w2, got))
        # the other path on the same coset: coset_min on the median surfaces
        snf = boundary_smith(k, 2)
        x0, _ = solve_dense(snf, z.to_vector(k.n_simplices(1)))
        big, one = integer_weights(w2)
        vec, _, _ = weighted_coset_min(x0, snf.kernel_columns(), big,
                                       tie_slack(fillbound.filling.REL_TOL, one), 10 ** 7)
        assert vec == got

    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(sorted(RULE_SPACES)), data=st.data())
    def test_start_independent(self, name, data):
        """Any point of the coset gives the same fill: the answer depends on
        no start."""
        k = RULE_SPACES[name]
        n2 = k.n_simplices(2)
        w2 = data.draw(near_tie_weights(n2))
        z = boundary(k, Chain(2, data.draw(sparse_fills(n2))))
        snf = boundary_smith(k, 2)
        x0, _ = solve_dense(snf, z.to_vector(k.n_simplices(1)))
        kernel = snf.kernel_columns()
        qs = data.draw(st.lists(st.integers(-10 ** 4, 10 ** 4),
                                min_size=len(kernel), max_size=len(kernel)))
        shifted = x0[:]
        for (rows, vals), q in zip(kernel, qs):
            for i, v in zip(rows, vals):
                shifted[i] += q * v
        table = _mass_table(k, w2)
        assert (_min_mass_vector(k, table, sparse(shifted), (1,), 10 ** 7)
                == _min_mass_vector(k, table, sparse(x0), (1,), 10 ** 7))

    def test_near_tie_goes_to_the_smaller_fill(self):
        # (12, -11, -2, 3) has the least mass; (4, -3, -10, 11) is heavier by
        # less than REL_TOL * (1 + m*) and lexicographically smaller, so it
        # wins, whichever of the two a search meets first.
        w2 = [1.000000003, 0.999999998, 1.0000000007, 1.000000003]
        z = boundary(TETRA_SURFACE, Chain.from_vector(2, [15, -14, 1, 0]))
        chain, m = min_mass_fill(TETRA_SURFACE, {1: [1.0] * 6, 2: w2}, z)
        assert chain == Chain.from_vector(2, [4, -3, -10, 11])
        assert m == mass(w2, chain)
        least = exact_mass(w2, [12, -11, -2, 3])
        tol = Fraction(fillbound.filling.REL_TOL)
        assert least < exact_mass(w2, [4, -3, -10, 11]) <= least + tol * (1 + least)
        assert rule_box_oracle(TETRA_SURFACE, w2, z, least) == [4, -3, -10, 11]

    # near-ties that a rule following the search's visiting order settles the
    # other way, found among 80,000 near-tie fills on MEDIAN_SURFACES with
    # coefficients in [-30, 30]: (surface, weights, coefficients of a fill,
    # the fill that order picks)
    ORDER_FILLS = [
        ("octahedron",
         [1.99999999999, 1.000000003, 0.5000000002, 0.5, 0.9999999996, 1.000000003, 0.5,
          0.5000000002],
         [20, 25, 8, -16, -22, -5, -1, -24],
         [19, 26, 9, -17, -21, -6, -2, -23]),
        ("disjoint",
         [math.sqrt(2), 1.000000003, 1.0, 1.0, 1.000000000001, 1.000000003, 1.000000000001,
          1.0, 0.9999999996, 2.0, 1.000000003, 1.0, 0.5, 1.000000000001, 0.5, 1.000000003],
         [16, -11, -21, 14, -5, 5, 23, 10, 19, -18, 21, -20, 25, 30, -24, 22],
         [2, 3, -7, 0, 9, -9, 9, 24, 39, -38, 1, 0, 5, 50, -4, 2]),
    ]

    @pytest.mark.parametrize("name,w2,coeffs,old", ORDER_FILLS)
    def test_order_fills_lose(self, name, w2, coeffs, old):
        k = MEDIAN_SURFACES[name]
        z = boundary(k, Chain.from_vector(2, coeffs))
        chain, _ = min_mass_fill(k, {1: [1.0] * k.n_simplices(1), 2: w2}, z)
        got = chain.to_vector(len(w2))
        snf = boundary_smith(k, 2)
        x0, _ = solve_dense(snf, z.to_vector(k.n_simplices(1)))
        big, one = integer_weights(w2)
        tol = fillbound.filling.REL_TOL
        assert got == weighted_coset_oracle(x0, snf.kernel_columns(), big,
                                            tie_slack(tol, one), 10 ** 6)[0]
        # that order's fill is within the slack too, but not the least
        least = Fraction(weighted_coset_oracle(x0, snf.kernel_columns(), big,
                                               tie_slack(0, one), 10 ** 6)[1], one)
        assert boundary(k, Chain.from_vector(2, old)) == z and got < old
        assert exact_mass(w2, old) <= least + Fraction(tol) * (1 + least)

    @pytest.mark.parametrize("w2,bad", [
        ([0.0] * 8, 0),
        ([-1.0] * 8, 0),
        ([math.nan] * 8, 0),
        ([1.0, 1.0, math.nan, 1.0, 1.0, 1.0, 1.0, 1.0], 2),
        ([1.0, 1.0, 1.0, 1.0, 1.0, math.inf, 1.0, 1.0], 5),
        ([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0], 7),
        ([1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0], 1),
    ])
    def test_rejects_bad_weights(self, w2, bad):
        face = re.escape(str(OCTA.simplices(2)[bad]))
        with pytest.raises(DomainError, match=f"^triangle {face} has weight"):
            min_mass_fill(OCTA, {1: [1.0] * 12, 2: w2}, equator_cycle())


def median_fill_oracle(x0, cols, where, big, one, totals):
    """``_median_fill`` as it ran for one multiple: the median set-up and the
    walk for a sparse x0, giving a sparse fill with keys ascending."""
    weight_at = [{0: total} for total in totals]
    least = 0
    for i, a in x0.items():
        if where[i] is None:
            least += abs(a) * big[i]
        else:
            j, c = where[i]
            weight_at[j][0] -= big[i]
            weight_at[j][-a * c] = weight_at[j].get(-a * c, 0) + big[i]
    medians = []
    for at, total in zip(weight_at, totals):
        points, below = sorted(at), 0
        for k, t in enumerate(points):
            if 2 * (below + at[t]) >= total:
                break
            below += at[t]
        least += sum(w * abs(b - t) for b, w in at.items())
        medians.append((points[:k], t, below))
    slack = _tie_slack(one, least)
    fill = dict(x0)
    for (rows, vals), at, total, (lower, t, below) in zip(cols, weight_at, totals, medians):
        rate = total - 2 * below
        for b in reversed(lower):
            if (t - b) * rate > slack:
                break
            slack -= (t - b) * rate
            t, below = b, below - at[b]
            rate = total - 2 * below
        t -= slack // rate
        slack %= rate
        if t:
            for i, c in zip(rows, vals):
                fill[i] = fill.get(i, 0) + t * c
    return {i: fill[i] for i in sorted(fill) if fill[i]}


@st.composite
def multiple_cases(draw):
    """A median surface, near-tie 2-weights, the coefficients of a fill and
    some multiples."""
    name = draw(st.sampled_from(sorted(MEDIAN_SURFACES)))
    n2 = MEDIAN_SURFACES[name].n_simplices(2)
    return (name, draw(near_tie_weights(n2)),
            draw(st.lists(st.integers(-3, 3), min_size=n2, max_size=n2)),
            draw(st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True)))


class TestMultipleFills:
    """One solve and one median set-up fill a cycle and its multiples, with
    the fills, key orders and mass bits of filling each multiple alone."""

    @settings(max_examples=300, deadline=None)
    @given(case=multiple_cases())
    # half the octahedron's fundamental class F, whose other half weighs
    # 4.8e-9 more: each unit shift of q * z's fill by -F costs 4.8e-9, and
    # q * z has m* = 4q and slack 1e-9 * (1 + 4q), less than q times z's
    # 5e-9, so 2z and 3z shift one step less than that slack would take
    @example(case=("octahedron", [1.0] * 4 + [1.0 + 4.8e-9, 1.0, 1.0, 1.0],
                   [1, -1, -1, 1, 0, 0, 0, 0], [1, 2, 3]))
    def test_median_matches_single_fills(self, case):
        name, w2, coeffs, multiples = case
        k = MEDIAN_SURFACES[name]
        z = boundary(k, Chain.from_vector(2, coeffs))
        x0, _ = boundary_smith(k, 2).solve_with_obstruction(dict(z.items()))
        big, one, totals = _mass_table(k, w2)
        cols, where = _mass_kernel(k)
        fills = _median_fill(x0, multiples, cols, where, big, one, totals)
        assert len(fills) == len(multiples)
        for q, fill in zip(multiples, fills):
            want = median_fill_oracle({i: q * a for i, a in x0.items()},
                                      cols, where, big, one, totals)
            assert list(fill.items()) == list(want.items())
            assert mass(w2, Chain(2, fill)).hex() == mass(w2, Chain(2, want)).hex()

    @pytest.mark.parametrize("make", [octahedra_sharing_a_face, pinched_octahedra])
    def test_profile_multiples_match_min_mass_fill(self, make, monkeypatch):
        # the shared face runs coset_min per multiple, the pinched pair the median
        space = make()
        k = space.complex
        calls = []
        fills_of = fillbound.filling._min_mass_fills

        def recorded(complex, w2, z, multiples, node_budget):
            fills = fills_of(complex, w2, z, multiples, node_budget)
            calls.append((z, tuple(multiples), fills))
            return fills

        monkeypatch.setattr(fillbound.filling, "_min_mass_fills", recorded)
        hf1_profile(k, space.volumes, [0.0, 4.5, 9.0, 13.0], cycle_budget=90)
        monkeypatch.undo()
        assert any(len(multiples) == 3 for _, multiples, _ in calls)
        for z, multiples, fills in calls:
            assert len(fills) == len(multiples)
            for q, (chain, m) in zip(multiples, fills):
                want, want_mass = min_mass_fill(k, space.volumes, z.scale(q))
                assert list(chain.items()) == list(want.items())
                assert m.hex() == want_mass.hex()

    def test_one_solve_per_kept_loop(self, monkeypatch):
        space = icosphere(1)
        k, w1 = space.complex, space.volumes[1]
        l_max = 3.5
        h1_is_trivial(k)  # the dual graph of d2, outside the count
        solves = []
        solve = fillbound.filling.DualGraph.solve

        def counted(self, z):
            solves.append(z)
            return solve(self, z)

        monkeypatch.setattr(fillbound.filling.DualGraph, "solve", counted)
        prof = hf1_profile(k, space.volumes, [0.0, 2.0, l_max], cycle_budget=2000)
        monkeypatch.undo()
        max_edges = min(int(l_max / min(w1)) + 1, DEFAULT_MAX_CYCLE_EDGES)
        masses = [mass(w1, path_chain(k, loop + [loop[0]]))
                  for loop in enumerate_simple_cycles(k, max_edges, 2000)]
        kept = [m for m in masses if m <= l_max + ABS_TOL]
        assert 0 < len(kept) < len(masses)
        assert len(solves) == len(kept)
        # the census counts each kept loop's multiples: more fills than solves
        assert dict(prof.cycle_census)[l_max] > len(kept)


def dense_median_fill(x0, cols, where, big, one, totals):
    """``_median_fill`` as it ran on a dense x0, giving a dense fill."""
    weight_at = [{0: total} for total in totals]
    least = 0
    for i, a in enumerate(x0):
        if a and where[i] is None:
            least += abs(a) * big[i]
        elif a:
            j, c = where[i]
            weight_at[j][0] -= big[i]
            weight_at[j][-a * c] = weight_at[j].get(-a * c, 0) + big[i]
    medians = []
    for at, total in zip(weight_at, totals):
        points, below = sorted(at), 0
        for k, t in enumerate(points):
            if 2 * (below + at[t]) >= total:
                break
            below += at[t]
        least += sum(w * abs(b - t) for b, w in at.items())
        medians.append((points[:k], t, below))
    slack = _tie_slack(one, least)
    fill = x0[:]
    for (rows, vals), at, total, (lower, t, below) in zip(cols, weight_at, totals, medians):
        rate = total - 2 * below
        for b in reversed(lower):
            if (t - b) * rate > slack:
                break
            slack -= (t - b) * rate
            t, below = b, below - at[b]
            rate = total - 2 * below
        t -= slack // rate
        slack %= rate
        if t:
            for i, c in zip(rows, vals):
                fill[i] += t * c
    return fill


def dense_min_mass_fill(complex, w2, z, node_budget):
    """``min_mass_fill`` as it ran on dense vectors: the list solve, then the
    dense weighted median or coset_min from the dense Smith solution, and the
    refusal past MIN_MASS_MAX_KERNEL_DIM.  Gives (chain, mass bits), a
    CapacityError's (message, incumbent, incumbent_cost) or a DomainError's
    message."""
    x0, reason = list_solve_oracle(boundary_smith(complex, 2),
                                   z.to_vector(complex.n_simplices(1)))
    if x0 is None:
        return f"cycle does not bound: {reason}"
    big, one, totals = _mass_table(complex, w2)
    cols, where = _mass_kernel(complex)
    try:
        if totals is not None:
            vec = dense_median_fill(x0, cols, where, big, one, totals)
        elif len(cols) > fillbound.filling.MIN_MASS_MAX_KERNEL_DIM:
            raise CapacityError(
                f"homogeneous lattice dimension {len(cols)} exceeds "
                f"{fillbound.filling.MIN_MASS_MAX_KERNEL_DIM}; incumbent is not certified optimal",
                incumbent=x0)
        else:
            cost = sum(abs(a) * w for a, w in zip(x0, big))
            vec = coset_min(x0, cols, big, node_budget, incumbent=(cost, tuple(x0)),
                            slack=lambda least: _tie_slack(one, least))[1]
    except CapacityError as err:
        incumbent = Chain.from_vector(2, err.incumbent)
        return str(err), incumbent, mass(w2, incumbent)
    chain = Chain.from_vector(2, vec)
    return chain, mass(w2, chain).hex()


def fill_outcome(complex, w2, z, node_budget):
    """``min_mass_fill``'s answer in ``dense_min_mass_fill``'s terms."""
    try:
        chain, m = min_mass_fill(complex, {1: [1.0] * complex.n_simplices(1), 2: w2}, z,
                                 node_budget=node_budget)
    except CapacityError as err:
        return str(err), err.incumbent, err.incumbent_cost
    except DomainError as err:
        return str(err)
    return chain, m.hex()


@functools.cache
def relabelled_icosphere(level: int, seed: int):
    """icosphere(level) with its vertices shuffled by ``seed``: the same
    surface, with other Smith pivots and so other Smith solutions."""
    base = icosphere(level)
    n = base.complex.n_vertices
    perm = list(range(n))
    random.Random(f"relabel/{level}/{seed}").shuffle(perm)
    coords = [None] * n
    for v in range(n):
        coords[perm[v]] = base.coords[v]
    faces = [tuple(perm[v] for v in f) for f in base.complex.simplices(2)]
    return MetricComplex(complex=SimplicialComplex.from_simplices(faces, n_vertices=n),
                         coords=tuple(coords))


@st.composite
def fill_cases(draw):
    """A complex, its 2-weights and a 1-chain, bounding or not.

    The complex is a random one, a space of RULE_SPACES or a relabelled
    icosphere(1-3) with its triangle areas; the chain is the boundary of at
    most four triangles, or any chain on at most four edges."""
    kind = draw(st.sampled_from(["random", "rule", "icosphere"]))
    if kind == "icosphere":
        space = relabelled_icosphere(draw(st.integers(1, 3)), draw(st.integers(0, 1)))
        k, w2 = space.complex, space.triangle_areas
    else:
        if kind == "rule":
            k = RULE_SPACES[draw(st.sampled_from(sorted(RULE_SPACES)))]
        else:
            k = random_complex(random.Random(draw(st.integers(0, 10 ** 6))),
                               max_vertices=8, max_faces=14)
        w2 = draw(near_tie_weights(k.n_simplices(2)))
    if draw(st.booleans()):
        z = boundary(k, Chain(2, draw(sparse_fills(k.n_simplices(2)))))
    else:
        z = Chain(1, draw(st.dictionaries(st.integers(0, k.n_simplices(1) - 1),
                                          st.integers(-3, 3), max_size=4)))
    return k, w2, z


DUAL_OBSTRUCTION = (r"cycle does not bound: the dual-graph solution's boundary is -?\d+, "
                    r"not -?\d+, on edge \(\d+, \d+\)")


class TestSparseFillDifferential:
    """The sparse solve and median fill give the dense code's Smith
    solutions, obstructions, fills and mass bits."""

    @settings(max_examples=300, deadline=None)
    @given(case=fill_cases())
    def test_matches_dense_code(self, case):
        k, w2, z = case
        snf = boundary_smith(k, 2)
        x0, reason = snf.solve_with_obstruction(dict(z.items()))
        expected = list_solve_oracle(snf, z.to_vector(k.n_simplices(1)))
        assert reason == expected[1]
        if x0 is not None:
            assert list(x0) == sorted(x0) and all(x0.values())
            assert dense_vector(x0, snf.cols) == expected[0]
            if _mass_kernel(k)[1] is not None:
                fill = _min_mass_vector(k, _mass_table(k, w2), x0, (1,), 0)[0]
                assert list(fill) == sorted(fill) and all(fill.values())
        got, want = fill_outcome(k, w2, z, 10 ** 5), dense_min_mass_fill(k, w2, z, 10 ** 5)
        if dual_graph(k) is not None and isinstance(want, str):
            # a pseudomanifold's solve reads the dual graph, which words the
            # obstruction its own way
            assert re.fullmatch(DUAL_OBSTRUCTION, got)
        else:
            assert got == want

    def test_index_out_of_range(self):
        # the dense rhs came from Chain.to_vector, which raised this error
        z = Chain(1, {3: 1, 12: -1})
        for fill in (lambda: min_mass_fill(OCTA, octa_weights(), z),
                     lambda: fill_boundary(OCTA, z)):
            with pytest.raises(StructuralError, match="^chain index 12 out of range 12$"):
                fill()


class TestH1Check:
    def test_sphere_like(self):
        assert h1_is_trivial(OCTA)
        assert h1_is_trivial(TETRA_SURFACE)
        assert h1_is_trivial(TRIANGLE)

    def test_complete_skeleton(self):
        assert h1_is_trivial(complete_complex(6, 2))

    def test_circle(self):
        circle = SimplicialComplex.from_simplices([(0, 1), (1, 2), (0, 2)])
        assert not h1_is_trivial(circle)

    def test_icosphere_3(self):
        space = icosphere(3)
        cx = space.complex
        assert h1_is_trivial(cx)
        face = chain_from_simplices(cx, 2, [(cx.simplices(2)[0], 1)])
        z = boundary(cx, face)
        weights = {1: space.edge_lengths, 2: space.triangle_areas}
        filled, m = min_mass_fill(cx, weights, z)
        assert boundary(cx, filled) == z
        assert m == pytest.approx(space.triangle_areas[0], rel=1e-9)

    def test_annulus(self):
        ann = SimplicialComplex.from_simplices(
            [(0, 1, 3), (1, 3, 4), (1, 2, 4), (2, 4, 5), (0, 2, 5), (0, 3, 5)]
        )
        assert not h1_is_trivial(ann)


def random_multi_component_complex(rng: random.Random) -> SimplicialComplex:
    """Disjoint random pieces of dimension 1 or 2 plus isolated vertices."""
    simplices = []
    offset = 0
    for _ in range(rng.randint(1, 4)):
        piece = random_complex(rng, max_vertices=6, min_vertices=3, max_faces=5)
        top = piece.simplices(2) if rng.random() < 0.5 else piece.simplices(1)
        simplices += [tuple(v + offset for v in s) for s in top]
        offset += piece.n_vertices + rng.randint(0, 2)  # gaps are isolated vertices
    return SimplicialComplex.from_simplices(simplices, n_vertices=offset + rng.randint(0, 2))


class TestH1Differential:
    def test_union_find_rank_matches_dense_rank(self):
        rng = random.Random(7)
        for _ in range(60):
            k = random_multi_component_complex(rng)
            assert rank_d1(k) == rank(boundary_matrix(k, 1))

    def test_verdict_cached(self, monkeypatch):
        k = SimplicialComplex.from_simplices(list(OCTA.simplices(2)))
        assert h1_is_trivial(k)

        def no_algebra(*args, **kwargs):
            raise AssertionError("a cached H1 verdict ran exact algebra")

        monkeypatch.setattr(fillbound.filling, "smith_decomposition", no_algebra)
        monkeypatch.setattr(fillbound.filling, "rank_d1", no_algebra)
        monkeypatch.setattr(fillbound.intlin, "smith_decomposition", no_algebra)
        monkeypatch.setattr(fillbound.intlin, "rank", no_algebra)
        assert h1_is_trivial(k)
        circle = SimplicialComplex.from_simplices([(0, 1), (1, 2), (0, 2)])
        with pytest.raises(AssertionError, match="cached H1 verdict"):
            h1_is_trivial(circle)


def klein_bottle() -> list[tuple[int, int, int]]:
    """A 9-vertex, 18-triangle Klein bottle: the 3 x 3 torus grid, glued to
    itself across one side with a flip.  H1 = Z + Z/2."""
    def vertex(i, j):
        return (-i % 3) if j == 3 else (i % 3) + 3 * j

    return [tri for i in range(3) for j in range(3)
            for tri in ((vertex(i, j), vertex(i + 1, j), vertex(i + 1, j + 1)),
                        (vertex(i, j), vertex(i + 1, j + 1), vertex(i, j + 1)))]


# surfaces whose triangle subsets are bounded, non-orientable, disconnected
# or pinched 2-pseudomanifolds
DUAL_SURFACES = {
    "icosphere1": icosphere(1).complex.simplices(2),
    "rp2": RP2.simplices(2),
    "klein": klein_bottle(),
}
DUAL_CLOSED = {name: make().complex for name, (make, _) in GOLDEN_SPACES.items()}


@st.composite
def pseudomanifold_cases(draw):
    """A subset of a DUAL_SURFACES surface's triangles, or a closed golden
    space; near-tie 2-weights; the boundary of at most four triangles or any
    chain on at most four edges."""
    name = draw(st.sampled_from(sorted(DUAL_SURFACES) + sorted(DUAL_CLOSED)))
    if name in DUAL_CLOSED:
        k = DUAL_CLOSED[name]
    else:
        tris = DUAL_SURFACES[name]
        every = frozenset(range(len(tris)))
        keep = draw(st.just(every) | st.sets(st.sampled_from(sorted(every)), min_size=1))
        k = SimplicialComplex.from_simplices([tris[i] for i in sorted(keep)])
    n1, n2 = k.n_simplices(1), k.n_simplices(2)
    if draw(st.booleans()):
        z = boundary(k, Chain(2, draw(sparse_fills(n2))))
    else:
        z = Chain(1, draw(st.dictionaries(st.integers(0, n1 - 1), st.integers(-3, 3),
                                          max_size=4)))
    return k, draw(near_tie_weights(n2)), z


def smith_columns(cols):
    return [(list(rows), list(vals)) for rows, vals in cols]


class TestDualGraph:
    """On a 2-pseudomanifold the dual graph gives the Smith form's H1 verdict,
    echelon kernel, solvability and fills, and d2 is never put in Smith form."""

    @settings(max_examples=300, deadline=None)
    @given(case=pseudomanifold_cases())
    def test_matches_smith_oracle(self, case):
        k, w2, z = case
        dual = dual_graph(k)
        assert dual is not None
        snf = boundary_smith(k, 2)
        cycle_rank = k.n_simplices(1) - rank_d1(k)
        assert h1_is_trivial(k) == (snf.rank == cycle_rank
                                    and all(d in (0, 1) for d in snf.diagonal))
        assert dual.rank == snf.rank
        assert (smith_columns(_mass_kernel(k)[0])
                == smith_columns(column_echelon_basis(snf.kernel_columns())))
        x0, reason = dual.solve(dict(z.items()))
        smith_x0, _ = solve_dense(snf, z.to_vector(k.n_simplices(1)))
        assert (x0 is None) == (smith_x0 is None)
        outcome = fill_outcome(k, w2, z, 10 ** 5)
        if x0 is None:
            assert outcome == f"cycle does not bound: {reason}"
            assert re.fullmatch(DUAL_OBSTRUCTION, outcome)
            return
        assert list(x0) == sorted(x0) and all(x0.values())
        assert boundary(k, Chain(2, x0)) == z
        big, one = integer_weights(w2)
        vec, _, _ = weighted_coset_min(smith_x0, snf.kernel_columns(), big,
                                       tie_slack(fillbound.filling.REL_TOL, one), 10 ** 7)
        chain = Chain.from_vector(2, vec)
        assert outcome == (chain, mass(w2, chain).hex())

    def test_klein_bottle_has_torsion(self):
        k = SimplicialComplex.from_simplices(klein_bottle())
        assert (k.n_simplices(1), k.n_simplices(2)) == (27, 18)
        assert dual_graph(k).torsion and not h1_is_trivial(k)
        assert boundary_smith(k, 2).diagonal[-1] == 2

    def test_no_pseudomanifold(self):
        # an edge of the shared face lies in three triangles
        assert dual_graph(two_octahedra_sharing_a_face()) is None
        assert dual_graph(SimplicialComplex.from_simplices([(0, 1), (1, 2)])) is None

    @staticmethod
    def smith_shapes(monkeypatch):
        shapes = []
        smith = fillbound.filling.smith_decomposition

        def recorded(a):
            shapes.append((a.rows, a.cols))
            return smith(a)

        monkeypatch.setattr(fillbound.filling, "smith_decomposition", recorded)
        return shapes

    def test_only_nerves_take_smith_forms(self, tmp_path, monkeypatch):
        space = capped_prism(6, 2)
        nerve = geodesic_graph(space, ball_cover(space, 1.2)).nerve
        fileio.save_space(str(tmp_path / "space.json"), space)
        fileio.save_chain(str(tmp_path / "cycle.json"), space,
                          path_chain(space.complex, [7, 8, 9, 10, 11, 12, 7]))
        shapes = self.smith_shapes(monkeypatch)
        assert cli.main(["fill", "--space", str(tmp_path / "space.json"),
                         "--cycle", str(tmp_path / "cycle.json"), "--radius", "1.2",
                         "--out", str(tmp_path / "fill.json")]) == 0
        assert shapes and set(shapes) == {(nerve.n_simplices(1), nerve.n_simplices(2))}
        shapes.clear()
        ico = icosphere(2)
        hf1_profile(ico.complex, ico.volumes, [0.0, 2.0, 4.0], cycle_budget=150)
        assert shapes == []

    def test_non_pseudomanifold_takes_smith_form(self, monkeypatch):
        space = octahedra_sharing_a_face()
        k = space.complex
        shapes = self.smith_shapes(monkeypatch)
        hf1_profile(k, space.volumes, [0.0, 4.5, 9.0], cycle_budget=90)
        assert shapes == [(k.n_simplices(1), k.n_simplices(2))]


class TestHf1Profile:
    def test_tetra_profile(self):
        w = {1: [1.0] * 6, 2: [1.0] * 4}
        prof = hf1_profile(TETRA_SURFACE, w, [0.0, 2.0, 3.0, 4.0], cycle_budget=100)
        by_l = dict(prof.samples)
        assert by_l[0.0] == 0.0
        assert by_l[2.0] == 0.0  # no nonzero cycle of mass < 3
        # oracle: the only mass-3 cycles are face triangles; the optimal fill
        # of a face triangle among unit-weight faces has mass exactly 1
        assert by_l[3.0] == pytest.approx(1.0, rel=1e-9)
        assert prof.estimate_kind == "lower"

    def test_monotone_and_dominated(self):
        w = {1: [1.0] * 6, 2: [1.0] * 4}
        prof = hf1_profile(TETRA_SURFACE, w, [0.0, 1.0, 3.0, 4.0, 6.0], cycle_budget=100)
        vals = [e for _, e in prof.samples]
        assert vals == sorted(vals)
        for l, e in prof.samples:
            assert e <= prof.fitted_f1 * l + prof.fitted_f2 + 1e-9
        assert prof.fitted_f1 >= 0

    def test_weight_scaling(self):
        w = {1: [1.0] * 6, 2: [1.0] * 4}
        w_scaled = {1: w[1], 2: [3.0 * x for x in w[2]]}
        grid = [0.0, 3.0, 4.0]
        p1 = hf1_profile(TETRA_SURFACE, w, grid, cycle_budget=100)
        p2 = hf1_profile(TETRA_SURFACE, w_scaled, grid, cycle_budget=100)
        for (l1, e1), (l2, e2) in zip(p1.samples, p2.samples):
            assert l1 == l2
            assert e2 == pytest.approx(3.0 * e1, rel=1e-9)

    def test_nontrivial_h1_rejected(self):
        circle = SimplicialComplex.from_simplices([(0, 1), (1, 2), (0, 2)])
        with pytest.raises(DomainError):
            hf1_profile(circle, {1: [1.0] * 3, 2: []}, [1.0], cycle_budget=10)

    @pytest.mark.parametrize("w", [0.0, math.inf])
    def test_bad_edge_weight_rejected(self, w):
        # a zero weight divided l_max (ZeroDivisionError); an infinite one
        # dropped every cycle through its edge (census 6 and 37, not 8 and 58)
        space = octahedron(1.0)
        w1 = list(space.edge_lengths)
        w1[3] = w
        with pytest.raises(DomainError, match=r"edge \(0, 5\) has weight .* not finite and positive"):
            hf1_profile(space.complex, {1: w1, 2: space.triangle_areas}, [0.0, 5.0, 9.0],
                        cycle_budget=50)

    def test_valid_edge_census(self):
        # the census the infinite-weight case above got wrong
        space = octahedron(1.0)
        prof = hf1_profile(space.complex, space.volumes, [0.0, 5.0, 9.0], cycle_budget=50)
        assert [n for _, n in prof.cycle_census] == [0, 8, 58]


def double_loop_staircase(members, grid):
    """``hf1_profile``'s samples and census as it found them before the
    sweep: every grid point scans every member."""
    samples, census = [], []
    for l in grid:
        est, count = 0.0, 0
        for m1, fm in members:
            if m1 <= l + ABS_TOL:
                count += 1
                est = max(est, fm)
        samples.append((l, est))
        census.append((l, count))
    return tuple(samples), tuple(census)


def max_loop_estimate(samples, l):
    """``Hf1Profile.estimate_at`` before it read the staircase by bisection."""
    best = 0.0
    for li, ei in samples:
        if li <= l + ABS_TOL:
            best = max(best, ei)
    return best


class TestStaircaseDifferential:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_sweep_matches_double_loop(self, data):
        grid = sorted(set(data.draw(st.lists(st.floats(0, 20), min_size=1, max_size=10))))
        # masses on a grid point, exactly at l + ABS_TOL, just past it, or anywhere
        at_edge = [x for l in grid for x in (l, l + ABS_TOL, math.nextafter(l + ABS_TOL, math.inf))]
        m1 = st.one_of(st.sampled_from(at_edge), st.floats(0, 25))
        members = data.draw(st.lists(st.tuples(m1, st.floats(0, 50)), max_size=30))
        samples, census = _staircase(members, grid)
        assert (samples, census) == double_loop_staircase(members, grid)
        prof = Hf1Profile(samples, 0.0, 0.0, census)
        for l in at_edge + [x - ABS_TOL for x in at_edge] + [-1.0, 30.0]:
            assert prof.estimate_at(l) == max_loop_estimate(samples, l)


def eager_hop_cycles(complex, max_edges, limit):
    """``enumerate_simple_cycles`` as it ran with every root's whole-graph
    hop distances found before the first sweep (-1 where unreachable)."""
    n = complex.n_vertices
    nbrs = [[] for _ in range(n)]
    for (u, v) in complex.simplices(1):
        nbrs[u].append(v)
        nbrs[v].append(u)
    for lst in nbrs:
        lst.sort()
    out = []

    def hop_distances(root):
        dist = [-1] * n
        dist[root] = 0
        frontier = [root]
        while frontier:
            nxt_frontier = []
            for v in frontier:
                for w in nbrs[v]:
                    if dist[w] < 0:
                        dist[w] = dist[v] + 1
                        nxt_frontier.append(w)
            frontier = nxt_frontier
        return dist

    def dfs(root, hops, length, path, on_path):
        if len(out) >= limit:
            return
        for nxt in nbrs[path[-1]]:
            if len(out) >= limit:
                return
            if nxt == root and len(path) == length and path[1] < path[-1]:
                out.append(path[:])
            elif (nxt > root and nxt not in on_path and len(path) < length
                  and hops[nxt] <= length - len(path)):
                path.append(nxt)
                on_path.add(nxt)
                dfs(root, hops, length, path, on_path)
                on_path.discard(nxt)
                path.pop()

    root_hops = [hop_distances(root) for root in range(n)]
    for length in range(3, max_edges + 1):
        for root in range(n):
            if len(out) >= limit:
                return out
            dfs(root, root_hops[root], length, [root], {root})
    return out


ENUMERATION_SHAPES = {
    "octahedron": OCTA,
    "icosphere1": icosphere(1).complex,
    "capped_prism": capped_prism(6, 2).complex,
    "shared_face": two_octahedra_sharing_a_face(),
}


class TestCycleEnumeration:
    def test_tetra_counts(self):
        # oracle: K4 has exactly 3 + 4 = 7 simple cycles (4 triangles, 3 squares)
        loops = enumerate_simple_cycles(TETRA_SURFACE, max_edges=4, limit=100)
        assert len(loops) == 7
        tri = [l for l in loops if len(l) == 3]
        assert len(tri) == 4

    def test_loop_chain_is_cycle(self):
        for loop in enumerate_simple_cycles(OCTA, max_edges=6, limit=50):
            z = path_chain(OCTA, loop + [loop[0]])
            assert boundary(OCTA, z).is_zero()

    def test_budget_respected(self):
        loops = enumerate_simple_cycles(OCTA, max_edges=8, limit=5)
        assert len(loops) == 5

    @pytest.mark.parametrize("name", sorted(ENUMERATION_SHAPES))
    @pytest.mark.parametrize("max_edges,limit", [(3, 10 ** 6), (5, 40), (6, 10 ** 6),
                                                 (8, 300), (12, 150)])
    def test_matches_eager_hops(self, name, max_edges, limit):
        # hop distances found per root and cut at the cycle length prune
        # exactly as whole-graph ones did
        k = ENUMERATION_SHAPES[name]
        assert (enumerate_simple_cycles(k, max_edges, limit)
                == eager_hop_cycles(k, max_edges, limit))

    def test_leaves_no_cycles(self):
        # the recursive dfs drops its reference to itself on return
        k = icosphere(1).complex
        assert collected_after(lambda: enumerate_simple_cycles(k, 6, 50)) == 0


class TestAminBound:
    def test_factor_60_at_n4(self):
        assert amin_upper_bound(1.0, 4) == 60.0

    def test_zero(self):
        assert amin_upper_bound(0.0, 7) == 0.0

    def test_n2(self):
        assert amin_upper_bound(2.5, 2) == pytest.approx(7.5)

    def test_linear(self):
        for t in (0.25, 1.0, 3.5):
            assert amin_upper_bound(t, 4) == pytest.approx(60.0 * t)

    @pytest.mark.parametrize("t,n", [(1e307, 4), (math.inf, 4), (1.0, 170), (1.0, 10 ** 4)])
    def test_overflow_names_its_cause(self, t, n):
        # the bound used to come back inf, and the report writer refused it
        # as a "non-finite float in document"
        with pytest.raises(DomainError, match=re.escape(f"the area bound ({n + 1}!/2) * ")):
            amin_upper_bound(t, n)
