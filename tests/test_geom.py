import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fillbound.chains import Chain, SimplicialComplex, boundary, chain_from_simplices
from fillbound.errors import DomainError, StructuralError
from fillbound.filling import min_mass_fill
from fillbound.geom import (
    Cover,
    MetricComplex,
    ball_cover,
    chain_to_closed_walks,
    cone_fill,
    decompose_cycle,
    fill_loop_locally,
    fill_walk_on_faces,
    geodesic_graph,
    neck_contract,
    nerve,
    path_chain,
    pipeline_fill,
    project_cycle_to_graph,
    scale_coordinates,
    shortest_path_tree,
    skeleton_diameter,
    tree_path,
    _pair_junctions,
)
from fillbound.shapes import capped_prism, disk, icosphere, octahedron, prism, tetra_boundary

from conftest import (
    casewise_fill_walk_on_faces,
    path_tuple_shortest_path_tree,
    percall_cone_fill,
    rescanning_closed_walks,
)


OCTA = octahedron(1.0)
ICO1 = icosphere(1)

# a single triangle, and hand-built covers of its vertices
TRIANGLE = MetricComplex(complex=SimplicialComplex.from_simplices([(0, 1, 2)]),
                         coords=((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
DISJOINT_COVER = Cover(sets=((0,), (1,)), centers=(0, 1))
FULL_TRIANGLE_COVER = Cover(sets=((0, 1), (1, 2), (0, 1, 2)), centers=(0, 2, 1))
# three arcs, pairwise intersecting, empty triple intersection
CIRCLE_COVER = Cover(sets=((0, 1), (1, 2), (2, 0)), centers=(0, 1, 2))
# octahedron covers that break the invariant: set 1 misses its center 2;
# set 0 is the antipodal, so disconnected, pair {0, 1}; the center 9 is not
# a vertex; and set 1, which meets set 0, has no center
CENTER_OUTSIDE_COVER = Cover(sets=((0, 2, 4), (1, 3, 5)), centers=(0, 2))
DISCONNECTED_COVER = Cover(sets=((0, 1), (1,)), centers=(0, 1))
NON_VERTEX_CENTER_COVER = Cover(sets=((9,),), centers=(9,))
MISSING_CENTER_COVER = Cover(sets=((0, 2, 4), (1, 2, 3)), centers=(0,))


def octa_equator():
    loop = [0, 2, 1, 3]
    return chain_from_simplices(
        OCTA.complex, 1, [((loop[i], loop[(i + 1) % 4]), 1) for i in range(4)]
    )


def assert_sets_connected_around_centers(space, cover):
    """Each set holds its center and is reached from it inside the set."""
    adj = space.adjacency()
    for c, s in zip(cover.centers, cover.sets):
        assert c in s
        dist, _ = shortest_path_tree(adj, c, allowed=frozenset(s))
        assert {v for v, d in enumerate(dist) if d < math.inf} == set(s)


# the spaces of the cone-fill differential, each built fresh per test
CONE_SPACES = {
    "octahedron": octahedron,
    "icosphere1": lambda: icosphere(1),
    "icosphere2": lambda: icosphere(2),
    "capped_prism": lambda: capped_prism(6, 2),
}


def _wedge_keys(space) -> set:
    return {key for key in space._memo if isinstance(key, tuple) and key[0] == "wedge"}


def cycle_from_loop(space, loop):
    return chain_from_simplices(
        space.complex, 1,
        [((loop[i], loop[(i + 1) % len(loop)]), 1) for i in range(len(loop))],
    )


class TestMetricComplex:
    def test_octahedron_volumes(self):
        assert all(l == pytest.approx(math.sqrt(2)) for l in OCTA.edge_lengths)
        assert all(a == pytest.approx(math.sqrt(3) / 2) for a in OCTA.triangle_areas)

    def test_degenerate_edge_rejected(self):
        k = SimplicialComplex.from_simplices([(0, 1)])
        with pytest.raises(StructuralError):
            MetricComplex(complex=k, coords=((0.0, 0.0), (0.0, 0.0)))

    def test_degenerate_triangle_rejected(self):
        k = SimplicialComplex.from_simplices([(0, 1, 2)])
        with pytest.raises(StructuralError):
            MetricComplex(
                complex=k, coords=((0.0, 0.0), (1.0, 0.0), (2.0, 1e-15))
            )

    def test_huge_scale_has_finite_exact_areas(self):
        # Heron's product is about 1e400 here without the power-of-two scaling
        big = octahedron(1e100)
        assert all(math.isfinite(a) for a in big.triangle_areas)
        assert all(a == pytest.approx(math.sqrt(3) / 2 * 1e200) for a in big.triangle_areas)

    def test_power_of_two_scale_keeps_area_bits(self):
        for space in (OCTA, icosphere(1, 1.0), capped_prism(6, 2, 1.0)):
            for e in (-400, -3, 5, 300):
                scaled = scale_coordinates(space, math.ldexp(1.0, e))
                assert scaled.triangle_areas == tuple(
                    math.ldexp(a, 2 * e) for a in space.triangle_areas
                )

    def test_area_overflow_rejected(self):
        with pytest.raises(StructuralError, match=r"area of triangle \(0, 2, 4\) overflows"):
            octahedron(1e160)

    def test_area_underflow_rejected(self):
        # the scaled area is exact, but ldexp back to 1e-340 is a subnormal 0
        with pytest.raises(StructuralError, match=r"^area of triangle \(0, 2, 4\) underflows binary64$"):
            octahedron(1e-170)

    def test_smallest_normal_area_kept(self):
        # the octahedron's faces have area sqrt(3)/2 * scale^2: normal at
        # scale 2^-510, subnormal at 2^-511
        kept = octahedron(math.ldexp(1.0, -510))
        assert kept.triangle_areas == tuple(math.ldexp(a, -1020) for a in OCTA.triangle_areas)
        assert min(kept.triangle_areas) >= sys.float_info.min
        with pytest.raises(StructuralError, match="underflows binary64"):
            octahedron(math.ldexp(1.0, -511))

    def test_edge_length_overflow_rejected(self):
        k = SimplicialComplex.from_simplices([(0, 1)])
        with pytest.raises(StructuralError, match=r"overflow in the length of edge \(0, 1\)"):
            MetricComplex(complex=k, coords=((1e308, 0.0), (-1e308, 0.0)))

    def test_region_validation(self):
        # a neck meeting only one body is rejected
        k = SimplicialComplex.from_simplices([(0, 1, 2)])
        coords = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
        with pytest.raises(StructuralError):
            MetricComplex(complex=k, coords=coords, region=("body:0", "neck:0", "neck:0"))

    def test_capped_prism_valid(self):
        space = capped_prism(6, 2, 1.0)
        assert space.region is not None
        assert set(space.region) == {"body:0", "neck:0", "body:1"}


def assert_same_tree_as_oracle(adj, source, allowed=None):
    """Equal distance bits and equal vertex paths to the path-tuple Dijkstra."""
    oracle = path_tuple_shortest_path_tree(adj, source, allowed)
    dist, parent = shortest_path_tree(adj, source, allowed)
    assert {v for v, p in enumerate(parent) if p >= 0} == set(oracle)
    for v, (d, path) in oracle.items():
        assert dist[v].hex() == d.hex()
        assert tree_path(parent, v) == path
    assert all(d == math.inf for v, d in enumerate(dist) if v not in oracle)


@st.composite
def tie_heavy_graphs(draw):
    """A connected graph with edge lengths 1-3, so exact distance ties are
    common, a source, and sometimes an allowed vertex subset."""
    n = draw(st.integers(1, 14))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges |= {(min(a, b), max(a, b)) for a, b in draw(st.lists(pairs, max_size=2 * n))
                  if a != b}
    adj = [[] for _ in range(n)]
    for (a, b) in sorted(edges):
        length = float(draw(st.integers(1, 3)))
        adj[a].append((b, length))
        adj[b].append((a, length))
    for lst in adj:
        lst.sort()
    source = draw(st.integers(0, n - 1))
    allowed = draw(st.none() | st.frozensets(st.integers(0, n - 1)))
    return adj, source, allowed


class TestShortestPaths:
    @settings(max_examples=300, deadline=None)
    @given(case=tie_heavy_graphs())
    def test_matches_path_tuple_oracle(self, case):
        assert_same_tree_as_oracle(*case)

    @pytest.mark.parametrize("space", [OCTA, ICO1, icosphere(2), capped_prism(6, 2)],
                             ids=["octahedron", "icosphere1", "icosphere2", "capped_prism"])
    def test_matches_oracle_from_every_source(self, space):
        adj = space.adjacency()
        for source in range(space.complex.n_vertices):
            assert_same_tree_as_oracle(adj, source)

    def test_lexicographic_ties(self):
        # square: two equal-length routes 0-1-3 and 0-2-3; 0-1-3 is lex smaller
        k = SimplicialComplex.from_simplices([(0, 1), (1, 3), (0, 2), (2, 3)])
        coords = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
        space = MetricComplex(complex=k, coords=coords)
        _, parent = shortest_path_tree(space.adjacency(), 0)
        assert tree_path(parent, 3) == (0, 1, 3)

    def test_triangle_inequality_of_graph_edges(self):
        space = icosphere(1)
        cover = ball_cover(space, 0.7)
        graph = geodesic_graph(space, cover)
        adj = space.adjacency()
        dists = {c: shortest_path_tree(adj, c)[0] for c in set(cover.centers)}
        for (a, b), chain in zip(graph.nerve.simplices(1), graph.chains):
            exact = dists[cover.centers[a]][cover.centers[b]]
            assert space.mass1(chain) >= exact - 1e-12


class TestBallCover:
    def test_single_set_when_radius_huge(self):
        cover = ball_cover(OCTA, 10.0)
        assert len(cover.sets) == 1
        assert cover.sets[0] == tuple(range(6))

    def test_tiny_radius_gives_singletons(self):
        cover = ball_cover(OCTA, 0.1)
        assert len(cover.sets) == 6
        assert cover.centers == tuple(range(6))
        assert all(s == (c,) for s, c in zip(cover.sets, cover.centers))
        assert cover.warnings  # radius below min edge length

    def test_path_graph_net(self):
        k = SimplicialComplex.from_simplices([(0, 1), (1, 2)])
        space = MetricComplex(complex=k, coords=((0.0,), (1.0,), (2.0,)))
        cover = ball_cover(space, 1.0)
        assert cover.centers == (0, 2)
        assert all(1 in s for s in cover.sets)

    def test_union_covers(self, rng):
        for _ in range(10):
            space = icosphere(1)
            cover = ball_cover(space, 0.3 + rng.random())
            covered = set()
            for s in cover.sets:
                covered.update(s)
            assert covered == set(range(space.complex.n_vertices))
            assert_sets_connected_around_centers(space, cover)

    def test_radius_must_be_positive(self):
        with pytest.raises(DomainError):
            ball_cover(OCTA, 0.0)

    @pytest.mark.parametrize("space,radius,n_centers", [
        (icosphere(2), 0.8, 15), (capped_prism(6, 2), 1.2, 9), (OCTA, 0.8, 6),
        # a neck path 0 - 1 - 2 - 3 - 4 whose middle vertex is radially far away:
        # the slab trims it from the sets of centers 1 and 3, so it is a leftover
        (MetricComplex(
            complex=SimplicialComplex.from_simplices([(0, 1), (1, 2), (2, 3), (3, 4)]),
            coords=tuple((float(i),) for i in range(5)),
            radial=(0.0, 0.0, 10.0, 0.0, 0.0),
            region=("a", "neck", "neck", "neck", "b")), 1.0, 5),
    ], ids=["icosphere2", "capped_prism", "octahedron", "leftover-center"])
    def test_one_shortest_path_tree_per_center(self, monkeypatch, space, radius, n_centers):
        import fillbound.geom

        calls = []

        def counted(adj, source, allowed=None):
            calls.append(source)
            return shortest_path_tree(adj, source, allowed=allowed)

        monkeypatch.setattr(fillbound.geom, "shortest_path_tree", counted)
        cover = ball_cover(space, radius)
        assert len(cover.centers) == n_centers
        assert sorted(calls) == sorted(cover.centers)
        assert_sets_connected_around_centers(space, cover)


class TestNerve:
    def test_disjoint_sets(self):
        n = nerve(DISJOINT_COVER)
        assert n.n_vertices == 2
        assert n.n_simplices(1) == 0

    def test_full_triangle(self):
        n = nerve(FULL_TRIANGLE_COVER)
        assert n.n_simplices(1) == 3
        assert n.n_simplices(2) == 1

    def test_circle_cover_has_no_triangle(self):
        n = nerve(CIRCLE_COVER)
        assert n.n_simplices(1) == 3
        assert n.n_simplices(2) == 0

    def test_matches_brute_force(self, rng):
        import itertools

        for _ in range(20):
            n_sets = rng.randint(2, 8)
            universe = list(range(10))
            sets = tuple(
                tuple(sorted(rng.sample(universe, rng.randint(1, 6))))
                for _ in range(n_sets)
            )
            cover = Cover(sets=sets, centers=tuple(s[0] for s in sets))
            nv = nerve(cover)
            for i, j in itertools.combinations(range(n_sets), 2):
                expect = bool(set(sets[i]) & set(sets[j]))
                assert nv.has_simplex(1, (i, j)) == expect
            for i, j, k in itertools.combinations(range(n_sets), 3):
                expect = bool(set(sets[i]) & set(sets[j]) & set(sets[k]))
                assert nv.has_simplex(2, (i, j, k)) == expect


class TestGeodesicGraph:
    def test_single_set(self):
        cover = ball_cover(OCTA, 10.0)
        graph = geodesic_graph(OCTA, cover)
        assert graph.chains == ()

    def test_two_sets_shared_vertex(self):
        k = SimplicialComplex.from_simplices([(0, 1), (1, 2)])
        space = MetricComplex(complex=k, coords=((0.0,), (1.0,), (2.0,)))
        cover = Cover(sets=((0, 1), (1, 2)), centers=(0, 2))
        graph = geodesic_graph(space, cover)
        assert len(graph.chains) == 1
        chain = graph.chains[0]
        assert chain == path_chain(k, (0, 1, 2))
        assert space.mass1(chain) == pytest.approx(2.0)

    @pytest.mark.parametrize("cover,message", [
        (CENTER_OUTSIDE_COVER, "cover set 1 must hold its center 2"),
        (DISCONNECTED_COVER, "cover set 0 must hold its center 0"),
        (NON_VERTEX_CENTER_COVER, "cover set 0 must hold its center 9"),
        (MISSING_CENTER_COVER, "cover has 2 sets but 1 centers"),
    ], ids=["center-outside", "disconnected", "center-not-a-vertex", "center-missing"])
    def test_bad_cover_rejected(self, cover, message):
        with pytest.raises(StructuralError, match="^" + message):
            geodesic_graph(OCTA, cover)
        with pytest.raises(StructuralError, match="^E1/project: " + message):
            pipeline_fill(OCTA, cover, octa_equator())

    def test_octahedron_skeleton_edges_present(self):
        cover = ball_cover(OCTA, 0.8)
        assert len(cover.sets) == 6
        # each set is its center plus the four neighbors
        for c, s in zip(cover.centers, cover.sets):
            assert len(s) == 5 and c in s
        graph = geodesic_graph(OCTA, cover)
        # a one-step path is one edge, with coefficient +-1
        direct = [c for c in graph.chains if len(c.support) == 1 and c.max_abs() == 1]
        assert len(direct) == 12
        for chain in direct:
            assert OCTA.mass1(chain) == pytest.approx(math.sqrt(2))

    def test_edges_are_the_nerve_1_simplices(self, rng):
        ico, capped = icosphere(1), capped_prism(6, 2)
        octa_cover, ico_cover = ball_cover(OCTA, 0.8), ball_cover(ico, 0.8)
        capped_cover = ball_cover(capped, 1.2)
        cases = [(OCTA, octa_cover), (ico, ico_cover), (capped, capped_cover)]
        cases += [(TRIANGLE, c) for c in (DISJOINT_COVER, FULL_TRIANGLE_COVER, CIRCLE_COVER)]
        for space, cover in cases:
            graph = geodesic_graph(space, cover)
            # one chain per nerve 1-simplex (a, b), with boundary [c_b] - [c_a]
            assert len(graph.chains) == graph.nerve.n_simplices(1)
            for (a, b), chain in zip(graph.nerve.simplices(1), graph.chains):
                ends = Chain(0, {cover.centers[b]: 1}) - Chain(0, {cover.centers[a]: 1})
                assert boundary(space.complex, chain) == ends
            assert graph.nerve.simplices(2) == nerve(cover).simplices(2)
        # C' is a chain on graph edges, hence a nerve 1-chain, and a cycle there
        inputs = [(OCTA, octa_cover, octa_equator()),
                  (capped, capped_cover, cycle_from_loop(capped, [1, 2, 3, 4, 5, 6]))]
        inputs += [(ico, ico_cover, _random_cycle(rng, ico, parts=2)) for _ in range(10)]
        reached_nerve = 0
        for space, cover, z in inputs:
            graph = geodesic_graph(space, cover)
            cg, _, _ = project_cycle_to_graph(space, cover, graph, z)
            assert boundary(graph.nerve, cg).is_zero()
            reached_nerve += not cg.is_zero()
        assert reached_nerve >= 3


@st.composite
def backtracking_walks(draw):
    """A closed skeleton walk with backtracks a -> b -> a inserted anywhere."""
    space = draw(st.sampled_from([OCTA, ICO1]))
    adj = space.adjacency()
    start = draw(st.integers(0, space.complex.n_vertices - 1))
    walk = [start]
    for _ in range(draw(st.integers(0, 6))):
        walk.append(draw(st.sampled_from([w for w, _ in adj[walk[-1]]])))
    walk += reversed(tree_path(shortest_path_tree(adj, start)[1], walk[-1])[:-1])
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(walk) - 1))
        w = draw(st.sampled_from([u for u, _ in adj[walk[i]]]))
        walk[i + 1:i + 1] = [w, walk[i]]
    return space, walk


class TestLocalFill:
    def test_walk_decomposition_reproduces_chain(self, rng):
        space = icosphere(1)
        for _ in range(20):
            loop = _random_cycle(rng, space)
            walks = chain_to_closed_walks(space.complex, loop)
            total = Chain.zero(1)
            for w in walks:
                total = total + path_chain(space.complex, w)
            assert total == loop

    def test_face_walk_fill(self):
        k = OCTA.complex
        # boundary of two adjacent faces reduces by face ears
        w = chain_from_simplices(k, 2, [((0, 2, 4), 1), ((1, 2, 4), -1)])
        z = boundary(k, w)
        filled = fill_loop_locally(OCTA, z)
        assert filled is not None
        assert boundary(k, filled) == z

    def test_equator_blocks_reduction(self):
        # no two consecutive equator edges share a face, so the local
        # reduction reports failure instead of guessing
        assert fill_loop_locally(OCTA, octa_equator()) is None

    def test_backtracks_cancel(self):
        k = OCTA.complex
        # 2 -> 0 -> 2 cancels, leaving the two-vertex walk 4 -> 2 -> 4
        assert fill_walk_on_faces(k, [0, 2, 4, 2, 0]) == Chain.zero(2)
        # the backtrack 0 -> 5 -> 0 closes the walk, so it wraps around
        assert fill_walk_on_faces(k, [0, 2, 4, 0, 5, 0]) == Chain(2, {k.index_of(2, (0, 2, 4)): 1})
        assert fill_walk_on_faces(k, [3]) == Chain.zero(2)

    def test_backtrack_then_ears(self):
        k = OCTA.complex
        walk = [2, 0, 4, 0, 3, 4, 2]
        filled = fill_walk_on_faces(k, walk)
        assert filled is not None and not filled.is_zero()
        assert boundary(k, filled) == path_chain(k, walk)

    @settings(max_examples=300, deadline=None)
    @given(case=backtracking_walks())
    def test_backtracking_walk_fill(self, case):
        space, walk = case
        filled = fill_walk_on_faces(space.complex, walk)
        assert filled is None or boundary(space.complex, filled) == path_chain(space.complex, walk)
        assert fill_outcome(filled) == fill_outcome(casewise_fill_walk_on_faces(space.complex, walk))


# every shipped shape, for the walk differential
WALK_SPACES = [octahedron(), tetra_boundary(), icosphere(0), ICO1, icosphere(2), prism(),
               disk(), capped_prism()]


def fill_outcome(filled):
    """None, or a fill's terms in item order."""
    return None if filled is None else list(filled.items())


@st.composite
def random_cycles(draw):
    """A shipped shape and a sum of up to four fundamental cycles of a
    shortest-path tree, each through a random edge with a coefficient in
    [-3, 3]; on the prism, an open cylinder, some do not bound."""
    space = draw(st.sampled_from(WALK_SPACES))
    k = space.complex
    parent = shortest_path_tree(space.adjacency(), draw(st.integers(0, k.n_vertices - 1)))[1]
    z = Chain.zero(1)
    for _ in range(draw(st.integers(1, 4))):
        u, v = draw(st.sampled_from(k.simplices(1)))
        loop = path_chain(k, tree_path(parent, u) + tuple(reversed(tree_path(parent, v))))
        z = z + loop.scale(draw(st.integers(-3, 3)))
    return space, z


class TestWalkDifferential:
    """Closed walks and face-reduction fills against the loops they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(case=random_cycles())
    def test_matches_oracles(self, case):
        space, z = case
        walks = chain_to_closed_walks(space.complex, z)
        assert walks == rescanning_closed_walks(space.complex, z)
        for walk in walks:
            assert fill_outcome(fill_walk_on_faces(space.complex, walk)) == \
                fill_outcome(casewise_fill_walk_on_faces(space.complex, walk))


class TestConeFill:
    def test_single_face(self):
        space = tetra_boundary(1.0)
        face = space.complex.simplices(2)[0]
        z = boundary(space.complex, chain_from_simplices(space.complex, 2, [(face, 1)]))
        filled = cone_fill(space, z, face[0])
        assert filled == chain_from_simplices(space.complex, 2, [(face, 1)])

    def test_zero(self):
        assert cone_fill(OCTA, Chain.zero(1), 0).is_zero()

    def test_octahedron_equator_north_fan(self):
        z = octa_equator()
        filled = cone_fill(OCTA, z, 4)
        assert boundary(OCTA.complex, filled) == z
        # oracle: the four northern faces with matching orientations
        assert set(filled.support) == {
            OCTA.complex.index_of(2, f) for f in [(0, 2, 4), (1, 2, 4), (1, 3, 4), (0, 3, 4)]
        }
        assert OCTA.mass2(filled) == pytest.approx(2 * math.sqrt(3), rel=1e-12)
        _, optimum = min_mass_fill(OCTA.complex, OCTA.volumes, z)
        assert OCTA.mass2(filled) == pytest.approx(optimum, rel=1e-9)

    def test_cone_bound_on_flat_disks(self):
        for r in (1.0, 2.0):
            space = disk(12, 3, r)
            ring = [1 + 2 * 12 + i for i in range(12)]  # outermost ring
            z = cycle_from_loop(space, ring)
            filled = cone_fill(space, z, 0)
            assert boundary(space.complex, filled) == z
            assert space.mass2(filled) <= 1.05 * r * space.mass1(z)

    def test_not_a_cycle_rejected(self):
        with pytest.raises(DomainError):
            cone_fill(OCTA, Chain(1, {0: 1}), 0)

    def test_one_whole_skeleton_tree_per_apex(self, monkeypatch, rng):
        import fillbound.geom

        space = icosphere(1)
        cover = ball_cover(space, 0.6)
        whole = []

        def counted(adj, source, allowed=None):
            if allowed is None:
                whole.append(source)
            return shortest_path_tree(adj, source, allowed=allowed)

        monkeypatch.setattr(fillbound.geom, "shortest_path_tree", counted)
        cycles = [_random_cycle(rng, space, parts=rng.randint(1, 3)) for _ in range(8)]
        first = [pipeline_fill(space, cover, z)[0] for z in cycles]
        assert len(set(whole)) > 1
        assert len(whole) == len(set(whole))
        built = len(whole)
        assert [pipeline_fill(space, cover, z)[0] for z in cycles] == first
        assert len(whole) == built

    def test_apex_tree_cache_is_compact(self):
        # parent arrays: about 0.12 MB for all 162 apexes, where the
        # path-tuple trees of each apex took about 5 MB
        import tracemalloc

        space = icosphere(2)
        k = space.complex
        loops = {}
        for tidx, face in enumerate(k.simplices(2)):
            for v in face:
                loops.setdefault(v, boundary(k, Chain(2, {tidx: 1})))
        cone_fill(space, loops[0], 0)  # the adjacency and boundary caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for apex in range(1, k.n_vertices):
                cone_fill(space, loops[apex], apex)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sum(key[0] == "tree" for key in space._memo if isinstance(key, tuple)) == 162
        assert held < 0.5e6

    @pytest.mark.parametrize("name", sorted(CONE_SPACES))
    def test_matches_percall_oracle(self, name, rng):
        # one space stays warm through the whole sequence: the first pass
        # mixes cached wedges with new ones, and its replay takes only
        # cached wedges
        space = CONE_SPACES[name]()
        n = space.complex.n_vertices
        pool = rng.sample(range(n), min(4, n))
        calls = []
        for _ in range(30):
            z = _random_cycle(rng, space, parts=rng.randint(1, 3))
            apex = rng.choice(pool) if rng.random() < 0.75 else rng.randrange(n)
            calls.append((z.scale(rng.choice((1, -1, 2, -3))), apex))
        for i, (z, apex) in enumerate(calls + calls[::-1]):
            if i == len(calls):
                stored = _wedge_keys(space)
            got, want = cone_fill(space, z, apex), percall_cone_fill(space, z, apex)
            assert got == want
            assert list(got.items()) == list(want.items())
            assert float.hex(space.mass2(got)) == float.hex(space.mass2(want))
        assert _wedge_keys(space) == stored

    def test_second_pass_builds_no_wedge(self, monkeypatch, rng):
        import fillbound.geom

        builds = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                builds.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(fillbound.geom, name, wrapper)

        counted("fill_loop_locally", fill_loop_locally)
        counted("min_mass_fill", min_mass_fill)
        space = icosphere(1)
        cover = ball_cover(space, 0.6)
        cycles = [_random_cycle(rng, space, parts=rng.randint(1, 3)) for _ in range(8)]
        first = [pipeline_fill(space, cover, z)[0] for z in cycles]
        built = len(builds)
        assert built > 0
        second = [pipeline_fill(space, cover, z)[0] for z in cycles]
        assert len(builds) == built
        assert second == first
        assert [list(e.items()) for e in second] == [list(e.items()) for e in first]

    def test_no_wedge_stored_for_tree_edges(self, rng):
        space = icosphere(1)
        k = space.complex
        # each edge is the unique shortest path between its ends, so the two
        # sides of a face at its apex are tree edges and only the third is
        # filled
        for tidx, face in enumerate(k.simplices(2)):
            cone_fill(space, boundary(k, Chain(2, {tidx: 1})), face[0])
            opposite = k.index_of(1, face[1:])
            assert {key[2] for key in _wedge_keys(space) if key[1] == face[0]} >= {opposite}
        cover = ball_cover(space, 0.6)
        for _ in range(8):
            pipeline_fill(space, cover, _random_cycle(rng, space, parts=rng.randint(1, 3)))
        edges = k.simplices(1)
        assert _wedge_keys(space)
        for _, apex, idx in _wedge_keys(space):
            parent = space._memo[("tree", apex)]
            u, v = edges[idx]
            assert parent[u] != v and parent[v] != u

    @pytest.mark.parametrize("make, radius", [(lambda: icosphere(1), 0.6),
                                              (lambda: capped_prism(6, 2), 1.2)],
                             ids=["icosphere1", "capped_prism"])
    def test_warm_fill_equals_cold(self, make, radius, rng):
        # the CLI (and so every golden digest) loads a fresh space per call
        space = make()
        cover = ball_cover(space, radius)
        for _ in range(10):
            z = _random_cycle(rng, space, parts=rng.randint(1, 3))
            warm, warm_report = pipeline_fill(space, cover, z)
            fresh = make()
            cold, cold_report = pipeline_fill(fresh, ball_cover(fresh, radius), z)
            assert warm == cold
            assert list(warm.items()) == list(cold.items())
            assert ({**warm_report.to_dict(), "timing": None}
                    == {**cold_report.to_dict(), "timing": None})

    def test_wedge_cache_is_compact(self, rng):
        # flat (triangle, coefficient) tuples: about 210 bytes per key with
        # the key and the dict's growth, against about 360 for a tuple of
        # pairs and 440 for Chain objects
        import gc
        import tracemalloc

        space = icosphere(2)
        cover = ball_cover(space, 0.8)
        cycles = [_random_cycle(rng, space, parts=rng.randint(1, 3)) for _ in range(60)]
        for z in cycles:
            pipeline_fill(space, cover, z)
        wedges = _wedge_keys(space)
        kept = {key: val for key, val in space._memo.items() if key not in wedges}
        space._memo.clear()
        space._memo.update(kept)
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for z in cycles:
                pipeline_fill(space, cover, z)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert _wedge_keys(space) == wedges
        assert len(wedges) > 200
        assert held < 300 * len(wedges)


class TestNeckContract:
    def test_already_at_level(self):
        space = prism(6, 2, 1.0)
        ring = list(range(6))  # bottom ring, radial 0
        z = cycle_from_loop(space, ring)
        c2, e = neck_contract(space, z, 0.0)
        assert c2 == z
        assert e.is_zero()

    def test_zero(self):
        space = prism(6, 1, 1.0)
        c2, e = neck_contract(space, Chain.zero(1), 0.0)
        assert c2.is_zero() and e.is_zero()

    def test_hexagonal_prism_sweep(self):
        space = prism(6, 1, 1.0)
        top = [6 + i for i in range(6)]
        z = cycle_from_loop(space, top)
        c2, e = neck_contract(space, z, 0.0)
        bottom = cycle_from_loop(space, list(range(6)))
        assert c2 == bottom
        # exact prism identity and full lateral area
        assert boundary(space.complex, e) == z - c2
        assert e.l1() == 12
        lateral = sum(space.triangle_areas)
        assert space.mass2(e) == pytest.approx(lateral, rel=1e-12)
        span = 1.0
        assert space.mass2(e) <= 1.05 * span * space.mass1(z)

    def test_huge_coefficients_sweep_exactly(self):
        space = prism(6, 1, 1.0)
        big = 10 ** 18
        z = cycle_from_loop(space, [6 + i for i in range(6)]).scale(big)
        c2, e = neck_contract(space, z, 0.0)
        assert boundary(space.complex, e) == z - c2
        assert e.l1() == 12 * big

    def test_missing_radial(self):
        with pytest.raises(StructuralError):
            neck_contract(OCTA, octa_equator(), 0.0)

    def test_non_monotone_rejected(self):
        # vertex 1 sits above the target but has no downhill neighbor
        k = SimplicialComplex.from_simplices([(0, 1, 2), (0, 2, 3)])
        space = MetricComplex(
            complex=k,
            coords=((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)),
            radial=(1.0, 1.0, 1.0, 0.5),
        )
        z = cycle_from_loop(space, [0, 1, 2])
        with pytest.raises(DomainError):
            neck_contract(space, z, 2.0)  # outside radial range
        with pytest.raises(StructuralError):
            neck_contract(space, z, 0.75)


class TestDecompose:
    def test_single_region(self):
        space = capped_prism(6, 2, 1.0)
        ring = list(range(1, 7))  # bottom ring, body:0
        z = cycle_from_loop(space, ring)
        pieces = decompose_cycle(space, z)
        assert pieces == [("body:0", z)]

    def test_zero(self):
        space = capped_prism(6, 2, 1.0)
        assert decompose_cycle(space, Chain.zero(1)) == []

    def test_pieces_sum_and_support(self, rng):
        space = capped_prism(6, 3, 1.0)
        for _ in range(15):
            z = _random_cycle(rng, space)
            pieces = decompose_cycle(space, z)
            total = Chain.zero(1)
            for label, piece in pieces:
                assert boundary(space.complex, piece).is_zero()
                total = total + piece
                star = _star_vertices(space, label)
                for idx in piece.support:
                    u, v = space.complex.simplices(1)[idx]
                    assert u in star and v in star
            assert total == z

    def test_labels_required(self):
        with pytest.raises(StructuralError):
            decompose_cycle(OCTA, octa_equator())


def two_neck_icosphere() -> MetricComplex:
    """icosphere(1) cut at its equator into bodies A (z > 0) and B (z < 0).

    Every equator vertex lies in a neck: neck0 is two patches, the vertices
    41 and 21, and neck1 two more, the vertices 0, 16, 1 and 2, 36, 3.  The
    two patches of a neck have disjoint closed stars, and A and B also meet
    directly across four edges.
    """
    ico = icosphere(1)
    necks = {41: "neck0", 21: "neck0", **{v: "neck1" for v in (0, 16, 1, 2, 36, 3)}}
    region = tuple(necks.get(v, "B" if z < 0 else "A") for v, (_, _, z) in enumerate(ico.coords))
    return MetricComplex(complex=ico.complex, coords=ico.coords, region=region)


TWO_NECKS = two_neck_icosphere()


class TestJunctions:
    """Junction pairs beyond one body, on ``TWO_NECKS``: every outcome here
    was recorded before the loop plumbing was rewritten."""

    def test_cross_body_leftovers_pair_in_sorted_order(self):
        # leftovers sorted by (body, vertex): 8 pairs with 9 and 40 with 23,
        # each connector through the neck vertex 41
        balance = {8: 1, 40: 1, 9: -1, 23: -1}
        connectors = _pair_junctions(TWO_NECKS, "neck0", balance)
        assert list(connectors.items()) == [(44, 1), (49, -1), (119, 1), (89, -1)]
        assert dict(boundary(TWO_NECKS.complex, connectors).items()) == \
            {v: -a for v, a in balance.items()}

    def test_cross_body_cycle_does_not_stabilize(self):
        # A -> neck0 -> B -> neck1 -> A: each neck carries a net flow from
        # one body to the other, and its connector closes it back through
        # the neck, so the remainder never leaves the necks
        z = cycle_from_loop(TWO_NECKS, [9, 41, 8, 30, 17, 16, 15, 22])
        with pytest.raises(DomainError, match="^region decomposition did not stabilize$"):
            decompose_cycle(TWO_NECKS, z)

    @pytest.mark.parametrize("loop,message", [
        # one body's pair, across the two patches of neck1
        ([12, 0, 18, 19, 29, 37, 36, 35, 24, 11],
         "cannot connect junctions 35 and 12 inside the star of neck1"),
        # leftovers of two bodies, paired across the two patches of neck0
        ([9, 41, 40, 8, 31, 7, 18, 16, 14, 12, 11, 21, 10, 26, 37, 36, 34, 32],
         "cannot connect junctions 10 and 9 inside the star of neck0"),
    ])
    def test_unconnectable_junctions(self, loop, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            decompose_cycle(TWO_NECKS, cycle_from_loop(TWO_NECKS, loop))

    def test_same_body_pairs_prefer_the_ring(self):
        # a fan of six triangles around the neck vertex 0: the A vertices
        # 1, 2, 3, 4 above it and the B vertices 5, 6 below.  The ring path
        # 4 -> 3 -> 2 -> 1 closes the neck run 1 -> 0 -> 4; the shorter way
        # through the star, 4 -> 0 -> 1, would cancel it
        fan = MetricComplex(
            complex=SimplicialComplex.from_simplices(
                [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 6), (0, 1, 6)]),
            coords=((0.0, 0.0), (-1.0, 0.0), (-1.0, 1.0), (1.0, 1.0), (1.0, 0.0),
                    (1.0, -1.0), (-1.0, -1.0)),
            region=("neck0", "A", "A", "A", "A", "B", "B"))
        z = cycle_from_loop(fan, [1, 0, 4, 3, 2])
        assert decompose_cycle(fan, z) == [("neck0", z)]

    def test_pieces_pinned(self):
        # through neck0's patch at 41 from A to A, twice through its patch
        # at 21 from B to B, and backwards through neck1 from A to A
        z = (cycle_from_loop(TWO_NECKS, [9, 41, 32])
             + cycle_from_loop(TWO_NECKS, [10, 21, 20]).scale(2)
             - cycle_from_loop(TWO_NECKS, [12, 0, 14]))
        pieces = decompose_cycle(TWO_NECKS, z)
        assert [(label, list(piece.items())) for label, piece in pieces] == [
            ("neck0", [(49, 1), (108, -1), (52, 2), (82, -2), (47, -1), (51, -2)]),
            ("neck1", [(0, 1), (1, -1), (61, 1)]),
        ]


def _star_vertices(space, label):
    verts = {v for v in range(space.complex.n_vertices) if space.region[v] == label}
    for (u, v) in space.complex.simplices(1):
        if space.region[u] == label:
            verts.add(v)
        if space.region[v] == label:
            verts.add(u)
    return verts


def _random_cycle(rng, space, parts=1):
    """Sum of fundamental cycles of random non-tree edges (deterministic)."""
    k = space.complex
    n = k.n_vertices
    adj = space.adjacency()
    parent = {0: None}
    order = [0]
    stack = [0]
    while stack:
        v = stack.pop()
        for (w, _) in adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
                stack.append(w)
    tree_edges = set()
    for v, p in parent.items():
        if p is not None:
            tree_edges.add(tuple(sorted((v, p))))
    non_tree = [e for e in k.simplices(1) if e not in tree_edges]
    total = Chain.zero(1)
    for _ in range(parts):
        u, v = non_tree[rng.randrange(len(non_tree))]

        def path_to_root(x):
            out = [x]
            while parent[out[-1]] is not None:
                out.append(parent[out[-1]])
            return out

        pu, pv = path_to_root(u), path_to_root(v)
        su, sv = set(pu), set(pv)
        meet = next(x for x in pu if x in sv)
        walk = [v, u] + pu[1:pu.index(meet) + 1] + list(reversed(pv[1:pv.index(meet)]))
        total = total + path_chain(k, walk + [v])
    return total


class TestProjection:
    def test_zero(self):
        cover = ball_cover(OCTA, 0.8)
        graph = geodesic_graph(OCTA, cover)
        cg, e1, realized = project_cycle_to_graph(OCTA, cover, graph, Chain.zero(1))
        assert cg.is_zero() and e1.is_zero() and realized.is_zero()
        assert (cg.dim, e1.dim, realized.dim) == (1, 2, 1)

    def test_octahedron_equator_is_fixed(self):
        cover = ball_cover(OCTA, 0.8)
        graph = geodesic_graph(OCTA, cover)
        z = octa_equator()
        cg, e1, realized = project_cycle_to_graph(OCTA, cover, graph, z)
        assert realized == graph.realize(cg) == z
        assert e1.is_zero()

    def test_exactness_on_icosphere(self, rng):
        space = icosphere(1)
        cover = ball_cover(space, 0.6)
        graph = geodesic_graph(space, cover)
        for _ in range(10):
            z = _random_cycle(rng, space, parts=2)
            cg, e1, realized = project_cycle_to_graph(space, cover, graph, z)
            assert realized == graph.realize(cg)
            assert boundary(space.complex, e1) == z - realized

    def test_set_trees_cached_on_cover(self, monkeypatch, rng):
        import fillbound.geom

        space = icosphere(1)
        cover = ball_cover(space, 0.6)
        graph = geodesic_graph(space, cover)
        restricted = []

        def counted(adj, source, allowed=None):
            if allowed is not None:
                restricted.append(source)
            return shortest_path_tree(adj, source, allowed=allowed)

        monkeypatch.setattr(fillbound.geom, "shortest_path_tree", counted)
        z = _random_cycle(rng, space, parts=2)
        first = project_cycle_to_graph(space, cover, graph, z)
        assert restricted
        restricted.clear()
        second = project_cycle_to_graph(space, cover, graph, z)
        assert restricted == []
        assert second == first

    def test_cover_too_fine(self):
        cover = ball_cover(OCTA, 0.1)  # singleton sets contain no edge
        graph = geodesic_graph(OCTA, cover)
        with pytest.raises(DomainError):
            project_cycle_to_graph(OCTA, cover, graph, octa_equator())


class TestPipeline:
    def test_stage_error_keeps_type_and_cause(self):
        z = cycle_from_loop(TWO_NECKS, [9, 41, 8, 30, 17, 16, 15, 22])
        with pytest.raises(DomainError, match="^E0/decompose: region decomposition did not "
                           "stabilize$") as info:
            pipeline_fill(TWO_NECKS, ball_cover(TWO_NECKS, 0.8), z)
        assert type(info.value.__cause__) is DomainError

    def test_stage_timings(self):
        _, report = pipeline_fill(OCTA, ball_cover(OCTA, 0.8), octa_equator())
        assert list(report.timing) == ["e0", "e1", "e2", "total"]

    def test_zero_cycle(self):
        cover = ball_cover(OCTA, 0.8)
        e, report = pipeline_fill(OCTA, cover, Chain.zero(1))
        assert e.is_zero()
        assert report.total_mass2 == 0.0
        assert report.measured_f1 is None
        assert report.boundary_verified

    def test_single_triangle_space(self):
        k = SimplicialComplex.from_simplices([(0, 1, 2)])
        space = MetricComplex(
            complex=k, coords=((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
        )
        z = boundary(k, chain_from_simplices(k, 2, [((0, 1, 2), 1)]))
        cover = ball_cover(space, 2.0)
        e, report = pipeline_fill(space, cover, z)
        assert boundary(k, e) == z
        assert report.measured_f1 == pytest.approx(
            space.mass2(e) / space.mass1(z)
        )

    def test_octahedron_equator(self):
        cover = ball_cover(OCTA, 0.8)
        z = octa_equator()
        e, report = pipeline_fill(OCTA, cover, z)
        assert boundary(OCTA.complex, e) == z
        assert report.total_mass2 <= 10.0 * report.input_mass1
        _, optimum = min_mass_fill(OCTA.complex, OCTA.volumes, z)
        assert report.total_mass2 >= optimum - 1e-9
        assert report.total_mass2 == pytest.approx(
            report.mass_e0 + report.mass_e1 + report.mass_e2, rel=1e-9
        )
        assert report.amin_bound == pytest.approx(60.0 * report.total_mass2)

    def test_exactness_randomized_shapes(self, rng):
        spaces = [
            (octahedron(1.0), 0.8),
            (icosphere(1), 0.6),
            (capped_prism(6, 2, 1.0), 1.2),
        ]
        for space, radius in spaces:
            cover = ball_cover(space, radius)
            for _ in range(6):
                z = _random_cycle(rng, space, parts=rng.randint(1, 2))
                e, report = pipeline_fill(space, cover, z)
                assert boundary(space.complex, e) == z
                assert report.boundary_verified

    def test_nontrivial_h1_rejected(self):
        space = prism(6, 1, 1.0)
        cover = ball_cover(space, 1.5)
        z = cycle_from_loop(space, list(range(6)))
        with pytest.raises(DomainError):
            pipeline_fill(space, cover, z)


def tall_composite(n=6, rings=7):
    """Three bodies joined by two necks: cap | neck | band | neck | cap."""
    ring_label = ["body:0", "neck:0", "neck:0", "body:1", "neck:1", "neck:1", "body:2"]
    coords, radial, region = [(0.0, 0.0, -1.0)], [-1.0], ["body:0"]
    for j in range(rings):
        for i in range(n):
            th = 2 * math.pi * i / n
            coords.append((math.cos(th), math.sin(th), float(j)))
            radial.append(float(j))
            region.append(ring_label[j])
    top = len(coords)
    coords.append((0.0, 0.0, float(rings)))
    radial.append(float(rings))
    region.append("body:2")

    def rv(j, i):
        return 1 + j * n + (i % n)

    faces = [(0, rv(0, i), rv(0, i + 1)) for i in range(n)]
    for j in range(rings - 1):
        for i in range(n):
            a, b, c, d = rv(j, i), rv(j, i + 1), rv(j + 1, i + 1), rv(j + 1, i)
            faces += [(a, b, c), (a, c, d)]
    faces += [(top, rv(rings - 1, i), rv(rings - 1, i + 1)) for i in range(n)]
    space = MetricComplex(
        complex=SimplicialComplex.from_simplices(faces, n_vertices=len(coords)),
        coords=tuple(coords),
        radial=tuple(radial),
        region=tuple(region),
    )
    return space, rv, top


class TestTallComposite:
    def test_decompose_meridian(self):
        space, rv, top = tall_composite()
        up = [0] + [rv(j, 0) for j in range(7)] + [top]
        down = [top] + [rv(j, 3) for j in reversed(range(7))] + [0]
        z = path_chain(space.complex, up + down[1:])
        pieces = decompose_cycle(space, z)
        assert [l for l, _ in pieces] == ["body:0", "body:2", "neck:0", "neck:1"]
        total = Chain.zero(1)
        for label, piece in pieces:
            assert boundary(space.complex, piece).is_zero()
            total = total + piece
            star = _star_vertices(space, label)
            for idx in piece.support:
                u, v = space.complex.simplices(1)[idx]
                assert u in star and v in star
        assert total == z

    def test_pipeline_through_two_necks(self):
        space, rv, top = tall_composite()
        cover = ball_cover(space, 1.3)
        up = [0] + [rv(j, 0) for j in range(7)] + [top]
        down = [top] + [rv(j, 3) for j in reversed(range(7))] + [0]
        z = path_chain(space.complex, up + down[1:])
        e, rep = pipeline_fill(space, cover, z)
        assert boundary(space.complex, e) == z
        # ring inside the upper neck contracts down into the middle body
        ring = path_chain(space.complex, [rv(4, i) for i in range(6)] + [rv(4, 0)])
        e2, rep2 = pipeline_fill(space, cover, ring)
        assert boundary(space.complex, e2) == ring
        assert rep2.mass_e0 > 0


class TestHugeCoefficients:
    def test_pipeline_at_coefficient_1e20(self):
        big = 10 ** 20
        cover = ball_cover(OCTA, 0.8)
        z = octa_equator().scale(big)
        e, rep = pipeline_fill(OCTA, cover, z)
        assert boundary(OCTA.complex, e) == z
        # coefficients of this size survive exactly (stage sums may shave
        # a unit off the top, but nothing rounds or wraps)
        assert e.max_abs() >= big - 10
        assert rep.input_mass1 == pytest.approx(big * 4 * math.sqrt(2), rel=1e-9)


class TestScaleEquivariance:
    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_masses_and_chains_scale(self, t, rng):
        space = icosphere(1)
        scaled = scale_coordinates(space, t)
        cover = ball_cover(space, 0.6)
        cover_scaled = ball_cover(scaled, 0.6 * t)
        assert cover.sets == cover_scaled.sets
        for _ in range(4):
            z = _random_cycle(rng, space, parts=1)
            e, rep = pipeline_fill(space, cover, z)
            e2, rep2 = pipeline_fill(scaled, cover_scaled, z)
            assert e == e2  # integer chains unchanged
            assert rep2.input_mass1 == pytest.approx(t * rep.input_mass1, rel=1e-9)
            assert rep2.total_mass2 == pytest.approx(t * t * rep.total_mass2, rel=1e-9)

    def test_diameter_scales(self):
        space = octahedron(1.0)
        assert skeleton_diameter(space) == pytest.approx(2 * math.sqrt(2))
        assert skeleton_diameter(scale_coordinates(space, 2.0)) == pytest.approx(
            4 * math.sqrt(2)
        )
