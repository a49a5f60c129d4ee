import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fillbound.chains import (
    Chain,
    SimplicialComplex,
    boundary,
    boundary_matrix,
    chain_from_simplices,
    mass,
    sort_with_sign,
)
from fillbound.errors import DomainError, StructuralError
from fillbound.geom import ball_cover, nerve
from fillbound.intlin import IntMatrix, _axpy
from fillbound.shapes import capped_prism, disk, icosphere, octahedron, prism, tetra_boundary

from conftest import (
    is_cycle,
    matmul,
    random_chain,
    random_complex,
    slicing_boundary,
    strict_complex,
)


TRIANGLE = SimplicialComplex.from_simplices([(0, 1, 2)])
TETRA = SimplicialComplex.from_simplices([(0, 1, 2, 3)])

# unit octahedron: vertices +-e_i, faces = one triangle per octant
OCTA_COORDS = [
    (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0), (0.0, -1.0, 0.0),
    (0.0, 0.0, 1.0), (0.0, 0.0, -1.0),
]
OCTA_FACES = [
    (0, 2, 4), (1, 2, 4), (1, 3, 4), (0, 3, 4),
    (0, 2, 5), (1, 2, 5), (1, 3, 5), (0, 3, 5),
]
OCTA = SimplicialComplex.from_simplices(OCTA_FACES)


def octa_edge_lengths():
    lengths = []
    for (u, v) in OCTA.simplices(1):
        lengths.append(math.dist(OCTA_COORDS[u], OCTA_COORDS[v]))
    return lengths


def equator_cycle():
    # closed loop +x -> +y -> -x -> -y in the z = 0 plane
    loop = [0, 2, 1, 3]
    terms = []
    for i in range(4):
        terms.append(((loop[i], loop[(i + 1) % 4]), 1))
    return chain_from_simplices(OCTA, 1, terms)


class TestConstruction:
    def test_closure_is_automatic(self):
        k = SimplicialComplex.from_simplices([(2, 0, 1)])
        assert k.simplices(1) == ((0, 1), (0, 2), (1, 2))
        assert k.simplices(2) == ((0, 1, 2),)
        assert k.dimension == 2

    def test_missing_face_rejected(self):
        with pytest.raises(StructuralError):
            SimplicialComplex(3, {2: [(0, 1, 2)]})

    def test_duplicate_and_degenerate_rejected(self):
        with pytest.raises(StructuralError):
            SimplicialComplex.from_simplices([(0, 0, 1)])
        with pytest.raises(StructuralError):
            SimplicialComplex(3, {1: [(0, 1), (0, 1)]})

    def test_lexicographic_indexing(self):
        assert TETRA.index_of(1, (0, 1)) == 0
        assert TETRA.index_of(1, (2, 3)) == 5
        assert TETRA.index_of(2, (1, 2, 3)) == 3
        with pytest.raises(StructuralError):
            TETRA.index_of(1, (0, 4))

    def test_orientation_normalization(self):
        assert sort_with_sign((2, 0, 1)) == ((0, 1, 2), 1)
        assert sort_with_sign((1, 0, 2)) == ((0, 1, 2), -1)
        c = chain_from_simplices(TRIANGLE, 2, [((1, 0, 2), 1)])
        assert c.get(0) == -1

    def test_chain_from_simplices_drops_zeros_and_checks_every_term(self):
        # (0, 1) and (1, 0) cancel; a zero coefficient adds nothing
        c = chain_from_simplices(TRIANGLE, 1, [((0, 1), 2), ((1, 0), 2), ((1, 2), 0), ((0, 2), 3)])
        assert list(c.items()) == [(TRIANGLE.index_of(1, (0, 2)), 3)]
        with pytest.raises(StructuralError, match="not a 1-simplex"):
            chain_from_simplices(TRIANGLE, 1, [((0, 3), 0)])
        with pytest.raises(StructuralError, match="nonnegative"):
            chain_from_simplices(TRIANGLE, -1, [])


PERTURBATIONS = ("none", "drop", "duplicate", "unsorted", "swap", "out_of_range",
                 "wrong_length", "key_below_1", "empty_dimension")


@st.composite
def strict_constructor_inputs(draw):
    """(n_vertices, simplices_by_dim, perturbation): a canonical family on
    at most five vertices, closed under faces here, with one perturbation
    of its data applied (or none)."""
    n = draw(st.integers(1, 5))
    top = draw(st.integers(1, 3))
    pool = [s for k in range(1, top + 1) for s in itertools.combinations(range(n), k + 1)]
    picked = [s for s, keep in zip(pool, draw(st.lists(st.booleans(), min_size=len(pool),
                                                        max_size=len(pool)))) if keep]
    closed = {f for s in picked for k in range(2, len(s) + 1)
              for f in itertools.combinations(s, k)}
    by_dim = {}
    for s in sorted(closed):  # lexicographic within each length
        by_dim.setdefault(len(s) - 1, []).append(s)
    kind = draw(st.sampled_from(PERTURBATIONS))
    if kind == "key_below_1":
        by_dim[draw(st.integers(-1, 0))] = draw(st.sampled_from([[], [(0,)]]))
    elif kind == "empty_dimension":
        by_dim[max(by_dim, default=0) + draw(st.integers(1, 2))] = []
    dims = sorted(k for k in by_dim if k >= 1 and by_dim[k])
    if kind in ("none", "key_below_1", "empty_dimension") or not dims:
        return n, by_dim, kind
    k = draw(st.sampled_from(dims))
    simps = by_dim[k]
    i = draw(st.integers(0, len(simps) - 1))
    j = draw(st.integers(0, len(simps) - 1))
    if kind == "drop":
        del simps[i]
    elif kind == "duplicate":
        simps.insert(j, simps[i])
    elif kind == "unsorted":
        simps[i] = simps[i][::-1]
    elif kind == "swap":
        simps[i], simps[j] = simps[j], simps[i]
    elif kind == "out_of_range":
        simps[i] = simps[i][:-1] + (draw(st.sampled_from([n, n + 3])),)
    elif kind == "wrong_length":
        simps.insert(j, simps[i][:-1] if draw(st.booleans()) else simps[i] + (n,))
    return n, by_dim, kind


class TestStrictConstructorDifferential:
    """``SimplicialComplex(n, by_dim)`` against the strict checks it once
    made on its own (``conftest.strict_complex``)."""

    @settings(max_examples=600, deadline=None)
    @given(case=strict_constructor_inputs())
    def test_accepts_exactly_what_the_oracle_accepts(self, case):
        n, by_dim, _ = case
        try:
            expected = strict_complex(n, by_dim)
        except StructuralError:
            with pytest.raises(StructuralError):
                SimplicialComplex(n, by_dim)
            return
        simplices, index, dimension = expected
        cx = SimplicialComplex(n, by_dim)
        assert cx.n_vertices == n and cx.dimension == dimension
        for k in range(1, dimension + 2):
            assert cx.simplices(k) == simplices.get(k, ())
            assert {s: cx.index_of(k, s) for s in cx.simplices(k)} == index.get(k, {})


class TestBoundary:
    def test_triangle_boundary(self):
        c = chain_from_simplices(TRIANGLE, 2, [((0, 1, 2), 1)])
        d = boundary(TRIANGLE, c)
        expected = chain_from_simplices(
            TRIANGLE, 1, [((1, 2), 1), ((0, 2), -1), ((0, 1), 1)]
        )
        assert d == expected

    def test_zero_chain(self):
        assert boundary(TETRA, Chain.zero(2)).is_zero()

    def test_boundary_squared_on_tetra(self):
        c = chain_from_simplices(TETRA, 3, [((0, 1, 2, 3), 1)])
        assert boundary(TETRA, boundary(TETRA, c)).is_zero()

    def test_dim_zero_rejected(self):
        with pytest.raises(DomainError):
            boundary(TRIANGLE, Chain(0, {0: 1}))

    def test_bad_index_rejected(self):
        with pytest.raises(StructuralError):
            boundary(TRIANGLE, Chain(1, {17: 1}))


class TestBoundaryMatrix:
    def test_triangle_column(self):
        m = boundary_matrix(TRIANGLE, 2)
        assert (m.rows, m.cols) == (3, 1)
        # edge order (0,1), (0,2), (1,2)
        assert [m[i, 0] for i in range(3)] == [1, -1, 1]

    def test_path_incidence(self):
        path = SimplicialComplex.from_simplices([(0, 1), (1, 2)])
        m = boundary_matrix(path, 1)
        assert (m.rows, m.cols) == (3, 2)
        for j in range(2):
            col = [m[i, j] for i in range(3)]
            assert sorted(col) == [-1, 0, 1]
            assert sum(col) == 0

    def test_octahedron_columns_match_boundary_op(self):
        m = boundary_matrix(OCTA, 2)
        assert (m.rows, m.cols) == (12, 8)
        for j, face in enumerate(OCTA.simplices(2)):
            col = [m[i, j] for i in range(12)]
            assert sum(1 for x in col if x) == 3
            assert all(x in (-1, 0, 1) for x in col)
            via_op = boundary(OCTA, chain_from_simplices(OCTA, 2, [(face, 1)]))
            assert col == via_op.to_vector(12)

    def test_sparse_and_uncached(self):
        # dense, the 1920 x 1280 matrix takes 18.9 MB; sparse rows take 0.45 MB
        k = icosphere(3).complex
        tracemalloc.start()
        try:
            first = boundary_matrix(k, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20
        assert boundary_matrix(k, 2) is not first

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            boundary_matrix(TRIANGLE, 3)
        with pytest.raises(DomainError):
            boundary_matrix(TRIANGLE, 0)


class TestMass:
    def test_arithmetic(self):
        c = Chain(1, {0: 2, 1: -3})
        assert mass([1.0, 2.0], c) == pytest.approx(8.0)

    def test_zero(self):
        assert mass([], Chain.zero(1)) == 0.0

    def test_octahedron_equator(self):
        # oracle: sum of the four edge lengths straight from coordinates
        lengths = octa_edge_lengths()
        z = equator_cycle()
        expected = sum(lengths[i] for i in z.support)
        assert expected == pytest.approx(4 * math.sqrt(2))
        assert mass(lengths, z) == pytest.approx(expected, rel=1e-9)

    def test_missing_weight(self):
        with pytest.raises(StructuralError):
            mass([1.0], Chain(1, {3: 1}))

    def test_nonpositive_weight(self):
        # an infinite weight would make an infinite mass, which hf1_profile's
        # mass test reads as "longer than every grid point"
        for w in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="not finite and positive"):
                mass([1.0, w], Chain(1, {0: 1, 1: 2}))

    def test_overflow(self):
        # a term beyond binary64, and finite terms whose sum is beyond it
        for weights, c in (([1.0], Chain(1, {0: 10 ** 400})),
                           ([1e308, 1e308], Chain(1, {0: 1, 1: 1}))):
            with pytest.raises(DomainError, match="overflows binary64"):
                mass(weights, c)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(),
           terms=st.lists(st.tuples(st.sampled_from([1.0, 0.1, 1e16, 3e-17, 2.0 ** 53 + 2, 1 / 3]),
                                    st.integers(-10 ** 6, 10 ** 6).filter(bool)),
                          max_size=12))
    def test_correctly_rounded_in_any_order(self, data, terms):
        # running sums of 1e16 and 1 disagree with each other and with the
        # exact sum; fsum's rounding does not
        weights = [w for w, _ in terms]
        items = list(enumerate(a for _, a in terms))
        exact = float(sum(Fraction(abs(a) * w) for w, a in terms))
        shuffled = data.draw(st.permutations(items))
        assert mass(weights, Chain(1, dict(items))).hex() == exact.hex()
        assert mass(weights, Chain(1, dict(shuffled))).hex() == exact.hex()


class TestIsCycle:
    def test_equator_is_cycle(self):
        assert is_cycle(OCTA, equator_cycle())

    def test_single_edge_is_not(self):
        assert not is_cycle(OCTA, Chain(1, {0: 1}))

    def test_boundaries_are_cycles(self):
        rng = random.Random(5)
        for _ in range(25):
            k = random_complex(rng, max_vertices=8)
            w = random_chain(rng, k, 2)
            assert is_cycle(k, boundary(k, w))


class TestInvariants:
    def test_boundary_squared_randomized(self):
        rng = random.Random(11)
        for _ in range(60):
            k = random_complex(rng, max_vertices=12)
            for dim in range(2, k.dimension + 1):
                for idx in range(k.n_simplices(dim)):
                    c = Chain(dim, {idx: 1})
                    assert boundary(k, boundary(k, c)).is_zero()

    def test_matrix_product_is_zero(self):
        rng = random.Random(13)
        for _ in range(20):
            k = random_complex(rng, max_vertices=9)
            if k.dimension < 2:
                continue
            prod = matmul(boundary_matrix(k, 1), boundary_matrix(k, 2))
            assert prod.is_zero()

    def test_chain_traversal_matches_matrix(self):
        rng = random.Random(17)
        checked = 0
        while checked < 200:
            k = random_complex(rng, max_vertices=9)
            c = random_chain(rng, k, 2)
            via_chain = boundary(k, c).to_vector(k.n_simplices(1))
            via_matrix = boundary_matrix(k, 2).mul_vec(c.to_vector(k.n_simplices(2)))
            assert via_chain == via_matrix
            checked += 1

    def test_simplex_count_binomial_bound(self):
        rng = random.Random(19)
        for _ in range(50):
            k = random_complex(rng, max_vertices=10)
            for dim in range(1, k.dimension + 1):
                assert k.n_simplices(dim) <= math.comb(k.n_vertices, dim + 1)

    @settings(max_examples=60, deadline=None)
    @given(
        coeffs_a=st.dictionaries(st.integers(0, 7), st.integers(-9, 9), max_size=8),
        coeffs_b=st.dictionaries(st.integers(0, 7), st.integers(-9, 9), max_size=8),
        n=st.integers(-7, 7),
    )
    def test_mass_subadditive_and_homogeneous(self, coeffs_a, coeffs_b, n):
        weights = [0.5, 1.0, 2.0, 0.25, 3.5, 1.75, 0.125, 4.0]
        a = Chain(1, coeffs_a)
        b = Chain(1, coeffs_b)
        assert mass(weights, a + b) <= mass(weights, a) + mass(weights, b) + 1e-12
        assert mass(weights, a.scale(n)) == pytest.approx(abs(n) * mass(weights, a))


def _shipped_complexes():
    """Every shipped shape and the nerve of its ball cover, plus a 3-simplex."""
    out = [("tetra3", TETRA)]
    for name, space, radius in [
        ("octahedron", octahedron(), 0.8), ("tetra_boundary", tetra_boundary(), 0.8),
        ("icosphere0", icosphere(0), 0.8), ("icosphere1", icosphere(1), 0.8),
        ("icosphere2", icosphere(2), 0.8), ("prism", prism(), 0.8), ("disk", disk(), 0.8),
        ("capped_prism", capped_prism(), 1.2),
    ]:
        out += [(name, space.complex), (name + "-nerve", nerve(ball_cover(space, radius)))]
    return out


SHIPPED_COMPLEXES = _shipped_complexes()


@st.composite
def boundary_inputs(draw):
    """A shipped complex and a chain of any dimension 0..dim+1, on a window
    of indices (so faces are shared and cancel) that may run past the end."""
    _, cx = draw(st.sampled_from(SHIPPED_COMPLEXES))
    k = draw(st.integers(0, cx.dimension + 1))
    start = draw(st.integers(0, cx.n_simplices(k)))
    coeff = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70))
    coeffs = draw(st.dictionaries(st.integers(start, start + 12), coeff, max_size=10))
    return cx, Chain(k, coeffs)


def boundary_outcome(op, cx, c):
    try:
        d = op(cx, c)
    except (DomainError, StructuralError) as err:
        return type(err), str(err)
    return d.dim, list(d.items())


class TestFaceTableDifferential:
    """The face-table boundary against the slicing loop it replaced."""

    @settings(max_examples=600, deadline=None)
    @given(case=boundary_inputs())
    def test_matches_slicing_oracle(self, case):
        cx, c = case
        # equal dimension and terms in the same order, or the same error
        assert boundary_outcome(boundary, cx, c) == boundary_outcome(slicing_boundary, cx, c)

    @pytest.mark.parametrize("name,cx", SHIPPED_COMPLEXES, ids=[n for n, _ in SHIPPED_COMPLEXES])
    def test_matrix_columns_match_oracle(self, name, cx):
        # the same entries, inserted into each row in the same column order
        for k in range(1, cx.dimension + 1):
            expected = IntMatrix.zeros(cx.n_simplices(k - 1), cx.n_simplices(k))
            for j in range(cx.n_simplices(k)):
                for i, x in slicing_boundary(cx, Chain(k, {j: 1})).items():
                    expected._r[i][j] = x
            got = boundary_matrix(cx, k)
            assert [list(row.items()) for row in got._r] == \
                [list(row.items()) for row in expected._r]


def copying_sum(a: dict, b: dict) -> dict:
    """``Chain.__add__`` as it was before ``intlin._axpy`` became the one
    sparse sum: a copy of a, then b's terms in b's order, a cancelled entry
    popped."""
    out = dict(a)
    for idx, x in b.items():
        s = out.get(idx, 0) + x
        if s:
            out[idx] = s
        else:
            out.pop(idx, None)
    return out


def copying_boundary(cx: SimplicialComplex, c: Chain) -> dict:
    """The boundary as a copying sum of each simplex's signed faces, in the
    chain's item order."""
    acc: dict = {}
    for idx, a in c.items():
        s = cx.simplices(c.dim)[idx]
        acc = copying_sum(acc, {cx.index_of(c.dim - 1, s[:j] + s[j + 1:]): (-1) ** j * a
                                for j in range(len(s))})
    return acc


@st.composite
def cancelling_chains(draw):
    """A complex, a dimension and 2-5 chains on a narrow window of simplices,
    each later chain cancelling some entries of the one before it."""
    cx = draw(st.sampled_from([cx for _, cx in SHIPPED_COMPLEXES if cx.dimension]))
    k = draw(st.integers(1, cx.dimension))
    window = st.integers(0, min(cx.n_simplices(k), 10) - 1)
    coeff = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70))
    chains = [draw(st.dictionaries(window, coeff, max_size=8))]
    for _ in range(draw(st.integers(1, 4))):
        prev = [i for i, a in chains[-1].items() if a]
        cancel = draw(st.lists(st.sampled_from(prev), unique=True) if prev else st.just([]))
        fresh = draw(st.dictionaries(window, coeff, max_size=8))
        terms = [(i, -chains[-1][i]) for i in cancel] + list(fresh.items())
        chains.append(dict(draw(st.permutations(terms))))
    return cx, k, [Chain(k, c) for c in chains]


class TestSumOrderDifferential:
    """Chain sums against the copying reference, items and their order."""

    @settings(max_examples=400, deadline=None)
    @given(case=cancelling_chains(), n=st.integers(-3, 3))
    def test_same_items_in_same_order(self, case, n):
        cx, k, chains = case
        a, b = chains[0], chains[1]
        da, db = dict(a.items()), dict(b.items())
        assert list((a + b).items()) == list(copying_sum(da, db).items())
        assert list((a - b).items()) == \
            list(copying_sum(da, {i: -x for i, x in db.items()}).items())
        assert list((-a).items()) == [(i, -x) for i, x in da.items()]
        assert list(a.scale(n).items()) == [(i, n * x) for i, x in da.items() if n]
        assert list(boundary(cx, a).items()) == list(copying_boundary(cx, a).items())
        # an accumulator built in place by _axpy, as geom builds its fills,
        # against the chain of copying sums it replaced
        acc: dict = {}
        ref: dict = {}
        for q, c in zip(itertools.cycle((1, -2, 3)), chains):
            _axpy(acc, c.items(), q)
            ref = copying_sum(ref, {i: q * x for i, x in c.items()})
        assert list(acc.items()) == list(ref.items())
