import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fillbound.errors import CapacityError, DomainError, StructuralError
from fillbound.intlin import (
    DEFAULT_NODE_BUDGET,
    IntMatrix,
    _greedy_index,
    _greedy_reduce_maxnorm,
    _maxnorm_coset_min,
    bfrt_bound_ceiling,
    certify_small_solution,
    column_echelon_basis,
    dense_vector,
    max_minor_abs,
    rank,
    smith_decomposition,
)

from fillbound.chains import boundary_matrix
from fillbound.filling import boundary_smith
from fillbound.geom import ball_cover, geodesic_graph, nerve, project_cycle_to_graph
from fillbound.shapes import capped_prism, icosphere, octahedron

from conftest import (
    box_search_best,
    collected_after,
    det,
    det_laplace,
    identity,
    matmul,
    squared_norm,
)
from test_geom import _random_cycle


def dense_transforms(snf) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """(U, D, V) of a SmithDecomposition as full matrices, from its sparse columns."""

    def from_columns(n_rows, cols):
        m = IntMatrix(n_rows, len(cols))
        for j, (rows, vals) in enumerate(cols):
            for i, x in zip(rows, vals):
                m._r[i][j] = x
        return m

    d = IntMatrix(snf.rows, snf.cols)
    for i, x in enumerate(snf.diagonal):
        if x:
            d._r[i][i] = x
    return from_columns(snf.rows, snf._u_cols), d, from_columns(snf.cols, snf._v_cols)


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """(U, D, V) with U @ A @ V = D in Smith normal form."""
    return dense_transforms(smith_decomposition(a))


def solve_dense(snf, b):
    """``solve_with_obstruction`` on a dense rhs list, with x0 as a dense list."""
    x, reason = snf.solve_with_obstruction(dict(enumerate(b)))
    return (None if x is None else dense_vector(x, snf.cols)), reason


def greedy_reduce(x, cols):
    """``_greedy_reduce_maxnorm`` along columns with the index built for them."""
    return _greedy_reduce_maxnorm(x, cols, _greedy_index(cols, len(x)))


def solve_integer(a: IntMatrix, b) -> list[int] | None:
    """Some integer x with A x = b, or None when no integer solution exists."""
    return solve_dense(smith_decomposition(a), b)[0]


def solve_integer_small(a: IntMatrix, b, budget_box: int,
                        node_budget: int = DEFAULT_NODE_BUDGET) -> list[int] | None:
    """Integer solution of A x = b minimizing max-norm, then l1, then
    lexicographic order; None iff no solution lies in the box."""
    snf = smith_decomposition(a)
    x0, _ = solve_dense(snf, b)
    if x0 is None:
        return None
    return _maxnorm_coset_min(x0, snf, budget_box, node_budget)


def random_matrix(rng, max_rows=6, max_cols=6, max_entry=5):
    l = rng.randint(1, max_rows)
    n = rng.randint(1, max_cols)
    return IntMatrix.from_rows(
        [[rng.randint(-max_entry, max_entry) for _ in range(n)] for _ in range(l)]
    )


class TestIntMatrix:
    def test_shape_validation(self):
        with pytest.raises(StructuralError):
            IntMatrix(0, 3)
        with pytest.raises(StructuralError):
            IntMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(StructuralError):
            IntMatrix.from_rows([[1.5]])

    def test_matmul_and_vec(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert matmul(a, b) == IntMatrix.from_rows([[2, 1], [4, 3]])
        assert a.mul_vec([1, -1]) == [-1, -1]

    def test_det_against_laplace(self, rng):
        for _ in range(150):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            assert det(IntMatrix.from_rows(rows)) == det_laplace(rows)

    def test_big_integers_survive(self):
        big = 10 ** 40
        a = IntMatrix.from_rows([[big, 1], [0, big]])
        assert det(a) == big * big


def nested_rows(n_rows: int, n_cols: int):
    """Plain nested lists, mostly zeros, with some entries beyond 64 bits."""
    entry = st.one_of(st.just(0), st.integers(-4, 4), st.integers(-10 ** 30, 10 ** 30))
    return st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols),
                    min_size=n_rows, max_size=n_rows)


class TestSparseRowsProperty:
    """IntMatrix's sparse rows against the nested lists they stand for."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_nested_lists(self, data):
        r, c, k = (data.draw(st.integers(1, 5)) for _ in range(3))
        rows = data.draw(nested_rows(r, c))
        other = data.draw(nested_rows(c, k))
        vec = data.draw(st.lists(st.integers(-9, 9), min_size=c, max_size=c))
        a, b = IntMatrix.from_rows(rows), IntMatrix.from_rows(other)
        assert a.to_rows() == rows
        assert [[a[i, j] for j in range(c)] for i in range(r)] == rows
        assert a[-1, -1] == rows[-1][-1]
        assert a.mul_vec(vec) == [sum(x * y for x, y in zip(row, vec)) for row in rows]
        product = [[sum(rows[i][t] * other[t][j] for t in range(c)) for j in range(k)]
                   for i in range(r)]
        ab = matmul(a, b)
        assert ab.to_rows() == product
        assert ab == IntMatrix.from_rows(product)
        assert a.max_abs() == max(abs(x) for row in rows for x in row)
        zero = all(x == 0 for row in rows for x in row)
        assert a.is_zero() == zero
        assert (a == IntMatrix.zeros(r, c)) == zero
        assert IntMatrix.from_rows([[0] * c for _ in range(r)]) == IntMatrix.zeros(r, c)
        assert a == IntMatrix.from_rows([row[:] for row in rows])
        assert a != IntMatrix.from_rows([row[:-1] + [row[-1] + 1] for row in rows])
        for m in (a, ab, IntMatrix.zeros(r, c)):
            assert all(0 not in row.values() for row in m._r)
        n = min(r, c)
        square = [row[:n] for row in rows[:n]]
        assert det(IntMatrix.from_rows(square)) == det_laplace(square)


class TestRank:
    def test_identity(self):
        assert rank(identity(3)) == 3

    def test_zero(self):
        assert rank(IntMatrix.zeros(3, 4)) == 0

    def test_proportional_rows(self):
        assert rank(IntMatrix.from_rows([[1, 2], [2, 4], [3, 6]])) == 1

    def test_matches_float_rank_on_random(self, rng):
        for _ in range(120):
            a = random_matrix(rng)
            # oracle: count nonzero pivots of rational Gaussian elimination
            from fractions import Fraction

            m = [[Fraction(x) for x in row] for row in a.to_rows()]
            r = 0
            for col in range(a.cols):
                piv = next((i for i in range(r, a.rows) if m[i][col] != 0), None)
                if piv is None:
                    continue
                m[r], m[piv] = m[piv], m[r]
                for i in range(r + 1, a.rows):
                    f = m[i][col] / m[r][col]
                    m[i] = [x - f * y for x, y in zip(m[i], m[r])]
                r += 1
            assert rank(a) == r


class TestSmithNormalForm:
    def test_diag_2_3(self):
        a = IntMatrix.from_rows([[2, 0], [0, 3]])
        u, d, v = smith_normal_form(a)
        assert d == IntMatrix.from_rows([[1, 0], [0, 6]])
        assert matmul(matmul(u, a), v) == d
        assert abs(det_laplace(u.to_rows())) == 1
        assert abs(det_laplace(v.to_rows())) == 1

    def test_identity(self):
        a = identity(3)
        u, d, v = smith_normal_form(a)
        assert d == identity(3)
        assert matmul(matmul(u, a), v) == d

    def test_zero_1x1(self):
        u, d, v = smith_normal_form(IntMatrix.from_rows([[0]]))
        assert d == IntMatrix.from_rows([[0]])
        assert matmul(matmul(u, IntMatrix.from_rows([[0]])), v) == d

    def test_validity_randomized(self, rng):
        for _ in range(200):
            a = random_matrix(rng)
            snf = smith_decomposition(a)
            u, d, v = dense_transforms(snf)
            assert matmul(matmul(u, a), v) == d
            assert abs(det(u)) == 1
            assert abs(det(v)) == 1
            diag = snf.diagonal
            for i in range(len(diag)):
                assert diag[i] >= 0
                if i + 1 < len(diag) and diag[i + 1] != 0:
                    assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
            for i in range(d.rows):
                for j in range(d.cols):
                    if i != j:
                        assert d[i, j] == 0


class TestSolveInteger:
    def test_identity(self):
        assert solve_integer(identity(2), [3, -5]) == [3, -5]

    def test_parity_obstruction(self):
        assert solve_integer(IntMatrix.from_rows([[2]]), [1]) is None

    def test_2x2_example(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        x = solve_integer(a, [1, 1])
        assert x is not None
        assert a.mul_vec(x) == [1, 1]
        # oracle: exhaustive box search agrees this is the unique solution
        assert box_search_best(a, [1, 1], 3) == [-1, 1]
        assert x == [-1, 1]

    def test_dimension_mismatch(self):
        with pytest.raises(StructuralError):
            solve_integer(identity(2), [1, 2, 3])

    def test_round_trip_randomized(self, rng):
        for _ in range(500):
            l = rng.randint(1, 6)
            n = rng.randint(1, 6)
            a = IntMatrix.from_rows(
                [[rng.randint(-5, 5) for _ in range(n)] for _ in range(l)]
            )
            x0 = [rng.randint(-5, 5) for _ in range(n)]
            b = a.mul_vec(x0)
            x = solve_integer(a, b)
            assert x is not None
            assert a.mul_vec(x) == b

    def test_unsolvable_detection(self, rng):
        """b constructed outside the image via the SNF obstruction."""
        confirmed = 0
        while confirmed < 30:
            a = random_matrix(rng, max_rows=4, max_cols=4, max_entry=4)
            snf = smith_decomposition(a)
            diag = list(snf.diagonal)
            c = [0] * a.rows
            target = None
            for i in range(min(a.rows, a.cols)):
                if diag[i] > 1:
                    c[i] = diag[i] // 2 if diag[i] > 2 else 1
                    target = i
                    break
                if diag[i] == 0:
                    c[i] = 1
                    target = i
                    break
            if target is None:
                if a.rows > min(a.rows, a.cols):
                    c[a.rows - 1] = 1
                    target = a.rows - 1
                else:
                    continue  # surjective onto Z^l, every b solvable
            # b = U^{-1} c makes the transformed rhs exactly c
            uinv = _unimodular_inverse(dense_transforms(snf)[0])
            b = uinv.mul_vec(c)
            assert solve_integer(a, b) is None
            assert box_search_best(a, b, 10) is None
            confirmed += 1


def dense_solve_oracle(snf, b):
    """The dense U b / V y solve that the sparse transforms replaced."""
    u, d, v = dense_transforms(snf)
    lrows, ncols = u.rows, v.rows
    c = u.mul_vec(list(b))
    y = [0] * ncols
    k = min(lrows, ncols)
    for i in range(k):
        di = d[i, i]
        if di != 0:
            if c[i] % di != 0:
                return None, f"invariant factor d[{i}]={di} does not divide transformed rhs {c[i]}"
            y[i] = c[i] // di
        elif c[i] != 0:
            return None, f"transformed rhs is {c[i]} on zero diagonal row {i}"
    for i in range(k, lrows):
        if c[i] != 0:
            return None, f"transformed rhs is {c[i]} on row {i} beyond the diagonal"
    return v.mul_vec(y), None


def list_solve_oracle(snf, b):
    """The solve on a dense rhs list with a dense x, as ``solve_with_obstruction``
    ran before it took and gave {index: value}: U b from the U columns on b's
    support, then V y from the V columns of y's support."""
    if len(b) != snf.rows:
        raise StructuralError(f"rhs length {len(b)} != row count {snf.rows}")
    c = {}
    for j, bj in enumerate(b):
        if bj:
            rows, vals = snf._u_cols[j]
            for i, x in zip(rows, vals):
                c[i] = c.get(i, 0) + bj * x
    k = len(snf.diagonal)
    x = [0] * snf.cols
    for i in sorted(c):
        ci = c[i]
        if ci == 0:
            continue
        if i >= k:
            return None, f"transformed rhs is {ci} on row {i} beyond the diagonal"
        di = snf.diagonal[i]
        if di == 0:
            return None, f"transformed rhs is {ci} on zero diagonal row {i}"
        if ci % di != 0:
            return None, f"invariant factor d[{i}]={di} does not divide transformed rhs {ci}"
        rows, vals = snf._v_cols[i]
        for r, val in zip(rows, vals):
            x[r] += ci // di * val
    return x, None


def _sparse_columns(m):
    """Per column of a dense row-major matrix: (row indices, values) of its nonzeros."""
    out = []
    for col in zip(*m):
        rows = [i for i, x in enumerate(col) if x]
        out.append((rows, [col[i] for i in rows]))
    return out


def dense_smith_oracle(a):
    """The dense minimal-pivot Smith form that the sparse replay replaced.

    Returns (diagonal, U columns, V columns) in the layout of
    ``SmithDecomposition``'s ``diagonal``, ``_u_cols`` and ``_v_cols``.
    """
    lrows, ncols = a.rows, a.cols
    d = a.to_rows()
    u = [[1 if i == j else 0 for j in range(lrows)] for i in range(lrows)]
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def swap_rows(m, i, j):
        m[i], m[j] = m[j], m[i]

    def negate_row(m, i):
        m[i] = [-x for x in m[i]]

    def add_row(m, dst, src, q):
        if q:
            m[dst] = [x + q * y for x, y in zip(m[dst], m[src])]

    def swap_cols(m, i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]

    def add_col(m, dst, src, q):
        if q:
            for row in m:
                row[dst] += q * row[src]

    t = 0
    limit = min(lrows, ncols)
    while t < limit:
        # locate the minimal nonzero entry of the trailing block
        pivot = None
        best = None
        for i in range(t, lrows):
            row = d[i]
            for j in range(t, ncols):
                vij = row[j]
                if vij != 0 and (best is None or abs(vij) < best):
                    best = abs(vij)
                    pivot = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            swap_rows(d, pi, t)
            swap_rows(u, pi, t)
        if pj != t:
            swap_cols(d, pj, t)
            swap_cols(v, pj, t)
        if d[t][t] < 0:
            negate_row(d, t)
            negate_row(u, t)

        while True:
            # clear the pivot column; a nonzero remainder becomes the new pivot
            restart = False
            for i in range(t + 1, lrows):
                if d[i][t] == 0:
                    continue
                q = d[i][t] // d[t][t]
                add_row(d, i, t, -q)
                add_row(u, i, t, -q)
                if d[i][t] != 0:
                    swap_rows(d, i, t)
                    swap_rows(u, i, t)
                    restart = True
                    break
            if restart:
                continue
            for j in range(t + 1, ncols):
                if d[t][j] == 0:
                    continue
                q = d[t][j] // d[t][t]
                add_col(d, j, t, -q)
                add_col(v, j, t, -q)
                if d[t][j] != 0:
                    swap_cols(d, j, t)
                    swap_cols(v, j, t)
                    restart = True
                    break
            if restart:
                continue
            # divisibility cleanup: pivot must divide the trailing block
            offender = None
            for i in range(t + 1, lrows):
                row = d[i]
                for j in range(t + 1, ncols):
                    if row[j] % d[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(d, t, offender, 1)
            add_row(u, t, offender, 1)
        t += 1

    return tuple(d[i][i] for i in range(limit)), _sparse_columns(u), _sparse_columns(v)


@st.composite
def smith_matrices(draw):
    """Small integer matrices: 1 x n, n x 1 or general.

    Entries lean to zero and to values with common factors, a whole-matrix
    scale makes every invariant factor non-unit, and a row and a column may
    be zeroed.
    """
    shape = draw(st.sampled_from(["row", "column", "general"]))
    rows = 1 if shape == "row" else draw(st.integers(1, 7))
    cols = 1 if shape == "column" else draw(st.integers(1, 7))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, -4, 6, 9])
    scale = draw(st.sampled_from([1, 1, 2, 3]))
    m = [[scale * draw(entry) for _ in range(cols)] for _ in range(rows)]
    zero_row = draw(st.none() | st.integers(0, rows - 1))
    zero_col = draw(st.none() | st.integers(0, cols - 1))
    for i in range(rows):
        for j in range(cols):
            if i == zero_row or j == zero_col:
                m[i][j] = 0
    return IntMatrix.from_rows(m)


@st.composite
def small_systems(draw):
    """Small integer systems A x = b, solvable or not."""
    a = draw(smith_matrices())
    if draw(st.booleans()):
        b = a.mul_vec(draw(st.lists(st.integers(-3, 3), min_size=a.cols, max_size=a.cols)))
    else:
        b = draw(st.lists(st.integers(-6, 6), min_size=a.rows, max_size=a.rows))
    return a, b


class TestSparseSolveDifferential:
    @settings(max_examples=400, deadline=None)
    @given(system=small_systems())
    def test_matches_dense_oracle(self, system):
        a, b = system
        snf = smith_decomposition(a)
        got = solve_dense(snf, b)
        assert got == dense_solve_oracle(snf, b)
        x, _ = got
        if x is not None:
            assert a.mul_vec(x) == b

    def test_each_obstruction_kind(self):
        cases = {
            "does not divide": (IntMatrix.from_rows([[2, 0], [0, 6]]), [2, 3]),
            "zero diagonal": (IntMatrix.from_rows([[1, 0], [0, 0]]), [0, 1]),
            "beyond the diagonal": (IntMatrix.from_rows([[1], [0]]), [0, 1]),
        }
        for phrase, (a, b) in cases.items():
            snf = smith_decomposition(a)
            x, reason = solve_dense(snf, b)
            assert x is None and phrase in reason
            assert (x, reason) == dense_solve_oracle(snf, b)

    def test_kernel_columns_are_sparse_kernel_basis(self, rng):
        for _ in range(50):
            a = random_matrix(rng, max_rows=4, max_cols=6, max_entry=3)
            snf = smith_decomposition(a)
            v = dense_transforms(snf)[2]
            kernel = snf.kernel_columns()
            assert len(kernel) == snf.cols - snf.rank
            dense = [dense_column(col, snf.cols) for col in kernel]
            assert dense == [[v[i, j] for i in range(v.rows)] for j in range(snf.rank, v.cols)]
            for (rows, vals), col in zip(kernel, dense):
                assert rows == sorted(rows) and all(vals)
                assert not any(a.mul_vec(col))


def dense_column(col, n: int) -> list[int]:
    rows, vals = col
    out = [0] * n
    for i, x in zip(rows, vals):
        out[i] = x
    return out


def greedy_maxnorm_oracle(x: list[int], cols: list[list[int]]) -> list[int]:
    """The greedy max-norm reduction that the delta-scored one replaced.

    Columns are dense and every trial shift rescans the whole vector.
    """
    x = x[:]
    if not cols:
        return x

    def score(v):
        return (max(abs(c) for c in v), sum(abs(c) for c in v))

    best = score(x)
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
            best_s = best
            for q in sorted(candidates):
                if q == 0:
                    continue
                trial = [xi - q * ci for xi, ci in zip(x, col)]
                s = score(trial)
                if s < best_s:
                    best_s = s
                    best_q = q
            if best_q:
                x = [xi - best_q * ci for xi, ci in zip(x, col)]
                best = best_s
                improved = True
    return x


class CountedPasses(list):
    """Columns that count the passes made over them and stop a runaway loop.

    Every pass but the last strictly lowers (max |x_i|, sum |x_i|), which
    stays within [0, M] x [0, n M] for M = max |x0_i|; more passes than
    those pairs means the greedy cycles.
    """

    def __init__(self, cols, x0):
        super().__init__(cols)
        m = max(map(abs, x0), default=0)
        self.limit = (m + 1) * (len(x0) * m + 1) + 1
        self.passes = 0

    def __iter__(self):
        self.passes += 1
        assert self.passes <= self.limit, "greedy reduction does not terminate"
        return super().__iter__()


def greedy(x: list[int], cols: list) -> list[int]:
    return greedy_reduce(x, CountedPasses(cols, x))


@st.composite
def greedy_cases(draw):
    """A vector with entries in [-20, 20], mostly small, and sparse columns
    of its length.

    A column may be zero, repeat an earlier one up to sign, or pass through
    every row where |x_i| is largest; the others have up to ten unit or
    non-unit entries up to 20.  Small entries under a heavy column, with the
    max on or off it, make both of the greedy's skip conditions hold and fail.
    """
    n = draw(st.integers(1, 12))
    entry = st.one_of(st.sampled_from([0, 0, 0, 1, -1, 1, -1, 2, -2, 3, -3, 4, -5, 5]),
                      st.integers(-20, 20))
    x = draw(st.lists(entry, min_size=n, max_size=n))
    coeff = st.one_of(st.sampled_from([1, -1, 1, -1, 2, -2, 3, -4]),
                      st.integers(-20, 20).filter(bool))
    cols = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["sparse", "sparse", "sparse", "zero", "repeat", "max"]))
        if kind == "zero":
            cols.append(([], []))
        elif kind == "repeat" and cols:
            rows, vals = draw(st.sampled_from(cols))
            sign = draw(st.sampled_from([1, -1]))
            cols.append((rows, [sign * v for v in vals]))
        else:
            rows = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=10))
            if kind == "max":
                top = max(map(abs, x))
                rows = set(list(rows)[:4]) | {i for i, a in enumerate(x) if abs(a) == top}
            rows = sorted(rows)
            cols.append((rows, [draw(coeff) for _ in rows]))
    return x, cols


class TestGreedyMaxnormDifferential:
    """The delta-scored greedy makes the old full-rescan greedy's choices."""

    @settings(max_examples=500, deadline=None)
    @given(case=greedy_cases())
    def test_matches_oracle(self, case):
        x, cols = case
        expected = greedy_maxnorm_oracle(x, [dense_column(c, len(x)) for c in cols])
        assert greedy(x, cols) == expected

    @pytest.mark.parametrize("x,cols,expected", [
        # q = -2 and q = -1 both reach (1, 2): the first in sorted order wins
        ([-3, -3], [([0, 1], [2, 2])], [1, 1]),
        # q = 1 only ties the current (1, 1), so x stays
        ([1, 0], [([0, 1], [1, 1])], [1, 0]),
        ([0, 0, 0], [([0, 2], [1, -1]), ([1], [3])], [0, 0, 0]),
        ([4, -1, 2], [], [4, -1, 2]),
        # 2 * 3 <= 5 + 1, so no shift lowers l1, but the max lies on the
        # column only and q = 1 lowers it: (3, 3) -> (2, 3)
        ([3, 0], [([0, 1], [5, 1])], [-2, -1]),
        # the max lies off the column, and q = 2 lowers l1: (3, 13) -> (3, 9)
        ([3, 3, 3, 2, 2], [([3, 4], [1, 1])], [3, 3, 3, 0, 0]),
    ], ids=["tie-between-shifts", "tie-with-current", "zero-vector", "empty-kernel",
            "max-only-on-heavy-column", "max-off-column"])
    def test_fixed_cases(self, x, cols, expected):
        dense = [dense_column(c, len(x)) for c in cols]
        assert greedy_maxnorm_oracle(x, dense) == expected
        assert greedy(x, cols) == expected

    def test_does_not_mutate_input(self):
        x = [-3, -3]
        assert greedy(x, [([0, 1], [2, 2])]) == [1, 1]
        assert x == [-3, -3]

    def test_icosphere2_nerve_kernel(self, rng):
        """Smith solutions of E2 cycles on a nerve whose boundary kernel has
        dimension 298: cycles on icosphere(2) that E1 projects to nonzero
        nerve cycles."""
        space = icosphere(2)
        cover = ball_cover(space, 0.8)
        graph = geodesic_graph(space, cover)
        k = graph.nerve
        snf = boundary_smith(k, 2)
        kernel = snf.kernel_columns()
        assert len(kernel) == 298
        dense = [dense_column(col, snf.cols) for col in kernel]
        checked = 0
        while checked < 40:
            z = _random_cycle(rng, space, parts=rng.randint(1, 3))
            c, _, _ = project_cycle_to_graph(space, cover, graph, z)
            if c.is_zero():
                continue
            x0, _ = solve_dense(snf, c.to_vector(k.n_simplices(1)))
            assert greedy(x0, kernel) == greedy_maxnorm_oracle(x0, dense)
            checked += 1

    def test_leaves_no_cycles(self):
        # a reduction frees everything it made when it returns
        x, kernel = [5, -3, 0, 7], [([0, 1, 3], [2, -1, 3]), ([1, 2], [1, 1])]
        assert collected_after(lambda: greedy_reduce(x, kernel)) == 0


def _boundary_cases():
    spaces = [("octahedron", octahedron(), 0.8), ("icosphere1", icosphere(1), 0.8),
              ("capped_prism", capped_prism(6, 2), 1.2)]
    for name, space, radius in spaces:
        for label, cx in ((name, space.complex), (name + "-nerve", nerve(ball_cover(space, radius)))):
            for k in range(1, cx.dimension + 1):
                yield pytest.param(cx, k, id=f"{label}-d{k}")


class TestSmithReplayDifferential:
    """The sparse replay gives the dense routine's U, D and V exactly."""

    @settings(max_examples=500, deadline=None)
    @given(a=smith_matrices())
    def test_matches_dense_oracle(self, a):
        snf = smith_decomposition(a)
        assert (snf.diagonal, snf._u_cols, snf._v_cols) == dense_smith_oracle(a)

    @pytest.mark.parametrize("cx,k", list(_boundary_cases()))
    def test_boundary_matrices(self, cx, k):
        a = boundary_matrix(cx, k)
        snf = smith_decomposition(a)
        assert (snf.diagonal, snf._u_cols, snf._v_cols) == dense_smith_oracle(a)


def dense_echelon_oracle(cols: list[list[int]], n: int) -> tuple[list[list[int]], list[int]]:
    """The dense column-echelon routine that the sparse one replaced.

    Returns (columns, pivot_rows); column j has its first nonzero (positive)
    entry at pivot_rows[j], strictly increasing.  The span is unchanged.
    """
    work = [c[:] for c in cols]
    t = 0
    for row in range(n):
        if t == len(work):
            break
        live = [j for j in range(t, len(work)) if work[j][row] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda j: (abs(work[j][row]), j))
            j0 = live[0]
            base = work[j0]
            pivot_val = base[row]
            for j in live[1:]:
                q = work[j][row] // pivot_val
                if q:
                    work[j] = [a - q * b for a, b in zip(work[j], base)]
            live = [j for j in live if work[j][row] != 0]
        j0 = live[0]
        work[t], work[j0] = work[j0], work[t]
        if work[t][row] < 0:
            work[t] = [-x for x in work[t]]
        t += 1
    pivots = []
    for col in work:
        p = next(i for i, x in enumerate(col) if x != 0)
        pivots.append(p)
    return work, pivots


@st.composite
def lattice_bases(draw):
    """A drawn matrix's kernel columns, mixed by unimodular column additions.

    Returns (sparse columns, length); the mixing keeps a basis of the same
    lattice but gives the echelon reduction more to do.
    """
    snf = smith_decomposition(draw(smith_matrices()))
    n = snf.cols
    cols = [dense_column(col, n) for col in snf.kernel_columns()]
    if len(cols) > 1:
        for _ in range(draw(st.integers(0, 4))):
            i, j = draw(st.lists(st.integers(0, len(cols) - 1), min_size=2, max_size=2,
                                 unique=True))
            q = draw(st.sampled_from([-2, -1, 1, 2, 3]))
            cols[i] = [a + q * b for a, b in zip(cols[i], cols[j])]
    return [([i for i, x in enumerate(c) if x], [x for x in c if x]) for c in cols], n


class TestEchelonDifferential:
    """The sparse column-echelon form makes the dense routine's column operations."""

    def check(self, cols, n):
        got = column_echelon_basis(cols)
        want, pivots = dense_echelon_oracle([dense_column(col, n) for col in cols], n)
        assert [dense_column(col, n) for col in got] == want
        assert [rows[0] for rows, _ in got] == pivots
        for rows, vals in got:
            assert rows == sorted(rows) and all(vals)

    @settings(max_examples=300, deadline=None)
    @given(case=lattice_bases())
    def test_matches_dense_oracle(self, case):
        self.check(*case)

    @pytest.mark.parametrize("cx,k", list(_boundary_cases()))
    def test_boundary_kernels(self, cx, k):
        snf = smith_decomposition(boundary_matrix(cx, k))
        self.check(snf.kernel_columns(), snf.cols)


def _unimodular_inverse(u: IntMatrix) -> IntMatrix:
    """Adjugate-based inverse; valid because |det u| = 1."""
    n = u.rows
    rows = u.to_rows()
    d = det_laplace(rows)
    assert abs(d) == 1
    cof = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [r[:j] + r[j + 1:] for k, r in enumerate(rows) if k != i]
            sign = -1 if (i + j) % 2 else 1
            cof[j][i] = sign * (det_laplace(minor) if minor else 1)
    return IntMatrix.from_rows([[x * d for x in row] for row in cof])


class TestMaxMinor:
    def test_augmented_identity(self):
        aug = IntMatrix.from_rows([[1, 0, 5], [0, 1, 7]])
        assert max_minor_abs(aug, 2) == 7

    def test_order_one(self, rng):
        for _ in range(20):
            a = random_matrix(rng)
            assert max_minor_abs(a, 1) == a.max_abs()

    def test_zero_matrix(self):
        assert max_minor_abs(IntMatrix.zeros(3, 3), 2) == 0

    def test_budget(self):
        a = IntMatrix.zeros(30, 30)
        with pytest.raises(CapacityError):
            max_minor_abs(a, 15, budget=100)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            max_minor_abs(identity(2), 3)

    def test_budget_counts_elimination_cost(self):
        # 393,822 minors of order 8 cost 201,636,864 multiply-adds
        with pytest.raises(CapacityError, match="costs 201636864 multiply-adds"):
            max_minor_abs(IntMatrix.zeros(18, 9), 8)
        a = IntMatrix.from_rows([[1, 2, 0], [0, 3, 1], [2, 0, 5]])
        assert max_minor_abs(a, 2, budget=3 * 3 * 2 ** 3) == 15
        with pytest.raises(CapacityError):
            max_minor_abs(a, 2, budget=3 * 3 * 2 ** 3 - 1)


class TestBfrtBound:
    @pytest.mark.parametrize(
        "m,ma,mb,expected",
        [(2, 1, 5, 10), (1, 3, 2, 3), (3, 2, 1, 42)],  # 3^1.5 * 2^2 * 2 = 41.57
    )
    def test_values(self, m, ma, mb, expected):
        assert bfrt_bound_ceiling(m, ma, mb) == expected

    def test_zero_rank_convention(self):
        assert bfrt_bound_ceiling(0, 3, 7) == 7

    def test_ceiling_is_sound(self, rng):
        for _ in range(200):
            m = rng.randint(1, 6)
            ma = rng.randint(1, 9)
            mb = rng.randint(0, 9)
            c = bfrt_bound_ceiling(m, ma, mb)
            # exact: c-1 < bound <= c, verified on squared integers
            k = ma ** (m - 1) * max(ma, mb)
            sq = m ** m * k * k
            assert c * c >= sq
            assert (c - 1) * (c - 1) < sq

    def test_preconditions(self):
        with pytest.raises(DomainError):
            bfrt_bound_ceiling(2, 0, 1)


class TestSolveIntegerSmall:
    def test_trivial_kernel_line(self):
        a = IntMatrix.from_rows([[1, 1]])
        assert solve_integer_small(a, [0], 5) == [0, 0]

    def test_unique_solution(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert solve_integer_small(a, [1, 1], 5) == [-1, 1]

    def test_tie_breaking_matches_box_oracle(self):
        # solutions of x1 - x2 = 3 with max-norm 2: (1,-2) and (2,-1);
        # both have l1 = 3, so the lexicographically smallest wins.
        a = IntMatrix.from_rows([[1, -1]])
        expected = box_search_best(a, [3], 3)
        assert expected == [1, -2]
        assert solve_integer_small(a, [3], 3) == expected

    def test_box_limit_respected(self):
        a = IntMatrix.from_rows([[5]])
        assert solve_integer_small(a, [50], 3) is None
        assert solve_integer_small(a, [50], 10) == [10]

    def test_unsolvable(self):
        assert solve_integer_small(IntMatrix.from_rows([[2]]), [1], 10) is None

    def test_capacity_when_lattice_and_box_both_large(self):
        # kernel 11 in a box of 11^12 points: the search answers, and stops
        # at its node budget
        a = IntMatrix.from_rows([[1] * 12])
        assert solve_integer_small(a, [0], 5) == [0] * 12
        with pytest.raises(CapacityError, match="^coset search exceeded node budget 5$"):
            solve_integer_small(a, [7], 5, node_budget=5)

    def test_matches_box_oracle_randomized(self, rng):
        for _ in range(150):
            l = rng.randint(1, 3)
            n = rng.randint(1, 4)
            a = IntMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(l)]
            )
            x0 = [rng.randint(-2, 2) for _ in range(n)]
            b = a.mul_vec(x0)
            got = solve_integer_small(a, b, 4)
            want = box_search_best(a, b, 4)
            assert got == want
        # kernels of dimension 9 to 11, in the unit box
        for l, n in ((1, 10), (1, 11), (1, 12)):
            a = IntMatrix.from_rows(
                [[rng.randint(-1, 1) for _ in range(n)] for _ in range(l)]
            )
            assert len(smith_decomposition(a).kernel_columns()) >= 9
            b = a.mul_vec([rng.randint(-1, 1) for _ in range(n)])
            assert solve_integer_small(a, b, 1) == box_search_best(a, b, 1)


def maxnorm_coset_oracle(x0, snf, box: int, node_budget: int):
    """The iterative-deepening search that ``coset_min`` replaced, counting nodes.

    Each bound from the fixed rows' norm up runs a depth-first search that
    tries every shift keeping |x_p| within the bound and takes the least
    (l1, tuple) in the box.  Returns (result, nodes).
    """
    n = len(x0)
    kernel = snf.kernel_columns()
    xr = greedy_reduce(x0, kernel)
    if not kernel:
        return (xr if max(map(abs, xr), default=0) <= box else None), 0
    cols, pivots = dense_echelon_oracle([dense_column(col, n) for col in kernel], n)
    r = len(cols)
    fixed_norm = max((abs(xr[i]) for i in range(pivots[0])), default=0)
    b_hi = min(box, max(map(abs, xr), default=0))
    if fixed_norm > box:
        return None, 0
    nodes = 0
    next_pivot = pivots[1:] + [n]

    def search(bound):
        nonlocal nodes
        best = None

        def dfs(j, cur):
            nonlocal best, nodes
            if j == r:
                cand = (sum(map(abs, cur)), tuple(cur))
                if best is None or cand < best:
                    best = cand
                return
            col, p = cols[j], pivots[j]
            hp, base = col[p], cur[p]
            t_lo = -((bound + base) // hp)
            t_hi = (bound - base) // hp
            for t in range(t_lo, t_hi + 1):
                nodes += 1
                if nodes > node_budget:
                    raise CapacityError(f"coset search exceeded node budget {node_budget}")
                nxt = cur[:p] + [cur[i] + t * col[i] for i in range(p, n)]
                if any(abs(nxt[i]) > bound for i in range(p, next_pivot[j])):
                    continue
                dfs(j + 1, nxt)

        dfs(0, xr)
        return best

    for bound in range(fixed_norm, b_hi + 1):
        found = search(bound)
        if found is not None:
            return list(found[1]), nodes
    return None, nodes


@st.composite
def coset_cases(draw):
    """A small system's Smith form, a point of its solution coset and a box.

    The point is the drawn solution or the Smith solution; small entries
    make ties in (l1, tuple) common.
    """
    a = draw(smith_matrices())
    x = draw(st.lists(st.integers(-3, 3), min_size=a.cols, max_size=a.cols))
    snf = smith_decomposition(a)
    if draw(st.booleans()):
        x = solve_dense(snf, a.mul_vec(x))[0]
    return x, snf, draw(st.integers(0, 6))


class TestMaxnormCosetDifferential:
    """Deepening over coset_min's cap gives the old search's answers, in no more nodes."""

    def check(self, x, snf, box):
        expected, nodes = maxnorm_coset_oracle(x, snf, box, 10 ** 6)
        # the search raises as soon as it passes its budget, so succeeding on
        # the oracle's node count shows it visits no more nodes
        assert _maxnorm_coset_min(x, snf, box, nodes) == expected
        return expected

    @settings(max_examples=500, deadline=None)
    @given(case=coset_cases())
    def test_matches_oracle(self, case):
        self.check(*case)

    @pytest.mark.parametrize("rows,x,box,expected", [
        # x1 - x2 = 3: (1, -2) and (2, -1) tie on (max, l1) = (2, 3)
        ([[1, -1]], [3, 0], 3, [1, -2]),
        ([[1, -1]], [3, 0], 1, None),
        ([[1, 1, 1]], [2, -1, 2], 0, None),
        ([[1, 1, 1]], [2, -1, 2], 6, [1, 1, 1]),
        # full column rank: the kernel is empty and x is the only solution
        ([[1, 2], [3, 4]], [-1, 1], 0, None),
        ([[1, 2], [3, 4]], [-1, 1], 1, [-1, 1]),
    ], ids=["tie", "tie-box-too-small", "box-0", "box-6", "empty-kernel-box-0", "empty-kernel"])
    def test_fixed_cases(self, rows, x, box, expected):
        assert self.check(x, smith_decomposition(IntMatrix.from_rows(rows)), box) == expected

    @settings(max_examples=300, deadline=None)
    @given(case=coset_cases(), data=st.data())
    def test_start_independent(self, case, data):
        """Any point of the coset gives the same answer: the reason no
        reduction has to run before the search."""
        x, snf, box = case
        kernel = snf.kernel_columns()
        qs = data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6),
                                min_size=len(kernel), max_size=len(kernel)))
        shifted = x[:]
        for (rows, vals), q in zip(kernel, qs):
            for i, v in zip(rows, vals):
                shifted[i] += q * v
        assert (_maxnorm_coset_min(shifted, snf, box, 10 ** 6)
                == _maxnorm_coset_min(x, snf, box, 10 ** 6))

    def test_budget_message(self):
        snf = smith_decomposition(IntMatrix.from_rows([[1, -1]]))
        with pytest.raises(CapacityError, match="^coset search exceeded node budget 0$"):
            _maxnorm_coset_min([3, 0], snf, 3, 0)


class TestHadamard:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 5),
        data=st.data(),
    )
    def test_hadamard_inequality(self, n, data):
        rows = data.draw(
            st.lists(
                st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
        d = det_laplace(rows)
        cols = list(zip(*rows))
        # compare squares exactly: det^2 <= prod ||col||^2
        prod = 1
        for col in cols:
            prod *= squared_norm(col)
        assert d * d <= prod


class TestCertificate:
    def test_chain_of_inequalities(self, rng):
        for _ in range(120):
            l = rng.randint(1, 3)
            n = rng.randint(1, 8)
            a = IntMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(l)]
            )
            x0 = [rng.randint(-2, 2) for _ in range(n)]
            b = a.mul_vec(x0)
            cert = certify_small_solution(a, b)
            assert cert is not None
            assert cert.check()
            assert cert.solution is not None
            sol_max = max(map(abs, cert.solution), default=0)
            if cert.minor_max is not None:
                assert sol_max <= cert.minor_max
                assert cert.minor_max <= cert.hadamard_bound_ceiling
            else:
                assert sol_max <= cert.hadamard_bound_ceiling

    def test_nearly_parallel_kernel(self):
        # the Smith solution reaches 5.7e7 and the four kernel columns, nearly
        # parallel, 1.8e7: a greedy reduction one column at a time takes
        # minutes here, so the search must start without one
        a = IntMatrix.from_rows([
            [-1, 1, -1, 3, 3, 2, 0, -2],
            [-2, -3, 2, 2, -1, 3, -1, 3],
            [-2, 1, 3, 2, 1, -1, 3, 3],
            [2, 0, 0, 3, 3, 3, 1, 1],
        ])
        b = [8, -10, -8, 3]
        cert = certify_small_solution(a, b)
        assert cert.solution == (1, 1, -2, 2, 0, -1, -1, -1)
        assert cert.check()
        assert a.mul_vec(list(cert.solution)) == b

    def test_unsolvable_returns_none(self):
        assert certify_small_solution(IntMatrix.from_rows([[2]]), [1]) is None

    def test_zero_matrix(self):
        cert = certify_small_solution(IntMatrix.zeros(2, 2), [0, 0])
        assert cert is not None and cert.m == 0
        assert certify_small_solution(IntMatrix.zeros(2, 2), [0, 1]) is None

    @pytest.mark.parametrize("b", [[0], [0, 0, 0, 0]], ids=["short", "long"])
    @pytest.mark.parametrize("a", [IntMatrix.zeros(2, 3), IntMatrix.from_rows([[1, 2, 0], [0, 1, 3]])],
                             ids=["zero", "nonzero"])
    def test_rhs_length_checked_first(self, a, b):
        with pytest.raises(StructuralError, match=f"^rhs length {len(b)} != row count 2$"):
            certify_small_solution(a, b)

    def test_hadamard_fallback(self, rng):
        # minors of order 6 of the 30 x 7 augmented matrix cost
        # C(30, 6) * C(7, 6) * 6^3 (about 9.0e8) multiply-adds, over the budget
        a = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(6)] for _ in range(30)])
        assert rank(a) == 6
        x0 = [rng.randint(-2, 2) for _ in range(6)]
        cert = certify_small_solution(a, a.mul_vec(x0))
        assert cert.m == 6 and cert.minor_max is None
        assert cert.solution == tuple(x0)  # the kernel is trivial
        assert cert.check()
