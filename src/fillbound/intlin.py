"""Exact integer linear algebra.

Everything in this module works over arbitrary-precision Python integers:
rank and determinants by fraction-free (Bareiss) elimination, Smith normal
form with unimodular transforms, integer solvability of ``A x = b``, exact
minor enumeration, and the Borosh--Flahive--Rubin--Treybig / Hadamard
small-solution bound used to certify fillings.

``IntMatrix``, the one integer-matrix format, stores sparse rows (dicts of
the nonzero entries); only rank and minors densify them.

The Smith form is computed by sparse elimination on copies of those rows
that replays the dense minimal-pivot rule exactly (same pivots, same row
and column operations, same order), so its U, D and V are the dense
routine's, which the tests keep as the differential oracle.  It is kept
sparse: U and V as sparse columns and D as its diagonal, so a solve
against a cached decomposition, sparse in and sparse out, costs the
nonzeros on the right-hand side's support.  ``filling`` caches them per
complex.

A kernel has one format: sparse columns (rows ascending, values), as
``SmithDecomposition.kernel_columns`` hands them out.  The greedy max-norm
reduction, ``column_echelon_basis`` and ``coset_min`` all take it.

``coset_min`` is the one exact search over a solution coset x0 + ker(A):
a branch and bound on sum_i w_i |x_i| with integer weights, an optional cap
on every |x_i| and an optional tie slack.  The minimum-mass fills in
``filling`` run it, with triangle areas scaled exactly into integers and
their tie rule's slack, on the kernels that their weighted-median path does
not cover (columns that overlap or have other entries than +-1); the
max-norm search, the certificate's one small-solution search at every
kernel dimension, deepens its cap with unit weights and no slack.  There is
no floating point in this module: every comparison is exact.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import CapacityError, DomainError, StructuralError

DEFAULT_MINOR_BUDGET = 27 * 10 ** 6  # multiply-adds: 10^6 minors of order 3
DEFAULT_NODE_BUDGET = 2 * 10 ** 6


class IntMatrix:
    """Integer matrix stored as sparse rows: row i is a dict {column: entry}
    of its nonzero entries only, so equal matrices have equal rows.  Dense
    algorithms (rank, minors) take ``to_rows()``."""

    __slots__ = ("rows", "cols", "_r")

    def __init__(self, rows: int, cols: int):
        """The rows x cols zero matrix."""
        if rows <= 0 or cols <= 0:
            raise StructuralError(f"matrix dimensions must be positive, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self._r = [{} for _ in range(rows)]

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[int]]) -> "IntMatrix":
        data = [list(r) for r in data]
        if not data or not data[0]:
            raise StructuralError("matrix needs at least one row and one column")
        if any(len(r) != len(data[0]) for r in data):
            raise StructuralError("ragged rows in matrix data")
        mat = cls(len(data), len(data[0]))
        for sparse, r in zip(mat._r, data):
            for j, e in enumerate(r):
                if not isinstance(e, int):
                    raise StructuralError(f"matrix entries must be int, got {type(e).__name__}")
                if e:
                    sparse[j] = e
        return mat

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols)

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self._r[i].get(range(self.cols)[j], 0)  # j < 0 and IndexError as in a list

    def to_rows(self) -> list[list[int]]:
        return [[row.get(j, 0) for j in range(self.cols)] for row in self._r]

    def mul_vec(self, vec: Sequence[int]) -> list[int]:
        if len(vec) != self.cols:
            raise StructuralError(f"vector length {len(vec)} != column count {self.cols}")
        return [sum(a * vec[j] for j, a in row.items()) for row in self._r]

    def max_abs(self) -> int:
        return max((abs(e) for row in self._r for e in row.values()), default=0)

    def is_zero(self) -> bool:
        return not any(self._r)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._r == other._r
        )

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols}, {self.to_rows()!r})"


def _bareiss_det(m: list[list[int]]) -> int:
    """Determinant of the square matrix m by Bareiss elimination; m is overwritten."""
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot_row is None:
                return 0
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pkk = m[k][k]
        row_k = m[k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            for j in range(k + 1, n):
                row_i[j] = (pkk * row_i[j] - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pkk
    return sign * m[n - 1][n - 1]


def rank(a: IntMatrix) -> int:
    """Exact rank over the rationals, by fraction-free elimination."""
    m = a.to_rows()
    nrows, ncols = a.rows, a.cols
    r = 0
    prev = 1
    for col in range(ncols):
        pivot = None
        best = None
        for i in range(r, nrows):
            v = m[i][col]
            if v != 0 and (best is None or abs(v) < best):
                best = abs(v)
                pivot = i
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prc = m[r][col]
        for i in range(r + 1, nrows):
            mic = m[i][col]
            if mic == 0 and prev == 1:
                continue
            row_i = m[i]
            row_r = m[r]
            for j in range(col + 1, ncols):
                row_i[j] = (prc * row_i[j] - mic * row_r[j]) // prev
            row_i[col] = 0
        prev = prc
        r += 1
        if r == nrows:
            break
    return r


class SmithDecomposition:
    """U @ A @ V = D with U, V unimodular and D diagonal, d_i | d_{i+1}.

    U and V are kept as sparse columns and D as its diagonal: on boundary
    matrices the transforms are a few percent nonzero, so a solve costs
    what the right-hand side's support touches, not a dense product.  The
    last columns of V, from ``rank`` on, are the kernel; ``kernel_columns``
    is its only accessor, and nothing is cached on the object.  ``torsion``
    says whether some invariant factor exceeds 1, so that coker A has
    torsion.

    Each column is a pair of lists (row indices ascending, values).  Lists,
    not tuples: freed small tuples stay on CPython's per-size free lists,
    and with tuples the peak RSS of repeated cold CLI fills of
    capped_prism(6, 2) rose by 1.2-1.6 MB.
    """

    __slots__ = ("rows", "cols", "diagonal", "rank", "torsion", "_u_cols", "_v_cols")

    def __init__(self, diagonal: Sequence[int], u_cols: list, v_cols: list):
        self.rows = len(u_cols)
        self.cols = len(v_cols)
        self.diagonal = tuple(diagonal)
        self.rank = sum(1 for x in self.diagonal if x != 0)
        self.torsion = any(x not in (0, 1) for x in self.diagonal)
        self._u_cols = u_cols
        self._v_cols = v_cols

    def solve_with_obstruction(self, b: Mapping[int, int]):
        """Solve A x = b for b given as {row: value}; on failure return
        (None, reason string).

        c = U b is summed from the U columns on b's support, and its rows
        are checked in increasing order, so the reason names the first
        failing row.  x is summed from the V columns on c's support and
        returned as {index: value} with no zeros, so a solve costs what b's
        support touches.  A row of b outside the matrix is the
        StructuralError that ``Chain.to_vector`` raises for an index out of
        range, as b is a chain's coefficients.
        """
        c: dict[int, int] = {}
        for j, bj in b.items():
            if not 0 <= j < self.rows:
                raise StructuralError(f"chain index {j} out of range {self.rows}")
            if bj:
                _axpy(c, zip(*self._u_cols[j]), bj)
        k = len(self.diagonal)
        x: dict[int, int] = {}
        for i in sorted(c):
            ci = c[i]
            if i >= k:
                return None, f"transformed rhs is {ci} on row {i} beyond the diagonal"
            di = self.diagonal[i]
            if di == 0:
                return None, f"transformed rhs is {ci} on zero diagonal row {i}"
            if ci % di != 0:
                return None, f"invariant factor d[{i}]={di} does not divide transformed rhs {ci}"
            _axpy(x, zip(*self._v_cols[i]), ci // di)
        return x, None

    def kernel_columns(self) -> list:
        """Sparse columns (rows, values) of V spanning ker(A) over the integers."""
        return self._v_cols[self.rank:]


def _axpy(dst: dict, pairs: Iterable[tuple[int, int]], q: int) -> None:
    """dst += q * src, for the (index, value) pairs of src and a nonzero q.

    The package's one sparse sum: dst is kept free of zeros, so an entry
    that cancels is deleted and a new one is appended."""
    for c, x in pairs:
        y = dst.get(c, 0) + q * x
        if y:
            dst[c] = y
        else:
            del dst[c]


def dense_vector(x: Mapping[int, int], n: int) -> list[int]:
    """The length-n list of a sparse vector {index: value}."""
    out = [0] * n
    for i, a in x.items():
        out[i] = a
    return out


def smith_decomposition(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transforms, pivoting on minimal |entry|.

    Sparse elimination that replays the dense minimal-pivot rule: the same
    pivots and the same row and column operations in the same order, so U,
    D and V equal the dense routine's entry for entry (the tests keep that
    routine as the oracle).  The pivot is the first entry, in row-major
    order of the trailing block, of minimal |value|: per row, the minimum
    of (|x|, logical column), scanning rows in order until |x| = 1.

    D starts as copies of ``a``'s rows, dicts keyed by physical column, and
    a logical/physical column permutation makes a column swap O(1); U is
    kept as sparse rows and V as sparse columns.  Rows above the pivot are finished, so once
    the pivot column is cleared below the pivot it is zero elsewhere, and a
    column operation changes only D[t][j]: its cost falls on V.  A unit
    pivot divides everything, so it skips the divisibility scan.
    """
    lrows, ncols = a.rows, a.cols
    d = [dict(row) for row in a._r]
    u = [{i: 1} for i in range(lrows)]
    v = [{j: 1} for j in range(ncols)]
    phys = list(range(ncols))  # physical column at each logical position
    logical = list(range(ncols))

    def swap_rows(i: int, j: int) -> None:
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        phys[i], phys[j] = phys[j], phys[i]
        logical[phys[i]], logical[phys[j]] = i, j
        v[i], v[j] = v[j], v[i]

    t = 0
    limit = min(lrows, ncols)
    while t < limit:
        best = None
        for i in range(t, lrows):
            if d[i]:
                x, j = min((abs(x), logical[c]) for c, x in d[i].items())
                if best is None or x < best[0]:
                    best = (x, i, j)
                    if x == 1:
                        break
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            swap_rows(pi, t)
        if pj != t:
            swap_cols(pj, t)
        if d[t][phys[t]] < 0:
            d[t] = {c: -x for c, x in d[t].items()}
            u[t] = {c: -x for c, x in u[t].items()}

        while True:
            # clear the pivot column; a nonzero remainder becomes the new pivot
            pc = phys[t]
            piv = d[t][pc]
            restart = False
            for i in range(t + 1, lrows):
                x = d[i].get(pc)
                if x is None:
                    continue
                q = x // piv
                if q:
                    _axpy(d[i], d[t].items(), -q)
                    _axpy(u[i], u[t].items(), -q)
                if pc in d[i]:
                    swap_rows(i, t)
                    restart = True
                    break
            if restart:
                continue
            row = d[t]
            for j in sorted(logical[c] for c in row if c != pc):
                x = row.pop(phys[j])
                q = x // piv
                if q:
                    _axpy(v[j], v[t].items(), -q)
                if x % piv:
                    row[phys[j]] = x % piv
                    swap_cols(j, t)
                    restart = True
                    break
            if restart:
                continue
            if abs(piv) == 1:
                break
            # divisibility cleanup: pivot must divide the trailing block
            offender = next(
                (i for i in range(t + 1, lrows) if any(x % piv for x in d[i].values())),
                None,
            )
            if offender is None:
                break
            _axpy(d[t], d[offender].items(), 1)
            _axpy(u[t], u[offender].items(), 1)
        t += 1

    u_cols: list = [([], []) for _ in range(lrows)]
    for i, row in enumerate(u):
        for j, x in row.items():
            u_cols[j][0].append(i)
            u_cols[j][1].append(x)
    v_cols = []
    for col in v:
        rows = sorted(col)
        v_cols.append((rows, [col[i] for i in rows]))
    diagonal = [d[i].get(phys[i], 0) for i in range(limit)]
    return SmithDecomposition(diagonal, u_cols, v_cols)


def max_minor_abs(a: IntMatrix, m: int, budget: int = DEFAULT_MINOR_BUDGET) -> int:
    """Exact max |det S| over all m x m submatrices S of ``a``.

    The cost is counted as C(rows, m) * C(cols, m) * m^3, the multiply-adds
    of one Bareiss elimination per minor.  Raises CapacityError when it
    exceeds ``budget``; callers should then fall back to the Hadamard
    estimate.
    """
    if m < 0 or m > min(a.rows, a.cols):
        raise DomainError(f"minor order {m} out of range for {a.rows}x{a.cols} matrix")
    if m == 0:
        return 1  # empty determinant
    cost = math.comb(a.rows, m) * math.comb(a.cols, m) * m ** 3
    if cost > budget:
        raise CapacityError(
            f"minor enumeration costs {cost} multiply-adds (budget {budget}); "
            "use the Hadamard estimate instead"
        )
    best = 0
    rows = a.to_rows()
    for ris in itertools.combinations(range(a.rows), m):
        picked = [rows[i] for i in ris]
        for cjs in itertools.combinations(range(a.cols), m):
            val = abs(_bareiss_det([[r[j] for j in cjs] for r in picked]))
            if val > best:
                best = val
    return best


def bfrt_bound_ceiling(m: int, max_a: int, max_b: int) -> int:
    """Exact ceil of the small-solution bound m^{m/2} * M_A^{m-1} * max(M_A, M_b).

    Computed with an integer square root.  By convention m = 0 (zero
    matrix) yields max(M_A, M_b).
    """
    if m < 0:
        raise DomainError("rank must be nonnegative")
    if m == 0:
        return max(max_a, max_b)
    if max_a < 1 or max_b < 0:
        raise DomainError("need M_A >= 1 and M_b >= 0")
    k = max_a ** (m - 1) * max(max_a, max_b)
    squared = m ** m * k * k
    r = math.isqrt(squared)
    return r if r * r == squared else r + 1


@dataclass(frozen=True)
class BoundCertificate:
    """Record of the small-solution guarantee for one system A x = b.

    ``m`` is the rank of A (0 only for the zero matrix) and
    ``hadamard_bound_ceiling`` the exact ``bfrt_bound_ceiling(m, M_A, M_b)``.
    ``minor_max`` is the exact maximum |m x m minor| of (A | b) when minor
    enumeration fit in budget, else None.  ``solution`` is a minimal
    max-norm integer solution when the bounded search succeeded.
    ``hadamard_case`` records which side of max(M_A, M_b) attained the bound.
    """

    m: int
    max_a: int
    max_b: int
    hadamard_bound_ceiling: int
    minor_max: Optional[int] = None
    solution: Optional[tuple[int, ...]] = None
    hadamard_case: str = "A_columns"

    def check(self) -> bool:
        """Exact verification of max|x_i| <= Y <= ceil(bound), where Y is
        ``minor_max`` when present and ceil(bound) otherwise."""
        box = self.hadamard_bound_ceiling if self.minor_max is None else self.minor_max
        if box > self.hadamard_bound_ceiling:
            return False
        return self.solution is None or max(map(abs, self.solution), default=0) <= box


def certify_small_solution(a: IntMatrix, b: Sequence[int]) -> Optional[BoundCertificate]:
    """Build a BoundCertificate for a solvable system; None if unsolvable."""
    if len(b) != a.rows:
        raise StructuralError(f"rhs length {len(b)} != row count {a.rows}")
    max_a = a.max_abs()
    max_b = max((abs(x) for x in b), default=0)
    if max_a == 0:
        # zero matrix: solvable iff b = 0
        if any(b):
            return None
        return BoundCertificate(
            m=0, max_a=0, max_b=max_b, hadamard_bound_ceiling=max_b,
            minor_max=None, solution=tuple([0] * a.cols), hadamard_case="b_column",
        )
    snf = smith_decomposition(a)
    x0, _ = snf.solve_with_obstruction(dict(enumerate(b)))
    if x0 is None:
        return None
    m = snf.rank
    bound_ceiling = bfrt_bound_ceiling(m, max_a, max_b)
    aug = IntMatrix.from_rows([row + [bi] for row, bi in zip(a.to_rows(), b)])
    try:
        minor_max: Optional[int] = max_minor_abs(aug, m)
    except CapacityError:
        minor_max = None
    box = minor_max if minor_max is not None else bound_ceiling
    solution = _maxnorm_coset_min(dense_vector(x0, a.cols), snf, box, DEFAULT_NODE_BUDGET)
    return BoundCertificate(
        m=m,
        max_a=max_a,
        max_b=max_b,
        hadamard_bound_ceiling=bound_ceiling,
        minor_max=minor_max,
        solution=None if solution is None else tuple(solution),
        hadamard_case="A_columns" if max_a >= max_b else "b_column",
    )


# ---------------------------------------------------------------------------
# Coset search: minimal max-norm representatives of x0 + ker(A)


def column_echelon_basis(cols: list) -> list:
    """Column-echelon form of a lattice basis of sparse columns.

    Unimodular column operations, in the dense routine's order (the tests
    keep that routine as the oracle), leave each column's first row, its
    pivot, positive and below the previous column's pivot.  The span is
    unchanged.  Columns and result are (rows ascending, values); a column
    that no operation touches is passed through, and ``_axpy`` rebuilds
    one that a reduction changes.
    """
    work = list(cols)
    for t in range(len(work)):
        # columns t.. are zero above their least first row, the next pivot row
        row = min(work[j][0][0] for j in range(t, len(work)))
        live = [j for j in range(t, len(work)) if work[j][0][0] == row]
        while len(live) > 1:
            live.sort(key=lambda j: (abs(work[j][1][0]), j))
            j0 = live[0]
            pivot_val = work[j0][1][0]
            for j in live[1:]:
                q = work[j][1][0] // pivot_val
                if q:
                    col = dict(zip(*work[j]))
                    _axpy(col, zip(*work[j0]), -q)
                    rows = sorted(col)
                    work[j] = (rows, [col[i] for i in rows])
            live = [j for j in live if work[j][0][0] == row]
        j0 = live[0]
        work[t], work[j0] = work[j0], work[t]
        rows, vals = work[t]
        if vals[0] < 0:
            work[t] = (rows, [-x for x in vals])
    return work


def _round_div(a: int, b: int) -> int:
    """The integer nearest a / b, halves to even, as ``round`` rounds."""
    q, rem = divmod(a, b) if b > 0 else divmod(-a, -b)
    return q + (2 * rem > abs(b) or (2 * rem == abs(b) and q & 1))


def _greedy_index(cols: list, n: int) -> tuple[list, list]:
    """What ``_greedy_reduce_maxnorm`` reads off its columns besides their
    entries: the columns through each of the n rows, and each column's sum of
    |entries|.  It depends on the columns only, so a caller that reduces
    along one kernel many times builds it once."""
    through: list = [[] for _ in range(n)]
    norms = []
    for j, (rows, vals) in enumerate(cols):
        for i in rows:
            through[i].append(j)
        norms.append(sum(map(abs, vals)))
    return through, norms


def _greedy_reduce_maxnorm(x: list[int], cols: list, index: tuple[list, list]) -> list[int]:
    """Shrink the max-norm of x by integer shifts along sparse columns.

    Columns are (rows, nonzero values), visited in order until a pass changes
    nothing; each takes the shift, among the rounded quotients on its support
    and their neighbours, that most lowers (max |x_i|, sum |x_i|), strictly.
    Trials are scored on the support only: l1 runs as an integer and the max
    off the support comes from a histogram of |x_i|.  ``index`` is the
    columns' ``_greedy_index``.

    Columns that no shift can improve are skipped unscored.  A column whose
    support misses x's is one: a shift along it raises l1 and cannot lower
    the max.  More generally, with s the sum of |x_i| on a column and N the
    sum of its |c_i|, a shift q != 0 adds at least |q| N - 2 s to l1; so if
    2 s <= N and some entry of value max |x_i| lies off the column, no shift
    lowers (max, l1) strictly.  Each column's s is kept running through the
    row -> columns index, updated only when an x_i changes, so both tests
    cost O(1) when more entries reach the max than the column has rows.
    """
    x = x[:]
    hist = Counter(map(abs, x))
    top, l1 = max(hist, default=0), sum(map(abs, x))
    through, norms = index
    s_on = [0] * len(norms)
    for i, a in enumerate(x):
        if a:
            for k in through[i]:
                s_on[k] += abs(a)
    improved = True
    while improved:
        improved = False
        for j, (rows, vals) in enumerate(cols):
            on_sum = s_on[j]
            if not on_sum:
                continue
            no_l1_gain = 2 * on_sum <= norms[j]
            if no_l1_gain and hist[top] > len(rows):
                continue
            on = [abs(x[i]) for i in rows]
            at_top = on.count(top)
            if no_l1_gain and at_top < hist[top]:
                continue
            off_top = top
            if at_top == hist[top]:
                on_count = Counter(on)
                off_top = max((a for a, k in hist.items() if k > on_count[a]), default=0)
            off_l1 = l1 - on_sum
            candidates = {0}
            for i, ci in zip(rows, vals):
                q = _round_div(x[i], ci)
                candidates.update((q - 1, q, q + 1))
            best_q, best_s = 0, (top, l1)
            for q in sorted(candidates):
                if q == 0:
                    continue
                shifted = [abs(x[i] - q * ci) for i, ci in zip(rows, vals)]
                s = (max(off_top, *shifted), off_l1 + sum(shifted))
                if s < best_s:
                    best_q, best_s = q, s
            if best_q:
                for i, ci in zip(rows, vals):
                    old = abs(x[i])
                    x[i] -= best_q * ci
                    new = abs(x[i])
                    hist[old] -= 1
                    hist[new] += 1
                    for k in through[i]:
                        s_on[k] += new - old
                top, l1 = best_s
                improved = True
    return x


def coset_min(
    x: list[int],
    cols: list,
    weights: Sequence[int],
    node_budget: int,
    cap: Optional[int] = None,
    incumbent: Optional[tuple] = None,
    slack: Optional[Callable[[int], int]] = None,
) -> tuple:
    """The lexicographically least y in x + span(cols) whose cost
    sum_i w_i |y_i| is at most m* + slack(m*), m* the least cost.

    Integer weights, so every comparison is exact.  Branch and bound over
    the sparse columns of a column-echelon basis (``column_echelon_basis``):
    once the shifts of columns 0..j are fixed, rows from column j's pivot up
    to the next pivot are final and charged at depth j, and as pivot entries
    are positive, shift tuples order as the vectors do.  Phase 1 finds m* and
    the least vector of that cost, trying each shift outward from the one
    minimizing |y_p| and re-deriving the level's limit on |y_p| after each
    child search, so a lower best cuts the rest of the level and a poor start
    (the Smith solution itself) costs few nodes.  Phase 2 runs only when
    ``slack(m*)`` is positive: it visits each level's shifts in increasing
    order under m* + slack(m*) and stops at the first leaf.  With ``cap``
    set, every |y_i| must be at most cap; rows above the first pivot are the
    caller's to check.  ``incumbent`` is a known (cost, tuple) to beat; one
    of ``cap`` and ``incumbent`` must be given.  Columns are spread into
    dense lists once per call, so a node is one list comprehension.

    Returns (cost, tuple, nodes): the answer, or the incumbent (or
    (None, None)) when nothing beats it, and the number of nodes visited.
    Raises CapacityError carrying the best so far after ``node_budget`` nodes.
    """
    n = len(x)
    r = len(cols)
    pivots = [rows[0] for rows, _ in cols]
    dense = []
    for rows, vals in cols:
        col = [0] * n
        for i, v in zip(rows, vals):
            col[i] = v
        dense.append(col)
    next_pivot = pivots[1:] + [n]
    best_cost, best_vec = incumbent if incumbent is not None else (None, None)
    bound = None  # phase 2's cost bound
    nodes = 0

    def shift_limit(p: int, partial: int):
        """The largest |y_p| whose subtree may still hold a leaf that beats or
        ties the best (in phase 2, that meets the bound): every leaf costs at
        least partial + w_p * |y_p|."""
        top = best_cost if bound is None else bound
        if top is None:
            return cap
        limit = (top - partial) // weights[p]
        return cap if cap is not None and cap < limit else limit

    def dfs(j: int, cur: list[int], partial: int) -> bool:
        """Search below a node; True once phase 2 has its leaf."""
        nonlocal best_cost, best_vec, nodes
        if j == r:
            if bound is not None or best_cost is None or (
                    (partial, tuple(cur)) < (best_cost, best_vec)):
                best_cost, best_vec = partial, tuple(cur)
            return bound is not None
        col = dense[j]
        p = pivots[j]
        hp = col[p]
        base = cur[p]
        stop = next_pivot[j]
        limit = shift_limit(p, partial)
        if bound is None:
            t_center, steps = _round_div(-base, hp), (0, 1, -1)
        else:  # upward from the least t with base + t * hp >= -limit
            t_center, steps = -((limit + base) // hp), (0, 1)
        for step in steps:
            t = t_center + step
            while abs(base + t * hp) <= limit:
                nodes += 1
                if nodes > node_budget:
                    raise CapacityError(
                        f"mass minimization exceeded node budget {node_budget}",
                        incumbent=None if best_vec is None else list(best_vec),
                        incumbent_cost=best_cost,
                    )
                nxt = cur[:p] + [cur[i] + t * col[i] for i in range(p, n)]
                if cap is None or all(abs(nxt[i]) <= cap for i in range(p, stop)):
                    seg = partial + sum(abs(nxt[i]) * weights[i] for i in range(p, stop))
                    if best_cost is None or seg <= (best_cost if bound is None else bound):
                        if dfs(j + 1, nxt, seg):
                            return True
                        # the best may have fallen: cut this level's costlier shifts
                        limit = shift_limit(p, partial)
                if step == 0:
                    break
                t += step
        return False

    fixed_cost = sum(abs(x[i]) * weights[i] for i in range(pivots[0]))
    try:
        dfs(0, x, fixed_cost)
        if slack is not None and best_cost is not None and slack(best_cost) > 0:
            bound = best_cost + slack(best_cost)
            dfs(0, x, fixed_cost)  # phase 1's answer is a leaf within the bound
    finally:
        del dfs  # dfs refers to itself: drop that cycle, so a call frees all it made
    return best_cost, best_vec, nodes


def _maxnorm_coset_min(
    x0: list[int],
    snf: SmithDecomposition,
    box: int,
    node_budget: int,
) -> Optional[list[int]]:
    """Minimal (max-norm, l1, lexicographic) element of x0 + ker(A), if any
    lies in the box [-box, box]^n.  Exact by iterative deepening on the cap
    of ``coset_min``, with unit weights, which share one node budget.  It
    starts from x0 as given: each pivot row's residue class, so every cap's
    candidate set, is the same from any point of the coset."""
    kernel = snf.kernel_columns()
    top = max(map(abs, x0), default=0)
    if not kernel:
        return x0 if top <= box else None
    cols = column_echelon_basis(kernel)
    # rows above the first pivot cannot be changed by any lattice shift
    fixed_norm = max((abs(x0[i]) for i in range(cols[0][0][0])), default=0)
    unit = [1] * len(x0)
    used = 0
    for cap in range(fixed_norm, min(box, top) + 1):
        try:
            _, found, nodes = coset_min(x0, cols, unit, node_budget - used, cap=cap)
        except CapacityError:
            raise CapacityError(f"coset search exceeded node budget {node_budget}") from None
        if found is not None:
            return list(found)
        used += nodes
    return None
