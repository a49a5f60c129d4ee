"""Combinatorial filling of simplicial boundaries with certified bounds.

``fill_boundary`` solves the boundary system exactly and certifies the
coefficient growth against the binomial/Hadamard ceiling; ``min_mass_fill``
finds the exact minimum-mass 2-chain filling a 1-boundary over the solution
coset of the Smith solution: from a weighted median per kernel column when
the kernel is spanned by disjoint +-1 columns (the fundamental classes of
closed orientable surfaces), and by branch and bound otherwise;
``hf1_profile`` turns a cycle census into a lower envelope for the first
homological filling function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .chains import Chain, SimplicialComplex, boundary_matrix, cached, mass, path_chain
from .errors import CapacityError, DomainError, InvariantError
from .intlin import (
    SmithDecomposition,
    _greedy_reduce_maxnorm,
    _maxnorm_coset_min,
    column_echelon_basis,
    coset_min,
    smith_decomposition,
)

KERNEL_REDUCTION_MAX_DIM = 8  # the largest kernel fill_boundary searches exactly
GREEDY_REDUCTION_MAX_WORK = 200_000
MIN_MASS_MAX_KERNEL_DIM = 20
ABS_TOL = 1e-12  # absolute slack when comparing lengths and masses
REL_TOL = 1e-9  # relative slack at which two minimum-mass fills tie
DEFAULT_NODE_BUDGET = 4 * 10 ** 6


def boundary_smith(complex: SimplicialComplex, k: int) -> SmithDecomposition:
    """Smith decomposition of the k-th boundary matrix, cached per complex."""
    return cached(complex, ("snf", k), lambda: smith_decomposition(boundary_matrix(complex, k)))


def rank_d1(complex: SimplicialComplex) -> int:
    """Rank of the first boundary matrix, as n0 - #components by union-find.

    Exact: a graph's incidence matrix is totally unimodular, and its rank
    over the rationals is the vertex count minus the number of components.
    """
    parent = list(range(complex.n_vertices))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    merges = 0
    for u, v in complex.simplices(1):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            merges += 1
    return merges


def h1_is_trivial(complex: SimplicialComplex) -> bool:
    """Every integer 1-cycle bounds: rank Z_1 = rank B_1 and no torsion.

    The verdict is cached per complex.
    """
    return cached(complex, "h1_trivial", lambda: _h1_is_trivial(complex))


def _h1_is_trivial(complex: SimplicialComplex) -> bool:
    if complex.dimension < 1:
        return True
    cycle_rank = complex.n_simplices(1) - rank_d1(complex)
    if complex.dimension < 2:
        return cycle_rank == 0
    snf2 = boundary_smith(complex, 2)
    if snf2.rank != cycle_rank:
        return False
    return all(d in (0, 1) for d in snf2.diagonal)


@dataclass(frozen=True)
class FillCertificate:
    """Coefficient-growth certificate for one boundary-filling instance.

    ``bound_max`` is C(n0, k+1)^(C(n0, k+1)/2) * input_max_coeff and
    ``bound_l1`` is C(n0, k+2) times that; both are reported in binary64
    but verified exactly on squared integers by :meth:`bounds_hold`.
    """

    input_max_coeff: int
    output_max_coeff: int
    output_l1: int
    bound_max: float
    bound_l1: float
    rank_used: int
    n_vertices: int
    k: int

    def bounds_hold(self) -> bool:
        c1 = math.comb(self.n_vertices, self.k + 1)
        c2 = math.comb(self.n_vertices, self.k + 2)
        lhs_max = self.output_max_coeff ** 2
        rhs_max = c1 ** c1 * self.input_max_coeff ** 2
        if lhs_max > rhs_max:
            return False
        lhs_l1 = self.output_l1 ** 2
        rhs_l1 = c2 ** 2 * c1 ** c1 * self.input_max_coeff ** 2
        return lhs_l1 <= rhs_l1


def _binomial_bound(n0: int, k: int) -> float:
    c = math.comb(n0, k + 1)
    if c == 0:
        return 0.0
    try:
        return math.pow(c, c / 2.0)
    except OverflowError:
        # the exact integer comparison in bounds_hold is unaffected
        return math.inf


def fill_boundary(complex: SimplicialComplex, c_k: Chain) -> tuple[Chain, FillCertificate]:
    """Fill a simplicial k-boundary by a (k+1)-chain with certified coefficients.

    Solvability is decided by the Smith form of the boundary matrix; the
    returned chain is the minimal max-norm solution of the system whenever
    the homogeneous lattice has dimension <= KERNEL_REDUCTION_MAX_DIM (8),
    a limit of this function only, otherwise the Smith solution after
    greedy lattice reduction.
    """
    k = c_k.dim
    if k < 1:
        raise DomainError("only k >= 1 boundaries are filled")
    if k + 1 > complex.dimension:
        raise DomainError(
            f"complex has no {k + 1}-simplices to fill a {k}-chain with"
        )
    n_k = complex.n_simplices(k)
    b = c_k.to_vector(n_k)
    snf = boundary_smith(complex, k + 1)
    x0, obstruction = snf.solve_with_obstruction(b)
    if x0 is None:
        raise DomainError(f"chain is not a boundary: {obstruction}")
    kernel = snf.kernel_columns()
    if kernel and len(kernel) <= KERNEL_REDUCTION_MAX_DIM:
        # the search runs inside x0's max-norm box, which holds x0
        x = _maxnorm_coset_min(x0, snf, max(map(abs, x0)), DEFAULT_NODE_BUDGET)
        if x is None:
            raise InvariantError("coset search found nothing inside a box that holds its start")
    elif kernel and len(kernel) * len(x0) <= GREEDY_REDUCTION_MAX_WORK:
        x = _greedy_reduce_maxnorm(x0, kernel)
    else:
        # huge homogeneous lattice: keep the Smith solution as-is
        x = x0
    filled = Chain.from_vector(k + 1, x)
    input_max = c_k.max_abs()
    # a zero input has zero bounds, even where the binomial bound is inf
    growth = _binomial_bound(complex.n_vertices, k) if input_max else 0.0
    cert = FillCertificate(
        input_max_coeff=input_max,
        output_max_coeff=filled.max_abs(),
        output_l1=filled.l1(),
        bound_max=growth * input_max,
        bound_l1=math.comb(complex.n_vertices, k + 2) * growth * input_max,
        rank_used=snf.rank,
        n_vertices=complex.n_vertices,
        k=k,
    )
    return filled, cert


def _cost(vec: Sequence[int], weights: Sequence[float]) -> float:
    return sum(abs(a) * weights[i] for i, a in enumerate(vec) if a)


def _median_fill(x0: list[int], cols: list, w2: Sequence[float]) -> list[int] | None:
    """``coset_min``'s answer on x0 + span(cols) without its per-node vector
    rebuilds, or None unless the echelon columns have pairwise disjoint
    supports, +-1 entries and a positive finite weight each.

    The mass of a column's rows is then sum_i w_i |t - b_i| over its support:
    convex and piecewise linear in the column's shift t, with breakpoints
    b_i = -x0_i c_i.  With the weight summed per distinct breakpoint (every
    row where x0 is zero breaks at 0, so only x0's nonzero rows are visited
    one by one), the first breakpoint at which the running weight reaches
    half the column's total is a weighted median, where that mass is least.

    Ties make ``coset_min``'s answer depend on its visiting order (the best
    falls only by more than REL_TOL * (1 + |best|), and a tie goes to the
    smaller tuple), so the shifts are replayed in that order, from the
    incumbent x0: columns nest as its levels do, and each tries the shift
    that zeroes its pivot row, then the shifts above, then those below.  A
    shift whose column mass, a sum over the distinct breakpoints, bounds
    every fill below it past the best plus its tie slack is skipped, and
    past the median it ends its direction.  Any other shift is charged as
    ``coset_min`` charges it, row by row up to the next pivot, so that its
    ties fall alike.  Pivot entries are +1, so the tuple order of two fills
    is the order of their shifts.
    """
    covered: set[int] = set()
    for rows, vals in cols:
        if not covered.isdisjoint(rows) or not {1, -1}.issuperset(vals):
            return None
        covered.update(rows)
    n = len(x0)
    pivots = [rows[0] for rows, _ in cols]
    nonzero = [i for i, a in enumerate(x0) if a]
    # (shift that zeroes the pivot row, median, weight per breakpoint,
    #  entry per row, end of the rows charged at its level)
    columns = []
    for (rows, vals), end in zip(cols, pivots[1:] + [n]):
        entry = dict(zip(rows, vals))
        weight_at: dict[int, float] = {0: sum(w2[i] for i in rows if not x0[i])}
        for i in nonzero:
            c = entry.get(i)
            if c:
                b = -x0[i] * c
                weight_at[b] = weight_at.get(b, 0.0) + w2[i]
        half = sum(weight_at.values()) / 2
        if not 0 < half < math.inf:
            return None
        run = 0.0
        for median in sorted(weight_at):
            run += weight_at[median]
            if run >= half:
                break
        columns.append((-x0[rows[0]], median, weight_at, entry, end))

    cur = x0[:]  # x0 shifted along the columns of the levels above
    best_cost, best_key = _cost(x0, w2), (0,) * len(cols)
    shifts: list[int] = []

    def walk(j: int, partial: float) -> None:
        nonlocal best_cost, best_key
        start, median, weight_at, entry, end = columns[j]
        rows, vals = cols[j]
        p = pivots[j]
        for step in (1, -1):
            t = start if step == 1 else start - 1
            while True:
                tol = REL_TOL * (1 + abs(best_cost))
                bound = partial + sum(w * abs(t - b) for b, w in weight_at.items())
                # the bound and a fill's mass are sums of at most n rounded
                # terms, each off by less than n * 2^-53 of its size
                if bound - 1e-15 * n * (1 + abs(bound)) > best_cost + tol:
                    if (t - median) * step > 0:
                        break
                    t += step
                    continue
                if t:
                    seg = partial + sum(abs(cur[i] + t * entry.get(i, 0)) * w2[i]
                                        for i in range(p, end))
                else:  # the zero terms that coset_min adds leave its sum as is
                    seg = partial + sum(abs(v) * w2[i]
                                        for i, v in enumerate(cur[p:end], p) if v)
                if seg <= best_cost + tol:
                    if j + 1 < len(cols):
                        for i, c in zip(rows, vals):
                            cur[i] += t * c
                        shifts.append(t)
                        walk(j + 1, seg)
                        shifts.pop()
                        for i, c in zip(rows, vals):
                            cur[i] -= t * c
                    elif seg < best_cost - tol:
                        best_cost, best_key = seg, (*shifts, t)
                    elif abs(seg - best_cost) <= tol and (*shifts, t) < best_key:
                        best_key = (*shifts, t)
                t += step

    walk(0, sum(abs(x0[i]) * w2[i] for i in range(pivots[0])))
    for (rows, vals), t in zip(cols, best_key):
        if t:
            for i, c in zip(rows, vals):
                cur[i] += t * c
    return cur


def min_mass_fill(
    complex: SimplicialComplex,
    weights: Mapping[int, Sequence[float]],
    z: Chain,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[Chain, float]:
    """Exact minimum-mass integer 2-chain E with boundary z.

    ``weights`` maps dimension -> per-simplex volumes (dimension 2 is the
    objective).  The search runs over the solution coset of the Smith
    solution x0, in the column-echelon basis of the kernel of the boundary.
    When those columns have pairwise disjoint supports and +-1 entries, as
    the fundamental classes of closed orientable surfaces do,
    ``_median_fill`` finds ``coset_min``'s answer from a weighted median per
    column, in a few sums over distinct breakpoints, with no nodes and so
    no use of ``node_budget``.  Any other kernel (overlapping columns, other
    entries, a non-manifold space) is searched by ``coset_min``'s branch and
    bound, started from x0 and held to ``node_budget``.  Near-ties follow
    ``coset_min``'s visiting order, which ``_median_fill`` replays: a fill
    displaces the first incumbent's mass only by falling below it by more
    than REL_TOL * (1 + best), and within that slack a smaller tuple takes
    the incumbent's place but not its mass.  So the lexicographically
    smaller of two fills within REL_TOL need not win (ROADMAP item 9 would
    make the rule independent of the order).  The mass returned is the
    returned chain's own, summed in index order as ``chains.mass`` sums it.
    A CapacityError's incumbent is an uncertified 2-chain with boundary z,
    and its incumbent_cost is that chain's mass.
    """
    if z.dim != 1:
        raise DomainError("min_mass_fill expects a 1-chain")
    if complex.dimension < 2:
        raise DomainError("complex has no 2-simplices")
    w2 = weights[2]
    n1 = complex.n_simplices(1)
    n2 = complex.n_simplices(2)
    if len(w2) < n2:
        raise DomainError("missing 2-simplex weights")
    snf = boundary_smith(complex, 2)
    x0, obstruction = snf.solve_with_obstruction(z.to_vector(n1))
    if x0 is None:
        raise DomainError(f"cycle does not bound: {obstruction}")
    kernel = snf.kernel_columns()
    if len(kernel) > MIN_MASS_MAX_KERNEL_DIM:
        raise CapacityError(
            f"homogeneous lattice dimension {len(kernel)} exceeds "
            f"{MIN_MASS_MAX_KERNEL_DIM}; incumbent is not certified optimal",
            incumbent=Chain.from_vector(2, x0),
            incumbent_cost=_cost(x0, w2),
        )
    best = x0
    if kernel:
        cols = column_echelon_basis(kernel)
        best = _median_fill(x0, cols, w2)
        if best is None:
            try:
                _, best, _ = coset_min(x0, cols, w2, REL_TOL, node_budget,
                                       incumbent=(_cost(x0, w2), tuple(x0)))
            except CapacityError as err:
                err.incumbent_cost = _cost(err.incumbent, w2)
                err.incumbent = Chain.from_vector(2, err.incumbent)
                raise
    return Chain.from_vector(2, best), _cost(best, w2)


# ---------------------------------------------------------------------------
# HF1 profiling


@dataclass(frozen=True)
class Hf1Profile:
    """Lower envelope of the first homological filling function.

    ``samples`` holds (l, estimate) pairs where the estimate is the largest
    exact minimum filling mass among enumerated cycles of mass <= l; it is a
    LOWER estimate of HF1(l), as recorded in ``estimate_kind``.  The fitted
    line f1 * l + f2 dominates every sample.
    """

    samples: tuple[tuple[float, float], ...]
    fitted_f1: float
    fitted_f2: float
    cycle_census: tuple[tuple[float, int], ...]
    estimate_kind: str = "lower"

    def estimate_at(self, l: float) -> float:
        best = 0.0
        for li, ei in self.samples:
            if li <= l + ABS_TOL:
                best = max(best, ei)
        return best


def enumerate_simple_cycles(
    complex: SimplicialComplex, max_edges: int, limit: int
) -> list[list[int]]:
    """Simple cycles of the 1-skeleton as closed vertex loops.

    Canonical form: the loop starts at its smallest vertex and its second
    vertex is smaller than its last (one orientation per cycle).  Cycles
    are produced shortest first (iterative deepening on the edge count), so
    a tight ``limit`` keeps the short cycles that drive the filling profile
    at small lengths.  Hop-distance pruning keeps each sweep out of regions
    that cannot close in time.
    """
    n = complex.n_vertices
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for (u, v) in complex.simplices(1):
        nbrs[u].append(v)
        nbrs[v].append(u)
    for lst in nbrs:
        lst.sort()
    out: list[list[int]] = []

    def hop_distances(root: int) -> list[int]:
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

    def dfs(root: int, hops: list[int], length: int, path: list[int], on_path: set):
        if len(out) >= limit:
            return
        tail = path[-1]
        for nxt in nbrs[tail]:
            if len(out) >= limit:
                return
            if nxt == root and len(path) == length and path[1] < path[-1]:
                out.append(path[:])
            elif (
                nxt > root
                and nxt not in on_path
                and len(path) < length
                and hops[nxt] <= length - len(path)
            ):
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


MAX_CYCLE_MULTIPLE = 3


DEFAULT_MAX_CYCLE_EDGES = 12


def hf1_profile(
    complex: SimplicialComplex,
    weights: Mapping[int, Sequence[float]],
    l_grid: Sequence[float],
    cycle_budget: int,
) -> Hf1Profile:
    """Lower estimate of HF1 on a grid of length thresholds.

    Requires trivial integer H1 (checked by ``h1_is_trivial``: the rank of
    the first boundary by union-find, the Smith form of the second).  The
    cycle family is every simple skeleton cycle up to an edge-count budget
    (derived from the grid, capped at DEFAULT_MAX_CYCLE_EDGES), plus integer
    multiples up to mass l (capped at x3).  A smaller family only lowers the
    estimate, which keeps its direction honest.
    """
    if not h1_is_trivial(complex):
        raise DomainError("H1 is nontrivial: some 1-cycle does not bound")
    grid = sorted(set(float(l) for l in l_grid))
    if not grid:
        raise DomainError("empty length grid")
    w1 = weights[1]
    l_max = grid[-1]
    min_edge = min(w1) if len(w1) else 1.0
    derived = max(3, int(l_max / min_edge) + 1) if l_max > 0 else 3
    max_edges = min(derived, DEFAULT_MAX_CYCLE_EDGES)
    loops = enumerate_simple_cycles(complex, max_edges, cycle_budget)

    members: list[tuple[float, float]] = []  # (mass, exact fill mass)
    for loop in loops:
        z = path_chain(complex, loop + [loop[0]])
        m1 = mass(w1, z)
        if m1 > l_max + ABS_TOL:
            continue
        q = 1
        while q <= MAX_CYCLE_MULTIPLE and q * m1 <= l_max + ABS_TOL:
            _, fill_mass = min_mass_fill(complex, weights, z.scale(q))
            members.append((q * m1, fill_mass))
            q += 1

    samples = []
    census = []
    for l in grid:
        est = 0.0
        count = 0
        for m1, fm in members:
            if m1 <= l + ABS_TOL:
                count += 1
                est = max(est, fm)
        samples.append((l, est))
        census.append((l, count))

    f1, f2 = _fit_upper_line(samples)
    return Hf1Profile(
        samples=tuple(samples),
        fitted_f1=f1,
        fitted_f2=f2,
        cycle_census=tuple(census),
    )


def _fit_upper_line(samples: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Least squares through the staircase corners, then shifted to dominate."""
    corners = []
    prev = None
    for l, e in samples:
        if prev is None or e > prev + 1e-15:
            corners.append((l, e))
        prev = e
    if len(corners) >= 2:
        xs = [c[0] for c in corners]
        ys = [c[1] for c in corners]
        n = len(xs)
        mx = sum(xs) / n
        my = sum(ys) / n
        try:
            sxx = sum((x - mx) ** 2 for x in xs)
        except OverflowError:  # a spread beyond 1e154: any slope >= 0 dominates
            sxx = 0.0
        f1 = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx > 0 else 0.0
    else:
        f1 = 0.0
    f1 = max(f1, 0.0)
    f2 = max((e - f1 * l for l, e in samples), default=0.0)
    return f1, max(f2, 0.0)


def amin_upper_bound(hf1_at_2d: float, n: int) -> float:
    """Minimal stationary-varifold area bound ((n+1)!/2) * HF1(2D)."""
    if hf1_at_2d < 0:
        raise DomainError("filling estimate must be nonnegative")
    if n < 2:
        raise DomainError("ambient dimension must be at least 2")
    return (math.factorial(n + 1) / 2.0) * hf1_at_2d
