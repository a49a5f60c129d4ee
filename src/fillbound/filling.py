"""Combinatorial filling of simplicial boundaries with certified bounds.

``fill_boundary`` solves the boundary system exactly and certifies the
coefficient growth against the binomial/Hadamard ceiling; ``min_mass_fill``
finds the exact minimum-mass 2-chain filling a 1-boundary, under one tie
rule: with the weights scaled exactly to integers, the lexicographically
least fill of mass at most m* + REL_TOL * (1 + m*), m* the least mass.  It
is computed from a weighted median per kernel column when the kernel is
spanned by disjoint +-1 columns (the fundamental classes of closed
orientable surfaces), and by branch and bound otherwise;
``hf1_profile`` turns a cycle census into a lower envelope for the first
homological filling function.

The space's d2 is read off its dual graph (``DualGraph``) when every edge
lies in at most two triangles: the H1 verdict, the echelon kernel and the
particular solution of each minimum-mass fill, every solution checked
exactly.  Other complexes, and every nerve that ``fill_boundary`` fills,
take the Smith form of their boundary matrix.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import ClassVar, Mapping, Sequence

from .chains import (
    Chain,
    SimplicialComplex,
    boundary_matrix,
    cached,
    face_table,
    mass,
    path_chain,
)
from .errors import CapacityError, DomainError, InvariantError, StructuralError
from .intlin import (
    SmithDecomposition,
    _axpy,
    _greedy_index,
    _greedy_reduce_maxnorm,
    _maxnorm_coset_min,
    column_echelon_basis,
    coset_min,
    dense_vector,
    smith_decomposition,
)

KERNEL_REDUCTION_MAX_DIM = 8  # the largest kernel fill_boundary searches exactly
MIN_MASS_MAX_KERNEL_DIM = 20
ABS_TOL = 1e-12  # absolute slack when comparing lengths and masses
REL_TOL = 1e-9  # relative slack within which the least minimum-mass fill wins
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
    dual = dual_graph(complex)
    if dual is not None:
        return dual.rank == cycle_rank and not dual.torsion
    snf2 = boundary_smith(complex, 2)
    if snf2.rank != cycle_rank:
        return False
    return all(d in (0, 1) for d in snf2.diagonal)


class DualGraph:
    """d2 of a complex whose every edge lies in at most two triangles (a
    2-pseudomanifold, which may have a boundary and pinched vertices), read
    off its dual graph: what the Smith form of d2 gives, in one traversal.

    The nodes are the triangles, joined across the edges they share.  Each
    strong component is walked depth first from its least triangle, and a
    triangle g reached from f across edge e takes the orientation
    o_g = -o_f s_f(e) s_g(e), s the face signs, so that e cancels in
    o_f f + o_g g.  ``order`` lists the triangles in that preorder, so each
    subtree of the walk is a run of positions.  A component is closed if its
    every edge lies in two triangles, and orientable if every such edge
    cancels.  ker d2 is spanned by o on each closed orientable component,
    so rank d2 = n2 - their number, and coker d2 has torsion (Z/2 per
    component) exactly when some closed component is not orientable
    (Hatcher, *Algebraic Topology*, section 3.3).
    """

    __slots__ = ("edges", "faces", "order", "orient", "tree", "comp_of", "comps",
                 "rank", "torsion")

    def __init__(self, edges: Sequence[tuple[int, int]], faces: list,
                 on: list[list[tuple[int, int]]]):
        n2 = len(faces)
        orient = [0] * n2  # 0 until the walk reaches the triangle
        via: list = [None] * n2  # (f, e, s_f(e)) of the walk's step into a triangle
        order: list[int] = []
        comp_of = [-1] * len(edges)
        comps: list = []  # [first position, end position, anchor, closed]
        for root in range(n2):
            if orient[root]:
                continue
            first, orient[root], stack = len(order), 1, [root]
            while stack:
                f = stack.pop()
                order.append(f)
                for e, s in faces[f]:
                    comp_of[e] = len(comps)
                    for g, t in on[e]:
                        if not orient[g]:
                            orient[g] = -orient[f] * s * t
                            via[g] = (f, e, s)
                            stack.append(g)
            comps.append([first, len(order), None, True])
        pos = [0] * n2
        for p, f in enumerate(order):
            pos[f] = p
        size = [1] * n2
        for f in reversed(order):
            if via[f]:
                size[via[f][0]] += size[f]
        # per edge of the walk into g: g's subtree, a run of positions, and
        # the step -o_f s_f(e) by which y = o x changes there per unit of z_e
        tree: list = [None] * len(edges)
        for g, step in enumerate(via):
            if step:
                f, e, s = step
                tree[e] = (pos[g], pos[g] + size[g], -orient[f] * s)
        # a component's anchor is its least edge that fixes o x there: a
        # boundary edge, or one that does not cancel; (edge, sigma, positions)
        # asks sigma * (sum of y over the positions) = z_e
        for e, pairs in enumerate(on):
            if not pairs:
                continue
            comp = comps[comp_of[e]]
            (f, s), *other = pairs
            if not other:
                comp[3] = False
            elif orient[f] * s + orient[other[0][0]] * other[0][1] == 0:
                continue
            if comp[2] is None:
                comp[2] = (e, orient[f] * s, tuple(pos[g] for g, _ in pairs))
        self.edges, self.faces, self.order, self.orient = edges, faces, order, orient
        self.tree, self.comp_of = tree, comp_of
        self.comps = [(first, end, anchor) for first, end, anchor, _ in comps]
        self.rank = n2 - sum(anchor is None for _, _, anchor, _ in comps)
        self.torsion = any(closed and anchor for _, _, anchor, closed in comps)

    def kernel_columns(self) -> list:
        """The echelon basis of ker d2: o on each closed orientable component,
        by least triangle, +1 there (the root of the walk)."""
        cols = []
        for first, end, anchor in self.comps:
            if anchor is None:
                rows = sorted(self.order[first:end])
                cols.append((rows, [self.orient[f] for f in rows]))
        return cols

    def solve(self, z: Mapping[int, int]):
        """(x, None) with d2 x = z, x as {triangle: value} with keys ascending
        and no zeros, or (None, the reason z does not bound); z has no zeros.

        With y = o x, the walk's step into g across e asks
        y_g = y_f - o_f s_f(e) z_e, so y is a sum of steps, each over a
        subtree's run of positions, one per edge of z on the walk, plus a
        value per component over all its run: 0 where the component is closed
        and orientable, else what its anchor edge asks.  The runs' ends are
        sorted and swept once, so the work is z's support and x's.  Every x
        is checked exactly, d2 x = z through the face table; where it is not,
        z does not bound, and the reason names the least edge that differs.
        A row of z outside d2 is the StructuralError of an index out of
        range, as ``SmithDecomposition.solve_with_obstruction`` raises it.
        """
        n1 = len(self.edges)
        steps: list[tuple[int, int]] = []  # (position, change of y there)
        comps = set()
        for e, a in z.items():
            if not 0 <= e < n1:
                raise StructuralError(f"chain index {e} out of range {n1}")
            if self.tree[e]:
                lo, hi, step = self.tree[e]
                steps += ((lo, step * a), (hi, -step * a))
            comps.add(self.comp_of[e])
        levels = []
        for c in comps:
            if c >= 0 and self.comps[c][2]:
                first, end, (e, sigma, at) = self.comps[c]
                level = (sigma * z.get(e, 0)
                         - sum(d for p in at for q, d in steps if q <= p)) // len(at)
                levels += ((first, level), (end, -level))
        x: dict[int, int] = {}
        y = prev = 0
        for p, d in sorted(steps + levels):
            if y and p > prev:
                for f in self.order[prev:p]:
                    x[f] = self.orient[f] * y
            y, prev = y + d, p
        x = {f: x[f] for f in sorted(x)}
        got: dict[int, int] = {}
        for f, a in x.items():
            _axpy(got, self.faces[f], a)
        if got == z:
            return x, None
        e = min(i for i in got.keys() | z.keys() if got.get(i, 0) != z.get(i, 0))
        return None, (f"the dual-graph solution's boundary is {got.get(e, 0)}, "
                      f"not {z.get(e, 0)}, on edge {self.edges[e]}")


def dual_graph(complex: SimplicialComplex) -> DualGraph | None:
    """The complex's ``DualGraph``, cached per complex; None if it has no
    triangles or some edge lies in three or more."""

    def build():
        if complex.dimension < 2:
            return None
        faces = face_table(complex, 2)
        on: list[list[tuple[int, int]]] = [[] for _ in range(complex.n_simplices(1))]
        for f, tri in enumerate(faces):
            for e, s in tri:
                on[e].append((f, s))
        if any(len(pairs) > 2 for pairs in on):
            return None
        return DualGraph(complex.simplices(1), faces, on)

    return cached(complex, "dual graph", build)


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
    greedy lattice reduction, along the kernel's ``_greedy_index`` cached per
    complex.
    """
    k = c_k.dim
    if k < 1:
        raise DomainError("only k >= 1 boundaries are filled")
    if k + 1 > complex.dimension:
        raise DomainError(
            f"complex has no {k + 1}-simplices to fill a {k}-chain with"
        )
    snf = boundary_smith(complex, k + 1)
    x0, obstruction = snf.solve_with_obstruction(dict(c_k.items()))
    if x0 is None:
        raise DomainError(f"chain is not a boundary: {obstruction}")
    x0 = dense_vector(x0, snf.cols)
    kernel = snf.kernel_columns()
    if kernel and len(kernel) <= KERNEL_REDUCTION_MAX_DIM:
        # the search runs inside x0's max-norm box, which holds x0
        x = _maxnorm_coset_min(x0, snf, max(map(abs, x0)), DEFAULT_NODE_BUDGET)
        if x is None:
            raise InvariantError("coset search found nothing inside a box that holds its start")
    else:
        index = cached(complex, ("greedy index", k + 1),
                       lambda: _greedy_index(kernel, snf.cols))
        x = _greedy_reduce_maxnorm(x0, kernel, index)
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


def _mass_kernel(complex: SimplicialComplex) -> tuple[list, list | None]:
    """The echelon basis of ker d2, cached per complex (the dual graph's on a
    2-pseudomanifold, else of the Smith kernel), and each row's (column,
    entry) (None off the columns) if the columns are disjoint and +-1."""

    def build():
        dual = dual_graph(complex)
        cols = (column_echelon_basis(boundary_smith(complex, 2).kernel_columns())
                if dual is None else dual.kernel_columns())
        where: list = [None] * complex.n_simplices(2)
        for j, (rows, vals) in enumerate(cols):
            for i, c in zip(rows, vals):
                if where[i] is not None or c not in (1, -1):
                    return cols, None
                where[i] = (j, c)
        return cols, where

    return cached(complex, "mass kernel", build)


def _mass_table(complex: SimplicialComplex, w2: Sequence[float]) -> tuple:
    """(W, one, totals) for a table of 2-weights, cached per complex for the
    last table used: each weight read exactly and scaled by one common power
    of two, ``one``, into an integer W_i, and each echelon column's summed W
    when the fills take the median path (else None), at any kernel
    dimension.  A weight that is not finite and positive is a DomainError
    naming its triangle.  The cache has one slot, so a caller that varies
    the weights does not grow the memo.  The slot is matched by identity
    before equality: a caller that passes the same tuple of exactly n2
    weights again (a space's ``volumes``) costs no pass over it."""
    table = tuple(w2[:complex.n_simplices(2)])

    def build():
        for i, w in enumerate(table):
            if not 0 < w < math.inf:
                raise DomainError(f"triangle {complex.simplices(2)[i]} has weight {w}, "
                                  "which is not finite and positive")
        ratios = [float(w).as_integer_ratio() for w in table]
        one = max(q for _, q in ratios)
        big = [p * (one // q) for p, q in ratios]
        cols, where = _mass_kernel(complex)
        totals = None if where is None else [sum(big[i] for i in rows) for rows, _ in cols]
        return big, one, totals

    slot = cached(complex, "mass table", dict)  # {table: (W, one, totals)}, one entry
    for held, value in slot.items():
        # a held tuple never changes, so the same object has the same weights
        if held is table or held == table:
            return value
    value = build()
    slot.clear()
    slot[table] = value
    return value


def _tie_slack(one: int, least: int) -> int:
    """floor(REL_TOL * (1 + m*)), exactly, for masses in units of 1 / one."""
    num, den = REL_TOL.as_integer_ratio()
    return num * (one + least) // den


def _median_fill(x0: dict[int, int], multiples: Sequence[int], cols: list, where: list,
                 big: list, one: int, totals: list) -> list[dict[int, int]]:
    """``min_mass_fill``'s answers for q * x0, one per q in ``multiples``
    (each q > 0), when the echelon columns are disjoint with +-1 entries,
    with no search.

    A column's mass is sum_i W_i |t - b_i| over its rows: convex and piecewise
    linear in its shift t, with breakpoints b_i = -x0_i c_i (the rows where
    x0 is zero break at 0 and weigh the total less the rest).  It is least
    at the least weighted median, the first breakpoint where the running
    weight reaches half the total; those least masses and the rows of no
    column sum to m*.  Then each column in turn takes the least t whose
    excess over its least mass fits in the slack still left, found by
    walking the breakpoints down from the median with a running slope.
    Pivot entries are +1, so the order of the shift tuples is that of the
    fills.

    For q * x0 the weights are the same and every breakpoint is q b_i, so
    the sort, the median and the weight below it are shared, and m* is
    q times x0's; only the walk, with the slack of q m*, runs per q.

    x0 and each fill are sparse {index: value}, keys ascending and no zeros:
    the work is x0's support, the kernel dimension and, per q, the rows of
    the columns that shift.
    """
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
    fills = []
    for q in multiples:
        slack = _tie_slack(one, q * least)
        fill = {i: q * a for i, a in x0.items()}
        for (rows, vals), at, total, (lower, t, below) in zip(cols, weight_at, totals, medians):
            t *= q
            rate = total - 2 * below  # the mass that a unit step down from t adds
            for b in reversed(lower):
                if (t - q * b) * rate > slack:
                    break
                slack -= (t - q * b) * rate
                t, below = q * b, below - at[b]
                rate = total - 2 * below
            t -= slack // rate
            slack %= rate
            if t:
                for i, c in zip(rows, vals):
                    fill[i] = fill.get(i, 0) + t * c
        fills.append({i: fill[i] for i in sorted(fill) if fill[i]})
    return fills


def _min_mass_vector(complex: SimplicialComplex, table: tuple, x0: dict[int, int],
                     multiples: Sequence[int], node_budget: int) -> list[dict[int, int]]:
    """``min_mass_fill``'s vectors for q * x0, one per q in ``multiples``,
    sparse with keys ascending, from any point x0 of its coset, sparse too,
    with the ``_mass_table`` of its weights.  The search path runs per q from
    the dense q * x0 and refuses more than MIN_MASS_MAX_KERNEL_DIM columns."""
    big, one, totals = table
    cols, where = _mass_kernel(complex)
    if totals is not None:
        return _median_fill(x0, multiples, cols, where, big, one, totals)
    fills = []
    for q in multiples:
        start = [q * a for a in dense_vector(x0, len(big))]
        if len(cols) > MIN_MASS_MAX_KERNEL_DIM:
            raise CapacityError(
                f"homogeneous lattice dimension {len(cols)} exceeds "
                f"{MIN_MASS_MAX_KERNEL_DIM}; incumbent is not certified optimal",
                incumbent=start)
        cost = sum(abs(a) * w for a, w in zip(start, big))
        _, best, _ = coset_min(start, cols, big, node_budget, incumbent=(cost, tuple(start)),
                               slack=lambda least: _tie_slack(one, least))
        fills.append({i: a for i, a in enumerate(best) if a})
    return fills


def _min_mass_fills(complex: SimplicialComplex, w2: Sequence[float], z: Chain,
                    multiples: Sequence[int], node_budget: int) -> list[tuple[Chain, float]]:
    """``min_mass_fill`` of q * z with its mass, one per q in ``multiples``,
    from one weight-table lookup and one solve of d2: the solve is linear,
    so the solution of q * z is q times z's."""
    if len(w2) < complex.n_simplices(2):
        raise DomainError("missing 2-simplex weights")
    table = _mass_table(complex, w2)
    dual = dual_graph(complex)
    x0, obstruction = (dual.solve(dict(z.items())) if dual is not None else
                       boundary_smith(complex, 2).solve_with_obstruction(dict(z.items())))
    if x0 is None:
        raise DomainError(f"cycle does not bound: {obstruction}")
    try:
        fills = [Chain(2, vec) for vec in _min_mass_vector(complex, table, x0, multiples,
                                                           node_budget)]
    except CapacityError as err:
        err.incumbent = Chain.from_vector(2, err.incumbent)
        err.incumbent_cost = mass(w2, err.incumbent)
        raise
    return [(best, mass(w2, best)) for best in fills]


def min_mass_fill(
    complex: SimplicialComplex,
    weights: Mapping[int, Sequence[float]],
    z: Chain,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[Chain, float]:
    """Exact minimum-mass integer 2-chain E with boundary z.

    ``weights`` maps dimension -> per-simplex volumes; dimension 2, whose
    weights must be finite and positive, is the objective.  Read each as the
    binary64 it is, all scaled by one power of two into integers, so that
    masses compare exactly; with m* the least mass of a fill, E is the
    lexicographically least fill of mass at most m* + REL_TOL * (1 + m*).
    No visiting order and no start enter this rule.  When the echelon kernel
    columns of the boundary are disjoint with +-1 entries, as the
    fundamental classes of closed orientable surfaces are, ``_median_fill``
    computes E with no search, so with no use of ``node_budget``, at a cost
    of what the support of the solution of d2 x = z touches (the dual
    graph's on a 2-pseudomanifold, else the Smith form's); any
    other kernel is searched by ``coset_min`` from that solution, held to
    ``node_budget``, and one of more than MIN_MASS_MAX_KERNEL_DIM (20)
    columns is refused with a CapacityError.  The integer weights and column
    totals are derived once per weight table.  The mass returned is E's own,
    ``chains.mass``.  A CapacityError's incumbent is an uncertified 2-chain
    with boundary z, and its incumbent_cost is that chain's mass.  This is
    the one-multiple case of the fills ``hf1_profile`` takes of z, 2z and 3z
    from one solve.
    """
    if z.dim != 1:
        raise DomainError("min_mass_fill expects a 1-chain")
    if complex.dimension < 2:
        raise DomainError("complex has no 2-simplices")
    return _min_mass_fills(complex, weights[2], z, (1,), node_budget)[0]


# ---------------------------------------------------------------------------
# HF1 profiling


@dataclass(frozen=True)
class Hf1Profile:
    """Lower envelope of the first homological filling function.

    ``samples`` holds (l, estimate) pairs, l ascending, where the estimate
    is the largest exact minimum filling mass among enumerated cycles of
    mass <= l, so the estimates never decrease; it is a LOWER estimate of
    HF1(l), as ``estimate_kind`` says.  The fitted line f1 * l + f2
    dominates every sample.
    """

    samples: tuple[tuple[float, float], ...]
    fitted_f1: float
    fitted_f2: float
    cycle_census: tuple[tuple[float, int], ...]
    estimate_kind: ClassVar[str] = "lower"

    def estimate_at(self, l: float) -> float:
        """The staircase at l: the last sample at most l + ABS_TOL, else 0."""
        i = bisect.bisect_right(self.samples, l + ABS_TOL, key=lambda s: s[0])
        return self.samples[i - 1][1] if i else 0.0


def enumerate_simple_cycles(
    complex: SimplicialComplex, max_edges: int, limit: int
) -> list[list[int]]:
    """Simple cycles of the 1-skeleton as closed vertex loops.

    Canonical form: the loop starts at its smallest vertex and its second
    vertex is smaller than its last (one orientation per cycle).  Cycles
    are produced shortest first (iterative deepening on the edge count), so
    a tight ``limit`` keeps the short cycles that drive the filling profile
    at small lengths.  Hop-distance pruning keeps each sweep out of regions
    that cannot close in time.  A root's hop distances are found when the
    sweep of each length reaches it, by a breadth-first search that stops at
    half that length: no cycle of that length through the root passes a
    vertex farther away, and such a vertex reads length + 1, which fails
    the pruning test as its distance would.  So the work before the first
    cycle is that root's neighbourhood, not the whole graph.
    """
    n = complex.n_vertices
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for (u, v) in complex.simplices(1):
        nbrs[u].append(v)
        nbrs[v].append(u)
    for lst in nbrs:
        lst.sort()
    out: list[list[int]] = []

    def hop_distances(root: int, depth: int, hops: list[int]) -> list[int]:
        """Set hops[v] for every v within ``depth`` hops of root, whose
        entries are larger on entry; return the vertices set."""
        hops[root] = 0
        reached, frontier = [root], [root]
        for d in range(1, depth + 1):
            nxt_frontier = []
            for v in frontier:
                for w in nbrs[v]:
                    if hops[w] > d:
                        hops[w] = d
                        nxt_frontier.append(w)
            reached += nxt_frontier
            frontier = nxt_frontier
        return reached

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

    try:
        for length in range(3, max_edges + 1):
            hops = [length + 1] * n  # each root's search resets what it set
            for root in range(n):
                if len(out) >= limit:
                    return out
                reached = hop_distances(root, length // 2, hops)
                dfs(root, hops, length, [root], {root})
                for v in reached:
                    hops[v] = length + 1
    finally:
        del dfs  # dfs refers to itself: drop that cycle, so a call frees all it made
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
    the first boundary by union-find, the dual graph of the second, or its
    Smith form where some edge lies in three triangles or more).  The
    cycle family is every simple skeleton cycle up to an edge-count budget
    (derived from the grid, capped at DEFAULT_MAX_CYCLE_EDGES), plus integer
    multiples up to mass l (capped at x3).  A smaller family only lowers the
    estimate, which keeps its direction honest.  Each kept cycle and its
    multiples are filled from one solve of d2 and, on the median path, one
    median set-up; each fill is ``min_mass_fill``'s of that multiple.  A
    1-weight that is not finite and positive is a DomainError naming its
    edge.  One sweep of the grid over the members sorted by mass gives the
    samples and the census (``_staircase``).
    """
    if not h1_is_trivial(complex):
        raise DomainError("H1 is nontrivial: some 1-cycle does not bound")
    grid = sorted(set(float(l) for l in l_grid))
    if not grid:
        raise DomainError("empty length grid")
    w1 = weights[1][:complex.n_simplices(1)]
    for edge, w in zip(complex.simplices(1), w1):
        if not 0 < w < math.inf:
            raise DomainError(f"edge {edge} has weight {w}, which is not finite and positive")
    l_max = grid[-1]
    ratio = l_max / min(w1, default=1.0) if l_max > 0 else 0.0  # inf when the quotient overflows
    max_edges = (DEFAULT_MAX_CYCLE_EDGES if ratio >= DEFAULT_MAX_CYCLE_EDGES
                 else max(3, int(ratio) + 1))

    members: list[tuple[float, float]] = []  # (mass, exact fill mass)
    for loop in enumerate_simple_cycles(complex, max_edges, cycle_budget):
        z = path_chain(complex, loop + [loop[0]])
        m1 = mass(w1, z)
        multiples = [q for q in range(1, MAX_CYCLE_MULTIPLE + 1) if q * m1 <= l_max + ABS_TOL]
        if not multiples:
            continue
        fills = _min_mass_fills(complex, weights[2], z, multiples, DEFAULT_NODE_BUDGET)
        members += [(q * m1, fill_mass) for q, (_, fill_mass) in zip(multiples, fills)]

    samples, census = _staircase(members, grid)
    return Hf1Profile(samples, *_fit_upper_line(samples), census)


def _staircase(members: Sequence[tuple[float, float]],
               grid: Sequence[float]) -> tuple[tuple, tuple]:
    """(samples, census) on an ascending grid: per l, the largest fill mass
    of the members (mass, fill mass) of mass at most l + ABS_TOL, and their
    count.  One sweep of the grid over the members sorted by mass."""
    members = sorted(members)
    samples, census = [], []
    est, count = 0.0, 0
    for l in grid:
        while count < len(members) and members[count][0] <= l + ABS_TOL:
            est = max(est, members[count][1])
            count += 1
        samples.append((l, est))
        census.append((l, count))
    return tuple(samples), tuple(census)


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
    """Minimal stationary-varifold area bound ((n+1)!/2) * HF1(2D); a bound
    beyond binary64 is a DomainError."""
    if hf1_at_2d < 0:
        raise DomainError("filling estimate must be nonnegative")
    if n < 2:
        raise DomainError("ambient dimension must be at least 2")
    try:
        bound = (math.factorial(n + 1) / 2.0) * hf1_at_2d
    except OverflowError:  # (n+1)! beyond binary64
        bound = math.inf
    if not math.isfinite(bound):
        raise DomainError(f"the area bound ({n + 1}!/2) * {hf1_at_2d!r} overflows binary64")
    return bound
