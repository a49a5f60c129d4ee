"""Metric complexes and the discrete cover/nerve/graph filling pipeline.

A MetricComplex is a triangulated space (dimension <= 2) with vertex
coordinates; edge lengths and triangle areas are derived from them.  The
pipeline stages mirror a geometric filling argument: contract neck-supported
cycle pieces radially into body regions, reroute the remaining cycle through
a geodesic graph on cover-set centers, fill the rerouted cycle
combinatorially on the nerve, and lift each nerve triangle back to a
geodesic triangle filled by a discrete cone.

Every stage produces exact integer chain identities; floating point enters
only through lengths, areas, and the reported mass constants.
"""

from __future__ import annotations

import heapq
import math
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from itertools import groupby
from typing import Mapping, Optional, Sequence

from .chains import Chain, SimplicialComplex, boundary, cached, mass, path_chain
from .errors import DomainError, FillboundError, InvariantError, StructuralError
from .filling import (
    ABS_TOL,
    FillCertificate,
    amin_upper_bound,
    fill_boundary,
    h1_is_trivial,
    min_mass_fill,
)
from .intlin import _axpy


def _heron(p, q, r) -> Optional[float]:
    """Heron's area of triangle pqr; None if area <= 1e-12 diam^2.

    Sides are scaled by a power of two to a maximum in [0.5, 1), which is
    exact and keeps the product from overflowing: the area has the unscaled
    formula's bits wherever that is finite and at least sys.float_info.min.
    OverflowError if it is not finite; a caller refuses a smaller area, which
    the scaling back has rounded to a subnormal or 0.
    """
    sides = (math.dist(p, q), math.dist(q, r), math.dist(p, r))
    e = math.frexp(max(sides))[1]
    a, b, c = (math.ldexp(x, -e) for x in sides)
    s = (a + b + c) / 2.0
    area = math.sqrt(max(s * (s - a) * (s - b) * (s - c), 0.0))
    diam = max(a, b, c)
    if not area > 1e-12 * diam * diam:
        return None
    return math.ldexp(area, 2 * e)


def is_neck_label(label: str) -> bool:
    return label.startswith("neck")


@dataclass(frozen=True)
class MetricComplex:
    """Simplicial complex of dimension <= 2 with a Euclidean vertex embedding.

    ``radial`` is an optional per-vertex scalar used for neck contraction;
    ``region`` optionally labels each vertex with a body or neck id (labels
    starting with "neck" are necks, everything else is a body).

    The memo holds the edge lengths and triangle areas, the adjacency lists
    (key ``"adj"``) and, for each apex ``cone_fill`` has used, the parent
    array of its whole-skeleton shortest-path tree (key ``("tree", apex)``,
    an ``array('i')`` of 4 bytes per vertex) and the fill of each wedge it
    has filled from that apex (key ``("wedge", apex, edge)``, a flat tuple
    ``(triangle, coefficient, ...)``; none for the apex's tree edges).
    """

    complex: SimplicialComplex
    coords: tuple[tuple[float, ...], ...]
    radial: Optional[tuple[float, ...]] = None
    region: Optional[tuple[str, ...]] = None
    _memo: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        k = self.complex
        if k.dimension > 2:
            raise StructuralError("metric complexes are at most 2-dimensional")
        if len(self.coords) != k.n_vertices:
            raise StructuralError(
                f"{len(self.coords)} coordinate rows for {k.n_vertices} vertices"
            )
        dims = {len(p) for p in self.coords}
        if len(dims) != 1:
            raise StructuralError("inconsistent ambient dimension")
        for v, p in enumerate(self.coords):
            if not all(map(math.isfinite, p)):
                raise StructuralError(f"vertex {v} has a non-finite coordinate {p}")
        if self.radial is not None:
            if len(self.radial) != k.n_vertices:
                raise StructuralError("radial field length mismatch")
            for v, r in enumerate(self.radial):
                if not math.isfinite(r):
                    raise StructuralError(f"vertex {v} has a non-finite radial value {r}")
        if self.region is not None:
            if len(self.region) != k.n_vertices:
                raise StructuralError("region labels must cover all vertices")
            self._validate_regions()
        lengths = []
        for (u, v) in k.simplices(1):
            d = math.dist(self.coords[u], self.coords[v])
            if not 0.0 < d < math.inf:
                what = "degenerate edge" if d == 0.0 else "binary64 overflow in the length of edge"
                raise StructuralError(f"{what} {(u, v)}")
            lengths.append(d)
        areas = []
        for (a, b, c) in k.simplices(2):
            try:
                area = _heron(self.coords[a], self.coords[b], self.coords[c])
            except OverflowError:
                raise StructuralError(f"area of triangle {(a, b, c)} overflows binary64") from None
            if area is None:
                raise StructuralError(f"degenerate triangle {(a, b, c)}")
            if area < sys.float_info.min:
                raise StructuralError(f"area of triangle {(a, b, c)} underflows binary64")
            areas.append(area)
        self._memo["lengths"] = tuple(lengths)
        self._memo["areas"] = tuple(areas)

    def _validate_regions(self):
        k = self.complex
        adjacency: dict[str, set[str]] = {}
        for (u, v) in k.simplices(1):
            ru, rv = self.region[u], self.region[v]
            if ru != rv:
                adjacency.setdefault(ru, set()).add(rv)
                adjacency.setdefault(rv, set()).add(ru)
        for label in set(self.region):
            if not is_neck_label(label):
                continue
            neighbors = adjacency.get(label, set())
            bodies = {l for l in neighbors if not is_neck_label(l)}
            if neighbors - bodies:
                raise StructuralError(f"neck {label} touches another neck")
            if len(bodies) != 2:
                raise StructuralError(
                    f"neck {label} must meet exactly two bodies, found {sorted(bodies)}"
                )

    @property
    def edge_lengths(self) -> tuple[float, ...]:
        return self._memo["lengths"]

    @property
    def triangle_areas(self) -> tuple[float, ...]:
        return self._memo["areas"]

    @property
    def volumes(self) -> dict[int, tuple[float, ...]]:
        return {1: self.edge_lengths, 2: self.triangle_areas}

    def mass1(self, c: Chain) -> float:
        return mass(self.edge_lengths, c)

    def mass2(self, c: Chain) -> float:
        return mass(self.triangle_areas, c)

    def adjacency(self) -> list[list[tuple[int, float]]]:
        """Sorted neighbor lists (vertex, edge length) of the 1-skeleton."""
        def build():
            adj: list[list[tuple[int, float]]] = [[] for _ in range(self.complex.n_vertices)]
            for idx, (u, v) in enumerate(self.complex.simplices(1)):
                l = self.edge_lengths[idx]
                adj[u].append((v, l))
                adj[v].append((u, l))
            for lst in adj:
                lst.sort()
            return adj
        return cached(self, "adj", build)


def scale_coordinates(space: MetricComplex, t: float) -> MetricComplex:
    """Same combinatorics with all coordinates (and radial field) scaled by t."""
    if not t > 0:
        raise DomainError("scale factor must be positive")
    return MetricComplex(
        complex=space.complex,
        coords=tuple(tuple(t * x for x in p) for p in space.coords),
        radial=None if space.radial is None else tuple(t * r for r in space.radial),
        region=space.region,
    )


# ---------------------------------------------------------------------------
# shortest paths (deterministic: of the paths of least binary64 distance,
# the lexicographically smallest vertex path)


def shortest_path_tree(
    adj: Sequence[Sequence[tuple[int, float]]],
    source: int,
    allowed: Optional[frozenset] = None,
) -> tuple[list[float], list[int]]:
    """Dijkstra from ``source`` inside ``allowed`` (default: every vertex).

    Returns parallel arrays ``(dist, parent)`` over all vertices: ``dist[v]``
    is the binary64 length of v's tree path, summed edge by edge from the
    source, and ``parent[v]`` its last step (``parent[source] == source``;
    an unreached vertex has ``inf`` and -1).  ``tree_path`` reads a path
    back.

    Tie rule: v's path has the least binary64 distance, compared exactly,
    and among the paths of that distance the lexicographically smallest
    vertex tuple.  Only an exact tie costs more than Dijkstra's steps: it
    rebuilds the two candidate paths and keeps the smaller.  The rule needs
    each edge to lengthen the distances it extends (d + length > d in
    binary64), which fails only for an edge shorter than about 1e-16 of a
    path's length.
    """
    dist = [math.inf] * len(adj)
    parent = [-1] * len(adj)
    settled = bytearray(len(adj))
    dist[source] = 0.0
    parent[source] = source
    heap = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if settled[v]:
            continue
        settled[v] = 1
        for (w, length) in adj[v]:
            if settled[w] or (allowed is not None and w not in allowed):
                continue
            nd = d + length
            if nd < dist[w]:
                dist[w] = nd
                parent[w] = v
                heapq.heappush(heap, (nd, w))
            elif nd == dist[w] and (tree_path(parent, v) + (w,)
                                    < tree_path(parent, parent[w]) + (w,)):
                parent[w] = v
    return dist, parent


def tree_path(parent: Sequence[int], v: int) -> tuple[int, ...]:
    """The vertex path from the tree's source to the reached vertex v."""
    path = [v]
    while parent[v] != v:
        v = parent[v]
        path.append(v)
    return tuple(reversed(path))


def skeleton_diameter(space: MetricComplex) -> float:
    """Max over vertices of shortest-path eccentricity in the 1-skeleton."""
    adj = space.adjacency()
    diam = 0.0
    for v in range(space.complex.n_vertices):
        ecc = max(shortest_path_tree(adj, v)[0])
        if ecc == math.inf:
            raise StructuralError("1-skeleton is disconnected")
        diam = max(diam, ecc)
    return diam


# ---------------------------------------------------------------------------
# covers and nerves


@dataclass(frozen=True)
class Cover:
    """Vertex-set cover with designated centers.

    Each set must hold its center and be connected in the 1-skeleton, so
    two sets that intersect have a connected union.  ``ball_cover`` builds
    its sets that way, and ``geodesic_graph`` checks it.

    The memo holds the geodesic graph (key ``"graph"``), which carries the
    nerve, and each set's shortest-path tree from its center, as the
    ``(dist, parent)`` arrays of ``shortest_path_tree`` (key
    ``("set_tree", i)``); they assume the cover is used with the space it
    was built from.
    """

    sets: tuple[tuple[int, ...], ...]
    centers: tuple[int, ...]
    warnings: tuple[str, ...] = ()
    _memo: dict = field(default_factory=dict, compare=False, repr=False)


def _connected_component(members: set, seed: int, adj) -> set:
    comp = {seed}
    stack = [seed]
    while stack:
        v = stack.pop()
        for (w, _) in adj[v]:
            if w in members and w not in comp:
                comp.add(w)
                stack.append(w)
    return comp


def ball_cover(space: MetricComplex, radius: float) -> Cover:
    """Greedy farthest-point net per region; sets are 2*radius balls.

    Centers are chosen per region starting from the smallest vertex id,
    repeatedly taking the vertex farthest from the chosen centers while that
    distance exceeds ``radius``.  Each cover set is the metric ball of
    radius 2*radius around its center inside the region (intersected with a
    radial slab of the same halfwidth inside necks), trimmed to the
    component of its center; leftover vertices become extra centers.
    """
    if not radius > 0:
        raise DomainError("cover radius must be positive")
    k = space.complex
    adj = space.adjacency()
    warnings = []
    if len(space.edge_lengths) and radius < min(space.edge_lengths):
        warnings.append(
            f"radius {radius} is below the minimum edge length "
            f"{min(space.edge_lengths):.6g}; the cover may degenerate to singletons"
        )
    if space.region is None:
        regions = {"": list(range(k.n_vertices))}
    else:
        regions = {}
        for v, label in enumerate(space.region):
            regions.setdefault(label, []).append(v)

    sets: list[tuple[int, ...]] = []
    centers: list[int] = []

    def add_set(center: int, label: str, dist: list[float]):
        """The cover set of ``center``, from its shortest-path distances in its region."""
        ball = {v for v, d in enumerate(dist) if d <= 2.0 * radius + ABS_TOL}
        if (
            space.radial is not None
            and label
            and is_neck_label(label)
        ):
            rc = space.radial[center]
            ball = {v for v in ball if abs(space.radial[v] - rc) <= 2.0 * radius + ABS_TOL}
        sets.append(tuple(sorted(_connected_component(ball, center, adj))))
        centers.append(center)

    for label in sorted(regions):
        verts = regions[label]
        allowed = frozenset(verts)
        seed = min(verts)
        region_centers = [seed]
        mindist = {v: math.inf for v in verts}
        dists = {}

        def relax(center):
            dist = dists[center] = shortest_path_tree(adj, center, allowed=allowed)[0]
            for v in verts:
                if dist[v] < mindist[v]:
                    mindist[v] = dist[v]

        relax(seed)
        while True:
            far_v = None
            far_d = -1.0
            for v in verts:  # ascending ids: first vertex wins ties
                if mindist[v] > far_d + ABS_TOL:
                    far_d = mindist[v]
                    far_v = v
            if far_v is None or far_d <= radius + ABS_TOL:
                break
            region_centers.append(far_v)
            relax(far_v)
        for c in region_centers:
            add_set(c, label, dists[c])

    covered = {v for s in sets for v in s}
    for v in range(k.n_vertices):
        if v not in covered:
            label = space.region[v] if space.region is not None else ""
            add_set(v, label, shortest_path_tree(adj, v, allowed=frozenset(regions[label]))[0])
            covered.update(sets[-1])

    return Cover(
        sets=tuple(sets),
        centers=tuple(centers),
        warnings=tuple(warnings),
    )


def nerve(cover: Cover) -> SimplicialComplex:
    """Nerve of the cover, truncated at dimension 2."""
    n = len(cover.sets)
    member = [set(s) for s in cover.sets]
    simplices = []
    for i in range(n):
        for j in range(i + 1, n):
            common = member[i] & member[j]
            if not common:
                continue
            simplices.append((i, j))
            for k in range(j + 1, n):
                if common & member[k]:
                    simplices.append((i, j, k))
    return SimplicialComplex.from_simplices(simplices, n_vertices=n)


# ---------------------------------------------------------------------------
# geodesic graph


@dataclass(frozen=True)
class GraphEdge:
    a: int
    b: int
    path: tuple[int, ...]  # vertex walk from centers[a] to centers[b]
    length: float


@dataclass(frozen=True)
class GeodesicGraph:
    """The cover nerve's 1-skeleton, realized by paths between set centers.

    Edge n joins the sets of the nerve's n-th 1-simplex ``(a, b)``, so a
    chain on graph edges is a 1-chain of ``nerve``.
    """

    centers: tuple[int, ...]
    edges: tuple[GraphEdge, ...]
    nerve: SimplicialComplex = field(compare=False, repr=False)

    def realize(self, space: MetricComplex, graph_chain: Chain) -> Chain:
        """Skeleton 1-chain realizing a chain on graph edges."""
        total: dict[int, int] = {}
        for idx, coeff in graph_chain.items():
            _axpy(total, path_chain(space.complex, self.edges[idx].path).items(), coeff)
        return Chain._of(1, total)


def geodesic_graph(space: MetricComplex, cover: Cover) -> GeodesicGraph:
    """Connect the centers of the sets of every 1-simplex of the cover's nerve.

    The connecting path is the shortest path inside the union of the two
    sets.  Each set is first checked to have a center, a vertex that it
    holds, and be connected in the 1-skeleton (a ``StructuralError`` names
    the first that does not), so that union is connected and holds both.
    """
    adj = space.adjacency()
    if len(cover.centers) != len(cover.sets):
        raise StructuralError(f"cover has {len(cover.sets)} sets but {len(cover.centers)} centers")
    for i, (s, center) in enumerate(zip(cover.sets, cover.centers)):
        members = set(s)
        if (center not in members or center not in range(len(adj))
                or _connected_component(members, center, adj) != members):
            raise StructuralError(
                f"cover set {i} must hold its center {center} and be connected "
                "in the 1-skeleton"
            )
    nerve_complex = nerve(cover)
    edges = []
    for (i, j) in nerve_complex.simplices(1):
        ci, cj = cover.centers[i], cover.centers[j]
        union = frozenset(cover.sets[i] + cover.sets[j])
        dist, parent = shortest_path_tree(adj, ci, allowed=union)
        edges.append(GraphEdge(a=i, b=j, path=tree_path(parent, cj), length=dist[cj]))
    return GeodesicGraph(centers=cover.centers, edges=tuple(edges), nerve=nerve_complex)


# ---------------------------------------------------------------------------
# chains as closed walks, and local fills by face reduction


def peel_content(c: Chain) -> tuple[int, Chain]:
    """(content, c / content): the gcd of the coefficient magnitudes (1 for
    the zero chain) and the primitive chain left after dividing it out."""
    g = 0
    for _, a in c.items():
        g = math.gcd(g, abs(a))
    content = g if g else 1
    return content, Chain._of(c.dim, {i: a // content for i, a in c.items()})


def chain_to_closed_walks(complex: SimplicialComplex, c: Chain) -> list[list[int]]:
    """Deterministic decomposition of an integer 1-cycle into closed walks.

    Each walk is a vertex list [v0, ..., vL] with vL = v0, traversed
    edge-by-edge; summed as chains, the walks reproduce c exactly.  Walk
    length scales with the l1 norm of the coefficients, so callers working
    with large coefficients should peel off their content first (``peel_content``).
    """
    # each vertex's out-steps, descending, so that pop() takes the least
    out: dict[int, list[int]] = {}
    edges = complex.simplices(1)
    for idx, a in c.items():
        u, v = edges[idx]
        if a < 0:
            u, v, a = v, u, -a
        out.setdefault(u, []).extend([v] * a)
    for steps in out.values():
        steps.sort(reverse=True)

    def circuit(start):
        walk = [start]
        while True:
            walk.append(out[walk[-1]].pop())
            if walk[-1] == start:
                return walk

    walks = []
    # a walk uses up every step of its vertices, so the least vertex with
    # steps left is never below the last start
    for start in sorted(out):
        if not out[start]:
            continue
        walk = circuit(start)
        i = 0
        while i < len(walk):
            if out[walk[i]]:
                walk[i:i + 1] = circuit(walk[i])
            else:
                i += 1
        walks.append(walk)
    return walks


def fill_walk_on_faces(complex: SimplicialComplex, walk: Sequence[int]) -> Optional[Chain]:
    """Fill a closed walk by repeated face-ear reduction; None when blocked.

    Two consecutive steps across one triangle are replaced by the third
    side (accumulating the signed face), backtracks cancel; the walk shrinks
    to a point iff the reduction succeeds.
    """
    vs = list(walk)
    if len(vs) >= 2 and vs[0] == vs[-1]:
        vs.pop()
    fill: dict[int, int] = {}
    # one vertex is a point, and a -> b -> a cancels as a chain
    while len(vs) > 2:
        n = len(vs)
        for i in range(n):
            if vs[i - 1] == vs[(i + 1) % n]:
                del vs[max(i, (i + 1) % n)]
                del vs[min(i, (i + 1) % n)]
                break
        else:
            for i in range(n):
                a, b, c = vs[i - 1], vs[i], vs[(i + 1) % n]
                # has_simplex is false when a == c, as no triangle repeats a vertex
                p, q, r = tri = tuple(sorted((a, b, c)))
                if complex.has_simplex(2, tri):
                    # steps (a->b) + (b->c) = (a->c) + sigma * boundary(face), and
                    # boundary(p, q, r) = (q, r) - (p, r) + (p, q) runs p -> q -> r -> p
                    sigma = 1 if (a, b) in ((p, q), (q, r), (r, p)) else -1
                    tidx = complex.index_of(2, tri)
                    fill[tidx] = fill.get(tidx, 0) + sigma
                    del vs[i]
                    break
            else:
                return None
    return Chain(2, fill)


def fill_loop_locally(space: MetricComplex, loop: Chain) -> Optional[Chain]:
    """Face-reduction fill of a 1-cycle, walk by walk; None when blocked."""
    total: dict[int, int] = {}
    for walk in chain_to_closed_walks(space.complex, loop):
        part = fill_walk_on_faces(space.complex, walk)
        if part is None:
            return None
        _axpy(total, part.items(), 1)
    return Chain._of(2, total)


# ---------------------------------------------------------------------------
# cone fill


def cone_fill(space: MetricComplex, loop: Chain, apex: int) -> Chain:
    """Discrete cone over a 1-cycle: per loop edge, fill the wedge between
    the edge and the shortest paths of its endpoints to the apex.

    The apex's whole-skeleton tree is built once per space and kept in its
    memo.  A tree edge's wedge is the zero cycle and is skipped.  Every other
    wedge is filled once per space, by the local face reduction or, where
    that is blocked, the exact minimum-mass fill, and its fill is kept in the
    memo as a flat tuple ``(triangle, coefficient, ...)`` in the fill's item
    order.  The boundary of the sum is checked on every call.
    """
    if loop.dim != 1:
        raise DomainError("cone_fill expects a 1-chain")
    if loop.is_zero():
        return Chain.zero(2)
    if not boundary(space.complex, loop).is_zero():
        raise DomainError("cone_fill input is not a cycle")
    if not (0 <= apex < space.complex.n_vertices):
        raise StructuralError(f"apex {apex} is not a vertex")
    parent = cached(space, ("tree", apex),
                    lambda: array("i", shortest_path_tree(space.adjacency(), apex)[1]))
    edges = space.complex.simplices(1)

    def wedge_fill(idx: int, u: int, v: int) -> tuple[int, ...]:
        su = path_chain(space.complex, tree_path(parent, u))
        sv = path_chain(space.complex, tree_path(parent, v))
        wedge = Chain(1, {idx: 1}) + su - sv
        part = fill_loop_locally(space, wedge)
        if part is None:
            part, _ = min_mass_fill(space.complex, space.volumes, wedge)
        return tuple(x for item in part.items() for x in item)

    acc: dict[int, int] = {}
    for idx, a in sorted(loop.items()):
        u, v = edges[idx]
        if parent[u] < 0 or parent[v] < 0:
            raise DomainError(f"no path from {(u, v)} to apex {apex}")
        if parent[u] == v or parent[v] == u:
            continue
        flat = iter(cached(space, ("wedge", apex, idx), lambda: wedge_fill(idx, u, v)))
        _axpy(acc, zip(flat, flat), a)  # (triangle, coefficient) pairs
    total = Chain._of(2, acc)
    if boundary(space.complex, total) != loop:
        raise InvariantError("cone fill has the wrong boundary")
    return total


# ---------------------------------------------------------------------------
# neck contraction


def _successor_map(space: MetricComplex, vertices) -> dict[int, int]:
    adj = space.adjacency()
    radial = space.radial
    succ = {}
    for v in sorted(vertices):
        candidates = [
            (length, radial[w], w)
            for (w, length) in adj[v]
            if radial[w] < radial[v]
        ]
        if not candidates:
            raise StructuralError(
                f"vertex {v} at radial {radial[v]} has no lower neighbor: "
                "neck is not vertically structured"
            )
        succ[v] = min(candidates)[2]
    return succ


def neck_contract(space: MetricComplex, c: Chain, target_level: float) -> tuple[Chain, Chain]:
    """Project a cycle radially to the sublevel set, sweeping a prism chain.

    Returns (C', E) with boundary(E) = c - C' exactly; C' is supported on
    vertices with radial value <= target_level.
    """
    if space.radial is None:
        raise StructuralError("neck contraction needs a radial field")
    if c.dim != 1:
        raise DomainError("neck_contract expects a 1-chain")
    if not boundary(space.complex, c).is_zero():
        raise DomainError("neck_contract input is not a cycle")
    radial = space.radial
    lo, hi = min(radial), max(radial)
    if not (lo - ABS_TOL <= target_level <= hi + ABS_TOL):
        raise DomainError(
            f"target level {target_level} outside radial range [{lo}, {hi}]"
        )
    edges = space.complex.simplices(1)
    cur = c
    total: dict[int, int] = {}
    rounds = 0
    while True:
        support_vertices = set()
        for idx in cur.support:
            support_vertices.update(edges[idx])
        above = {v for v in support_vertices if radial[v] > target_level}
        if not above:
            break
        rounds += 1
        if rounds > space.complex.n_vertices + 1:
            raise StructuralError("radial projection does not terminate")
        succ = _successor_map(space, above)
        next_acc: dict[int, int] = {}
        sweep: dict[int, int] = {}
        for idx, a in sorted(cur.items()):
            u, v = edges[idx]
            pu = succ.get(u, u)
            pv = succ.get(v, v)
            if pu == u and pv == v:
                next_acc[idx] = next_acc.get(idx, 0) + a
                continue
            if pu != pv and not space.complex.has_simplex(1, tuple(sorted((pu, pv)))):
                raise StructuralError(
                    f"projection of edge {(u, v)} lands on missing edge {(pu, pv)}"
                )
            # swept cell: u -> v -> pv -> pu -> u, degenerate corners dropped
            cell_walk = [u, v]
            if pv != v:
                cell_walk.append(pv)
            if pu != pv and pu != u:
                cell_walk.append(pu)
            cell_walk.append(u)
            part = fill_loop_locally(space, path_chain(space.complex, cell_walk))
            if part is None:
                raise StructuralError(
                    f"swept cell of edge {(u, v)} is not filled by faces: "
                    "neck is not vertically structured"
                )
            _axpy(sweep, part.items(), a)
            for jdx, sgn in path_chain(space.complex, (pu, pv)).items():
                next_acc[jdx] = next_acc.get(jdx, 0) + sgn * a
        cur = Chain(1, next_acc)
        _axpy(total, sweep.items(), 1)
    swept = Chain._of(2, total)
    if boundary(space.complex, swept) != c - cur:
        raise InvariantError("neck sweep has the wrong boundary")
    return cur, swept


# ---------------------------------------------------------------------------
# decomposition along region labels


def _edge_region(space: MetricComplex, u: int, v: int) -> str:
    ru, rv = space.region[u], space.region[v]
    if ru == rv:
        return ru
    nu, nv = is_neck_label(ru), is_neck_label(rv)
    if nu and not nv:
        return ru
    if nv and not nu:
        return rv
    raise StructuralError(
        f"edge {(u, v)} joins non-adjacent regions {ru!r} and {rv!r}"
    )


def _closed_star_vertices(space: MetricComplex, label: str) -> frozenset:
    k = space.complex
    verts = {v for v in range(k.n_vertices) if space.region[v] == label}
    for (u, v) in k.simplices(1):
        if space.region[u] == label:
            verts.add(v)
        if space.region[v] == label:
            verts.add(u)
    return frozenset(verts)


def _pair_junctions(space, neck_label, balance) -> Chain:
    """Connector chain cancelling the junction balance of a neck restriction.

    Junctions sharing an interface body are paired first (their connector
    runs along that interface); leftovers are paired inside the closed star
    of the neck.
    """
    adj = space.adjacency()
    star = _closed_star_vertices(space, neck_label)

    def connect(p, q, *alloweds):
        """Shortest path chain p -> q inside the first vertex set that joins them."""
        for allowed in alloweds:
            parent = shortest_path_tree(adj, p, allowed=allowed)[1]
            if parent[q] >= 0:
                return path_chain(space.complex, tree_path(parent, q))
        raise DomainError(f"cannot connect junctions {p} and {q} inside the star of {neck_label}")

    groups: dict[str, tuple[list[int], list[int]]] = {}
    for v in sorted(balance):
        pos, neg = groups.setdefault(space.region[v], ([], []))
        (pos if balance[v] > 0 else neg).extend([v] * abs(balance[v]))
    connectors: dict[int, int] = {}
    # bodies in sorted order, each one's vertices ascending: (body, vertex) order
    leftovers_pos: list[int] = []
    leftovers_neg: list[int] = []
    for body in sorted(groups):
        pos, neg = groups[body]
        # prefer connectors along the interface ring itself
        ring = frozenset(v for v in star if space.region[v] == body)
        for p, q in zip(pos, neg):
            _axpy(connectors, connect(p, q, ring, star).items(), 1)
        n_pairs = min(len(pos), len(neg))
        leftovers_pos += pos[n_pairs:]
        leftovers_neg += neg[n_pairs:]
    for p, q in zip(leftovers_pos, leftovers_neg):
        _axpy(connectors, connect(p, q, star).items(), 1)
    return Chain._of(1, connectors)


def decompose_cycle(space: MetricComplex, c: Chain) -> list[tuple[str, Chain]]:
    """Split a 1-cycle into per-region cycles summing to it exactly.

    Neck restrictions are closed by connectors running along their
    interfaces; what remains is supported in bodies and splits by label.
    """
    if space.region is None:
        raise StructuralError("decompose_cycle needs region labels")
    if c.dim != 1:
        raise DomainError("decompose_cycle expects a 1-chain")
    if not boundary(space.complex, c).is_zero():
        raise DomainError("decompose_cycle input is not a cycle")
    if c.is_zero():
        return []
    edges = space.complex.simplices(1)
    labels = sorted({_edge_region(space, *edges[idx]) for idx in c.support})
    if len(labels) == 1:
        return [(labels[0], c)]

    # junction pairing expands multiplicities, so peel the content first
    content, c_red = peel_content(c)

    pieces: list[tuple[str, Chain]] = []
    remainder = dict(c_red.items())
    for _ in range(len(labels) + 1):
        neck_edges: dict[str, dict[int, int]] = {}
        for idx, a in remainder.items():
            label = _edge_region(space, *edges[idx])
            if is_neck_label(label):
                neck_edges.setdefault(label, {})[idx] = a
        if not neck_edges:
            break
        for label in sorted(neck_edges):
            restriction = Chain(1, neck_edges[label])
            balance = dict(boundary(space.complex, restriction).items())
            connectors = _pair_junctions(space, label, balance)
            piece = restriction + connectors
            if not boundary(space.complex, piece).is_zero():
                raise InvariantError(f"closed neck piece {label} is not a cycle")
            pieces.append((label, piece))
            _axpy(remainder, piece.items(), -1)
    else:
        raise DomainError("region decomposition did not stabilize")

    by_body: dict[str, dict[int, int]] = {}
    for idx, a in remainder.items():
        label = _edge_region(space, *edges[idx])
        if is_neck_label(label):
            raise DomainError("region decomposition did not stabilize")
        by_body.setdefault(label, {})[idx] = a
    for label in sorted(by_body):
        piece = Chain(1, by_body[label])
        if not boundary(space.complex, piece).is_zero():
            raise InvariantError(f"body piece {label} is not a cycle")
        pieces.append((label, piece))
    pieces = [(label, piece.scale(content)) for label, piece in pieces]
    total: dict[int, int] = {}
    for _, piece in pieces:
        _axpy(total, piece.items(), 1)
    if Chain._of(1, total) != c:
        raise InvariantError("region pieces do not sum to the cycle")
    return sorted(pieces, key=lambda p: p[0])


# ---------------------------------------------------------------------------
# cycle -> geodesic graph projection


@dataclass(frozen=True)
class ProjectionReport:
    input_mass1: float
    rerouted_mass1: float
    wedge_mass2: float

    @property
    def length_ratio(self) -> Optional[float]:
        return self.rerouted_mass1 / self.input_mass1 if self.input_mass1 > 0 else None

    @property
    def area_ratio(self) -> Optional[float]:
        return self.wedge_mass2 / self.input_mass1 if self.input_mass1 > 0 else None


def project_cycle_to_graph(
    space: MetricComplex,
    cover: Cover,
    graph: GeodesicGraph,
    c: Chain,
) -> tuple[Chain, Chain, ProjectionReport]:
    """Reroute a skeleton cycle through cover-set centers.

    Returns (C', E1, report): C' is a chain on graph edges, that is a
    1-chain of ``graph.nerve``, and E1 a 2-chain with boundary(E1) =
    c - realize(C') exactly.  Arcs are maximal runs of consecutive cycle
    edges assigned to one cover set; each arc is traded for the graph edge
    between the centers of consecutive arc sets, and the difference loops
    are cone-filled inside the relevant sets.  ``graph`` must come from
    ``geodesic_graph(space, cover)``, which checks that every set is
    connected and holds its center, so each set's tree reaches all of it.
    """
    if c.dim != 1:
        raise DomainError("project_cycle_to_graph expects a 1-chain")
    if not boundary(space.complex, c).is_zero():
        raise DomainError("projection input is not a cycle")
    if c.is_zero():
        return Chain.zero(1), Chain.zero(2), ProjectionReport(0.0, 0.0, 0.0)

    # work on the primitive cycle; scale everything back at the end
    content, c_red = peel_content(c)

    k = space.complex
    edges = k.simplices(1)
    member = [set(s) for s in cover.sets]
    adj = space.adjacency()

    def set_tree(si: int) -> tuple[list[float], list[int]]:
        return cached(cover, ("set_tree", si), lambda: shortest_path_tree(
            adj, cover.centers[si], allowed=frozenset(cover.sets[si])))

    def assign(u: int, v: int) -> int:
        """Cover set carrying the directed step u -> v."""
        candidates = [
            si for si in range(len(cover.sets)) if u in member[si] and v in member[si]
        ]
        if not candidates:
            raise DomainError(
                f"edge {(u, v)} lies in no cover set: cover too fine"
            )
        return min(candidates, key=lambda si: (set_tree(si)[0][u], si))

    def spoke(si: int, vertex: int) -> Chain:
        """Path chain center(si) -> vertex inside the set."""
        return path_chain(k, tree_path(set_tree(si)[1], vertex))

    graph_acc: dict[int, int] = {}
    e1: dict[int, int] = {}

    for walk in chain_to_closed_walks(k, c_red):
        # maximal cyclic runs of one cover set
        runs = [(si, list(run)) for si, run in groupby(zip(walk, walk[1:]), lambda s: assign(*s))]
        if len(runs) > 1 and runs[0][0] == runs[-1][0]:
            last = runs.pop()
            runs[0] = (runs[0][0], last[1] + runs[0][1])

        if len(runs) == 1:
            _axpy(e1, cone_fill(space, path_chain(k, walk), cover.centers[runs[0][0]]).items(), 1)
            continue

        p = len(runs)
        junctions = [runs[(i + 1) % p][1][0][0] for i in range(p)]  # end of arc i
        for i in range(p):
            si, arc_steps = runs[i]
            sj = runs[(i + 1) % p][0]
            v_start = arc_steps[0][0]
            v_end = junctions[i]
            arc_chain = path_chain(k, [v_start] + [v for _, v in arc_steps])
            t_i = spoke(si, v_start)          # center_i -> start junction
            u_i = -spoke(si, v_end)           # end junction -> center_i
            loop_a = dict(t_i.items())
            _axpy(loop_a, arc_chain.items(), 1)
            _axpy(loop_a, u_i.items(), 1)
            _axpy(e1, cone_fill(space, Chain._of(1, loop_a), cover.centers[si]).items(), 1)

            pair = (min(si, sj), max(si, sj))
            if not graph.nerve.has_simplex(1, pair):
                raise InvariantError(
                    f"no geodesic-graph edge between cover sets {si} and {sj}, "
                    "which share a junction vertex"
                )
            eidx = graph.nerve.index_of(1, pair)
            sign = 1 if si < sj else -1
            graph_acc[eidx] = graph_acc.get(eidx, 0) + sign
            gamma = graph.realize(space, Chain(1, {eidx: sign}))
            t_next = spoke(sj, v_end)
            # closed walk v_end -> center_i -> center_j -> v_end
            loop_b = dict(u_i.items())
            _axpy(loop_b, gamma.items(), 1)
            _axpy(loop_b, t_next.items(), 1)
            _axpy(e1, cone_fill(space, Chain._of(1, loop_b), v_end).items(), -1)

    c_graph = Chain(1, graph_acc).scale(content)
    e1 = Chain._of(2, e1).scale(content)
    realized = graph.realize(space, c_graph)
    if boundary(k, e1) != c - realized:
        raise InvariantError("E1 projection fill has the wrong boundary")
    report = ProjectionReport(
        input_mass1=space.mass1(c),
        rerouted_mass1=space.mass1(realized),
        wedge_mass2=space.mass2(e1),
    )
    return c_graph, e1, report


# ---------------------------------------------------------------------------
# end-to-end pipeline


@dataclass(frozen=True)
class FillingReport:
    """Masses, certificates, and measured constants of one pipeline run."""

    input_mass1: float
    mass_e0: float
    mass_e1: float
    mass_e2: float
    total_mass2: float
    nerve_vertices: int
    certificate: Optional[FillCertificate]
    measured_f1: Optional[float]
    amin_bound: float
    boundary_verified: bool
    timing: Mapping[str, float]
    measured_constants: Mapping[str, float]
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        cert = self.certificate
        out.update(
            certificate=None if cert is None else {
                "input_max_coeff": cert.input_max_coeff,
                "output_max_coeff": cert.output_max_coeff,
                "output_l1": cert.output_l1,
                "bound_max": _finite_or_none(cert.bound_max),
                "bound_l1": _finite_or_none(cert.bound_l1),
                "rank_used": cert.rank_used,
                "bounds_hold": cert.bounds_hold(),
            },
            timing=dict(self.timing),
            measured_constants=dict(self.measured_constants),
            warnings=list(self.warnings),
        )
        return out


def _finite_or_none(bound: float) -> Optional[float]:
    """A certificate bound for a report: null beyond binary64, where
    ``bounds_hold`` still compares exactly."""
    return bound if math.isfinite(bound) else None


@contextmanager
def _stage(timing: dict[str, float], tag: str):
    """Run one pipeline stage: a FillboundError it raises is re-raised with
    the same type and the message prefixed by ``tag`` ("E0/decompose"), and
    its wall time goes to ``timing`` under the tag's lower-cased stage ("e0")."""
    t0 = time.perf_counter()
    try:
        yield
    except FillboundError as err:
        raise type(err)(f"{tag}: {err}") from err
    timing[tag.split("/")[0].lower()] = time.perf_counter() - t0


def _child_interface_level(space: MetricComplex, neck_label: str) -> float:
    """Radial level of the lower adjacent body's interface ring."""
    k = space.complex
    interface: dict[str, list[int]] = {}
    for (u, v) in k.simplices(1):
        ru, rv = space.region[u], space.region[v]
        if ru == neck_label and rv != neck_label:
            interface.setdefault(rv, []).append(v)
        elif rv == neck_label and ru != neck_label:
            interface.setdefault(ru, []).append(u)
    levels = {
        body: max(space.radial[v] for v in verts)
        for body, verts in interface.items()
    }
    return min(levels.values())


def pipeline_fill(
    space: MetricComplex,
    cover: Cover,
    c: Chain,
) -> tuple[Chain, FillingReport]:
    """Fill a skeleton 1-cycle as E0 + E1 + E2 with an exact boundary check.

    E0 contracts neck-supported pieces radially into bodies, E1 trades the
    remaining cycle for a cycle on the geodesic graph, which is a nerve
    1-cycle, and E2 fills that cycle on the nerve and lifts each nerve
    triangle, through the graph's realization of its boundary, as a
    cone-filled geodesic triangle.
    """
    t_start = time.perf_counter()
    if c.dim != 1:
        raise DomainError("pipeline_fill expects a 1-chain")
    if not boundary(space.complex, c).is_zero():
        raise DomainError("pipeline input is not a cycle")
    if not h1_is_trivial(space.complex):
        raise DomainError("H1 is nontrivial: some 1-cycle does not bound")
    input_mass = space.mass1(c)

    timing: dict[str, float] = {}
    constants: dict[str, float] = {}
    warnings = list(cover.warnings)

    # stage E0: reduce to bodies
    e0: dict[int, int] = {}
    c_body = c
    with _stage(timing, "E0/decompose"):
        if space.region is not None and not c.is_zero():
            pieces = decompose_cycle(space, c)
            constants["decompose_mass_ratio"] = (
                sum(space.mass1(p) for _, p in pieces) / input_mass
            )
            body: dict[int, int] = {}
            for label, piece in pieces:
                if is_neck_label(label):
                    if space.radial is None:
                        raise StructuralError(
                            "neck regions need a radial field for contraction"
                        )
                    target = _child_interface_level(space, label)
                    piece, swept = neck_contract(space, piece, target)
                    _axpy(e0, swept.items(), 1)
                _axpy(body, piece.items(), 1)
            c_body = Chain._of(1, body)

    # stage E1: reroute through the geodesic graph (cached per cover)
    with _stage(timing, "E1/project"):
        graph = cached(cover, "graph", lambda: geodesic_graph(space, cover))
        c_graph, e1, proj = project_cycle_to_graph(space, cover, graph, c_body)
        if proj.length_ratio is not None:
            constants["graph_length_ratio"] = proj.length_ratio
            constants["graph_area_ratio"] = proj.area_ratio

    # stage E2: combinatorial fill on the nerve plus geodesic-triangle lifts
    certificate: Optional[FillCertificate] = None
    e2: dict[int, int] = {}
    with _stage(timing, "E2/nerve-fill"):
        if not c_graph.is_zero():
            constants["nerve_coeff_per_length"] = c_graph.max_abs() / input_mass
            nerve_fill, certificate = fill_boundary(graph.nerve, c_graph)
            triangles = graph.nerve.simplices(2)
            for tidx, coeff in sorted(nerve_fill.items()):
                # the realized boundary (j,l) - (i,l) + (i,j), coned from set i
                loop = graph.realize(space, boundary(graph.nerve, Chain(2, {tidx: 1})))
                apex = graph.centers[triangles[tidx][0]]
                _axpy(e2, cone_fill(space, loop, apex).items(), coeff)

    total = dict(e0)
    _axpy(total, e1.items(), 1)
    _axpy(total, e2.items(), 1)
    e0, e2, total = Chain._of(2, e0), Chain._of(2, e2), Chain._of(2, total)
    if boundary(space.complex, total) != c:
        raise InvariantError("pipeline produced a chain with the wrong boundary")

    m0, m1, m2 = space.mass2(e0), space.mass2(e1), space.mass2(e2)
    total_mass = m0 + m1 + m2
    timing["total"] = time.perf_counter() - t_start
    report = FillingReport(
        input_mass1=input_mass,
        mass_e0=m0,
        mass_e1=m1,
        mass_e2=m2,
        total_mass2=total_mass,
        nerve_vertices=len(cover.sets),
        certificate=certificate,
        measured_f1=(space.mass2(total) / input_mass) if input_mass > 0 else None,
        amin_bound=amin_upper_bound(total_mass, 4),
        boundary_verified=True,
        timing=timing,
        measured_constants=constants,
        warnings=tuple(warnings),
    )
    return total, report
