"""Shared helpers: deterministic random instances and independent oracles."""

import gc
import heapq
import itertools
import random

import pytest

from fillbound.chains import Chain, SimplicialComplex, boundary, path_chain
from fillbound.errors import DomainError, StructuralError
from fillbound.filling import min_mass_fill
from fillbound.geom import MetricComplex, fill_loop_locally, shortest_path_tree, tree_path
from fillbound.intlin import IntMatrix, _axpy, _bareiss_det
from fillbound.shapes import octahedron


def is_cycle(complex: SimplicialComplex, c: Chain) -> bool:
    """True iff the boundary of c vanishes; requires c.dim >= 1."""
    return boundary(complex, c).is_zero()


def complete_complex(n_vertices: int, dim: int) -> SimplicialComplex:
    """All simplices on n_vertices up to the given dimension."""
    simps = []
    for k in range(1, dim + 1):
        simps.extend(itertools.combinations(range(n_vertices), k + 1))
    return SimplicialComplex.from_simplices(simps, n_vertices=n_vertices)


def strict_complex(n_vertices: int, simplices_by_dim) -> tuple[dict, dict, int]:
    """The direct ``SimplicialComplex`` constructor's checks as they were
    written out one by one, kept as the oracle of what it accepts: the
    simplices by dimension, their index by dimension and the dimension, or a
    StructuralError."""
    if n_vertices <= 0:
        raise StructuralError("complex needs at least one vertex")
    by_dim = {}
    for k in sorted(simplices_by_dim):
        if k < 1:
            raise StructuralError("simplices_by_dim keys start at dimension 1")
        simps = [tuple(s) for s in simplices_by_dim[k]]
        for s in simps:
            if len(s) != k + 1:
                raise StructuralError(f"{s} is not a {k}-simplex")
            if any(not (0 <= v < n_vertices) for v in s):
                raise StructuralError(f"vertex out of range in {s}")
            if any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
                raise StructuralError(f"simplex {s} is not strictly increasing")
        if len(set(simps)) != len(simps):
            raise StructuralError(f"duplicate {k}-simplices")
        if sorted(simps) != simps:
            raise StructuralError(f"{k}-simplices are not in lexicographic order")
        by_dim[k] = tuple(simps)
    index = {k: {s: i for i, s in enumerate(simps)} for k, simps in by_dim.items()}
    for k in sorted(by_dim, reverse=True):
        if k == 1:
            continue
        lower = index.get(k - 1, {})
        for s in by_dim[k]:
            for j in range(len(s)):
                face = s[:j] + s[j + 1:]
                if face not in lower:
                    raise StructuralError(f"face {face} of {s} is missing")
    return by_dim, index, max(by_dim, default=0)


def octahedron_necklace(n: int) -> MetricComplex:
    """n unit octahedra in a row along x, each pinched to the next at a
    vertex: the boundary kernel has n disjoint +-1 columns."""
    octa = octahedron(1.0)
    ids: dict = {}
    faces = []
    for i in range(n):
        local = [ids.setdefault((x + 2.0 * i, y, z), len(ids)) for x, y, z in octa.coords]
        faces += [tuple(sorted(local[v] for v in face)) for face in octa.complex.simplices(2)]
    return MetricComplex(complex=SimplicialComplex.from_simplices(faces), coords=tuple(ids))


def random_complex(rng: random.Random, max_vertices: int = 10, min_vertices: int = 4,
                   max_faces: int = None) -> SimplicialComplex:
    """Random 2-dimensional complex, closed under faces by construction."""
    n = rng.randint(min_vertices, max_vertices)
    all_tris = list(itertools.combinations(range(n), 3))
    cap = len(all_tris) if max_faces is None else min(max_faces, len(all_tris))
    count = rng.randint(1, cap)
    tris = rng.sample(all_tris, count)
    return SimplicialComplex.from_simplices(tris, n_vertices=n)


def random_chain(rng: random.Random, complex: SimplicialComplex, dim: int,
                 max_coeff: int = 4, density: float = 0.5) -> Chain:
    coeffs = {}
    for idx in range(complex.n_simplices(dim)):
        if rng.random() < density:
            a = rng.randint(-max_coeff, max_coeff)
            if a:
                coeffs[idx] = a
    return Chain(dim, coeffs)


def random_boundary(rng: random.Random, complex: SimplicialComplex,
                    max_coeff: int = 3) -> Chain:
    """A 1-boundary, produced as the boundary of a random 2-chain."""
    w = random_chain(rng, complex, 2, max_coeff=max_coeff, density=0.4)
    return boundary(complex, w)


def det_laplace(rows) -> int:
    """Cofactor-expansion determinant; independent of IntMatrix.det."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    sign = 1
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += sign * rows[0][j] * det_laplace(minor)
        sign = -sign
    return total


def identity(n: int) -> IntMatrix:
    return IntMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """a @ b, accumulated on the sparse rows."""
    assert a.cols == b.rows
    out = IntMatrix(a.rows, b.cols)
    for row, acc in zip(a._r, out._r):
        for k, x in row.items():
            _axpy(acc, b._r[k].items(), x)
    return out


def det(m: IntMatrix) -> int:
    """Exact determinant of a square matrix, by the library's Bareiss elimination."""
    assert m.rows == m.cols
    return _bareiss_det(m.to_rows())


def box_search_best(a: IntMatrix, b, radius: int):
    """Exhaustive box oracle: min (max-norm, l1, lex) integer solution."""
    best = None
    for xs in itertools.product(range(-radius, radius + 1), repeat=a.cols):
        if a.mul_vec(list(xs)) == list(b):
            cand = (max(map(abs, xs), default=0), sum(map(abs, xs)), xs)
            if best is None or cand < best:
                best = cand
    return None if best is None else list(best[2])


def path_tuple_shortest_path_tree(adj, source, allowed=None) -> dict:
    """Dijkstra over whole vertex paths: {v: (distance, path)} for every
    reached v.  The heap key (d, path) makes the tie rule its definition:
    least binary64 distance, then the lexicographically smallest path."""
    best = {}
    heap = [(0.0, (source,))]
    while heap:
        d, path = heapq.heappop(heap)
        v = path[-1]
        if v in best:
            continue
        best[v] = (d, path)
        for (w, length) in adj[v]:
            if w in best:
                continue
            if allowed is not None and w not in allowed:
                continue
            heapq.heappush(heap, (d + length, path + (w,)))
    return best


def slicing_boundary(complex: SimplicialComplex, c: Chain) -> Chain:
    """``chains.boundary`` as it was before the face table: each face tuple
    is sliced out of its simplex and looked up with ``index_of``, term by
    term, and the result goes through the Chain constructor."""
    if c.dim < 1:
        raise DomainError("boundary of a 0-chain is undefined")
    n = complex.n_simplices(c.dim)
    for idx in c._c:
        if idx >= n:
            raise StructuralError(
                f"chain references {c.dim}-simplex {idx}, complex has {n}"
            )
    k = c.dim
    simps = complex.simplices(k)
    acc: dict[int, int] = {}
    for idx, a in c.items():
        s = simps[idx]
        sign = 1
        for j in range(len(s)):
            face = s[:j] + s[j + 1:]
            fidx = complex.index_of(k - 1, face)
            val = acc.get(fidx, 0) + sign * a
            if val:
                acc[fidx] = val
            else:
                acc.pop(fidx, None)
            sign = -sign
    return Chain(k - 1, acc)


def percall_cone_fill(space, loop: Chain, apex: int) -> Chain:
    """``geom.cone_fill`` with nothing kept between calls: the apex's tree
    and every wedge are built, and every wedge filled, on each call, and the
    parts are summed by Chain addition.  Expects a 1-cycle and a vertex that
    reaches it."""
    _, parent = shortest_path_tree(space.adjacency(), apex)
    edges = space.complex.simplices(1)
    total = Chain.zero(2)
    for idx, a in sorted(loop.items()):
        u, v = edges[idx]
        su = path_chain(space.complex, tree_path(parent, u))
        sv = path_chain(space.complex, tree_path(parent, v))
        wedge = Chain(1, {idx: 1}) + su - sv
        part = fill_loop_locally(space, wedge)
        if part is None:
            part, _ = min_mass_fill(space.complex, space.volumes, wedge)
        total = total + part.scale(a)
    assert boundary(space.complex, total) == loop
    return total


def rescanning_closed_walks(complex: SimplicialComplex, c: Chain) -> list[list[int]]:
    """``geom.chain_to_closed_walks`` as it was before its rewrite: count
    dicts rescanned at every step, and the start vertices rebuilt over all
    vertices for every walk.  The least start, the least successor, and a
    splice at the first vertex that still has steps."""
    succ: dict[int, dict[int, int]] = {}
    edges = complex.simplices(1)
    for idx, a in c.items():
        u, v = edges[idx]
        if a > 0:
            succ.setdefault(u, {})[v] = succ.get(u, {}).get(v, 0) + a
        else:
            succ.setdefault(v, {})[u] = succ.get(v, {}).get(u, 0) - a

    def has_out(v):
        return any(cnt > 0 for cnt in succ.get(v, {}).values())

    def next_from(v):
        return min(w for w, cnt in succ[v].items() if cnt > 0)

    def circuit(start):
        walk = [start]
        cur = start
        while True:
            nxt = next_from(cur)
            succ[cur][nxt] -= 1
            walk.append(nxt)
            cur = nxt
            if cur == start:
                return walk

    walks = []
    while True:
        starts = [v for v in succ if has_out(v)]
        if not starts:
            break
        walk = circuit(min(starts))
        i = 0
        while i < len(walk):
            if has_out(walk[i]):
                sub = circuit(walk[i])
                walk = walk[:i] + sub + walk[i + 1:]
            else:
                i += 1
        walks.append(walk)
    return walks


def casewise_fill_walk_on_faces(complex: SimplicialComplex, walk) -> "Chain | None":
    """``geom.fill_walk_on_faces`` as it was before its rewrite: the sign of
    a step in a face's boundary by cases on the step, and the backtrack that
    wraps around the walk's end deleted by its own branch."""

    def face_sign(face, a, b):
        p, q, r = face
        if (a, b) in ((q, r), (p, q)):
            return 1
        if (a, b) in ((r, q), (q, p)):
            return -1
        if (a, b) == (p, r):
            return -1
        if (a, b) == (r, p):
            return 1
        raise StructuralError(f"edge {(a, b)} not in face {face}")

    vs = list(walk)
    if len(vs) >= 2 and vs[0] == vs[-1]:
        vs.pop()
    fill: dict[int, int] = {}
    while len(vs) > 2:
        n = len(vs)
        progress = False
        for i in range(n):
            if vs[(i - 1) % n] == vs[(i + 1) % n]:
                hi, lo = max(i, (i + 1) % n), min(i, (i + 1) % n)
                if hi == n - 1 and lo == 0:
                    del vs[n - 1]
                    del vs[0]
                else:
                    del vs[hi]
                    del vs[lo]
                progress = True
                break
        if progress:
            continue
        for i in range(n):
            a, b, c = vs[(i - 1) % n], vs[i], vs[(i + 1) % n]
            tri = tuple(sorted((a, b, c)))
            if not complex.has_simplex(2, tri):
                continue
            tidx = complex.index_of(2, tri)
            fill[tidx] = fill.get(tidx, 0) + face_sign(tri, a, b)
            del vs[i]
            progress = True
            break
        if not progress:
            return None
    return Chain(2, fill)


def collected_after(call) -> int:
    """The objects that the cyclic collector frees after a second, warm
    ``call()``: 0 when the call leaves no reference cycle behind."""
    call()
    gc.disable()
    try:
        gc.collect()
        call()
        return gc.collect()
    finally:
        gc.enable()


def squared_norm(col) -> int:
    return sum(x * x for x in col)


@pytest.fixture
def rng():
    return random.Random(20240811)
