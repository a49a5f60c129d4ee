"""Abstract simplicial complexes, integer chains, boundaries, and mass.

Vertices are contiguous integers 0..n0-1.  A k-simplex is stored as a
strictly increasing (k+1)-tuple; the lexicographic position of that tuple
within its dimension is the simplex index.  This fixes the orientation
convention and makes boundary matrices deterministic.

Chain coefficients are arbitrary-precision integers.  Simplex volumes
(weights) are binary64 floats and only ever enter mass computations, never
the integer algebra.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence, TypeVar

from .errors import DomainError, StructuralError
from .intlin import IntMatrix, _axpy

T = TypeVar("T")


def cached(owner, key: Hashable, build: Callable[[], T]) -> T:
    """``owner._memo[key]``, stored from ``build()`` on the first request.

    The package's one caching idiom: every lazily derived value lives in the
    ``_memo`` dict of the object it is derived from.  Entries are never
    invalidated, so a value may depend only on the owner and on inputs that
    stay fixed for it (a cover's values assume the space it was built from).
    """
    memo = owner._memo
    if key not in memo:
        memo[key] = build()
    return memo[key]


def sort_with_sign(vertices: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Sort a vertex tuple, returning (sorted tuple, permutation sign).

    Raises StructuralError on repeated vertices (not a simplex).
    """
    verts = list(vertices)
    if len(set(verts)) != len(verts):
        raise StructuralError(f"repeated vertex in simplex {tuple(vertices)}")
    sign = 1
    # insertion sort; counts inversions exactly
    for i in range(1, len(verts)):
        j = i
        while j > 0 and verts[j - 1] > verts[j]:
            verts[j - 1], verts[j] = verts[j], verts[j - 1]
            sign = -sign
            j -= 1
    return tuple(verts), sign


class SimplicialComplex:
    """Finite abstract simplicial complex, closed under faces.

    :meth:`from_simplices`, the one place that builds a complex, checks
    arbitrary simplices and closes them under faces.  The direct constructor
    refuses all but the canonical data it makes: per dimension k >= 1 (which
    may be empty), distinct increasing tuples in lexicographic order.
    """

    __slots__ = ("n_vertices", "_by_dim", "_index", "_memo")

    def __init__(self, n_vertices: int, simplices_by_dim: Mapping[int, Sequence[tuple[int, ...]]]):
        given = {k: tuple(map(tuple, simplices_by_dim[k])) for k in sorted(simplices_by_dim)}
        if any(k < 1 for k in given):
            raise StructuralError("simplices_by_dim keys start at dimension 1")
        canon = self.from_simplices([s for simps in given.values() for s in simps], n_vertices)
        if canon._by_dim != {k: simps for k, simps in given.items() if simps}:
            raise StructuralError("simplices_by_dim is not canonical: distinct increasing "
                                  "tuples in lexicographic order, closed under faces")
        self._assemble(n_vertices, given)

    def _assemble(self, n_vertices: int, by_dim: dict[int, tuple[tuple[int, ...], ...]]):
        """Store canonical data as it is and index it; no checks."""
        self.n_vertices = n_vertices
        self._by_dim = by_dim
        self._index = {k: {s: i for i, s in enumerate(simps)} for k, simps in by_dim.items()}
        self._memo: dict = {}
        return self

    @classmethod
    def from_simplices(
        cls,
        simplices: Iterable[Sequence[int]],
        n_vertices: Optional[int] = None,
    ) -> "SimplicialComplex":
        """Build a complex from arbitrary simplices, closing under faces.

        Vertex order within the input tuples is ignored here; orientation
        matters only for chains.
        """
        collected: dict[int, set[tuple[int, ...]]] = {}
        max_vertex = -1
        for s in simplices:
            verts = tuple(sorted(set(s)))
            if len(verts) != len(tuple(s)):
                raise StructuralError(f"repeated vertex in simplex {tuple(s)}")
            if not verts:
                raise StructuralError("empty simplex")
            if verts[0] < 0:
                raise StructuralError(f"negative vertex id in {tuple(s)}")
            max_vertex = max(max_vertex, verts[-1])
            k = len(verts) - 1
            if k >= 1:
                collected.setdefault(k, set()).add(verts)
        if n_vertices is None:
            n_vertices = max_vertex + 1
        elif max_vertex >= n_vertices:
            raise StructuralError(
                f"vertex {max_vertex} out of range for n_vertices={n_vertices}"
            )
        if n_vertices <= 0:
            raise StructuralError("complex needs at least one vertex")
        # close under faces, top dimension downward
        for k in range(max(collected, default=0), 1, -1):
            lower = collected.setdefault(k - 1, set())
            for s in collected.get(k, ()):
                for j in range(len(s)):
                    lower.add(s[:j] + s[j + 1:])
        by_dim = {k: tuple(sorted(collected[k])) for k in sorted(collected) if collected[k]}
        return cls.__new__(cls)._assemble(n_vertices, by_dim)

    @property
    def dimension(self) -> int:
        return max(self._by_dim, default=0)

    def simplices(self, k: int) -> tuple[tuple[int, ...], ...]:
        if k == 0:
            return tuple((v,) for v in range(self.n_vertices))
        return self._by_dim.get(k, ())

    def n_simplices(self, k: int) -> int:
        if k == 0:
            return self.n_vertices
        return len(self._by_dim.get(k, ()))

    def index_of(self, k: int, simplex: Sequence[int]) -> int:
        s = tuple(simplex)
        if k == 0:
            if len(s) == 1 and 0 <= s[0] < self.n_vertices:
                return s[0]
            raise StructuralError(f"{s} is not a vertex of the complex")
        try:
            return self._index[k][s]
        except KeyError:
            raise StructuralError(f"{s} is not a {k}-simplex of the complex") from None

    def has_simplex(self, k: int, simplex: Sequence[int]) -> bool:
        s = tuple(simplex)
        if k == 0:
            return len(s) == 1 and 0 <= s[0] < self.n_vertices
        return s in self._index.get(k, {})

    def __repr__(self) -> str:
        counts = ", ".join(f"n{k}={self.n_simplices(k)}" for k in sorted(self._by_dim))
        return f"SimplicialComplex(n0={self.n_vertices}, {counts})"


class Chain:
    """Sparse integer chain of a single dimension.

    Keys of ``coeffs`` are simplex indices within the ambient complex;
    values are nonzero integers.  Chains are value objects: arithmetic
    returns new instances.  Sums go through ``intlin._axpy``, so an entry
    that cancels is dropped.
    """

    __slots__ = ("dim", "_c")

    def __init__(self, dim: int, coeffs: Optional[Mapping[int, int]] = None):
        if dim < 0:
            raise StructuralError("chain dimension must be nonnegative")
        self.dim = dim
        clean: dict[int, int] = {}
        if coeffs:
            for idx, a in coeffs.items():
                if not isinstance(idx, int) or idx < 0:
                    raise StructuralError(f"bad simplex index {idx!r}")
                if not isinstance(a, int):
                    raise StructuralError(f"coefficient {a!r} is not an integer")
                if a != 0:
                    clean[idx] = a
        self._c = clean

    @classmethod
    def _of(cls, dim: int, coeffs: dict[int, int]) -> "Chain":
        """The chain that takes ``coeffs`` as it is: a dict the library has
        built, of valid indices and nonzero integers, owned by no one else."""
        res = cls.__new__(cls)
        res.dim = dim
        res._c = coeffs
        return res

    @classmethod
    def zero(cls, dim: int) -> "Chain":
        return cls(dim)

    def items(self):
        return self._c.items()

    def get(self, idx: int) -> int:
        return self._c.get(idx, 0)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._c))

    def is_zero(self) -> bool:
        return not self._c

    def _plus(self, other: "Chain", q: int) -> "Chain":
        if self.dim != other.dim:
            raise StructuralError("cannot add chains of different dimensions")
        out = dict(self._c)
        _axpy(out, other._c.items(), q)
        return Chain._of(self.dim, out)

    def __add__(self, other: "Chain") -> "Chain":
        return self._plus(other, 1)

    def __sub__(self, other: "Chain") -> "Chain":
        return self._plus(other, -1)

    def __neg__(self) -> "Chain":
        return self.scale(-1)

    def scale(self, n: int) -> "Chain":
        if not isinstance(n, int):
            raise StructuralError("scale factor must be an integer")
        return Chain._of(self.dim, {i: n * a for i, a in self._c.items()} if n else {})

    def __mul__(self, n: int) -> "Chain":
        return self.scale(n)

    __rmul__ = __mul__

    def max_abs(self) -> int:
        return max((abs(a) for a in self._c.values()), default=0)

    def l1(self) -> int:
        return sum(abs(a) for a in self._c.values())

    def to_vector(self, n: int) -> list[int]:
        vec = [0] * n
        for idx, a in self._c.items():
            if idx >= n:
                raise StructuralError(f"chain index {idx} out of range {n}")
            vec[idx] = a
        return vec

    @classmethod
    def from_vector(cls, dim: int, vec: Sequence[int]) -> "Chain":
        return cls(dim, {i: a for i, a in enumerate(vec) if a})

    def __eq__(self, other) -> bool:
        return isinstance(other, Chain) and self.dim == other.dim and self._c == other._c

    def __repr__(self) -> str:
        terms = ", ".join(f"{a}*s{i}" for i, a in sorted(self._c.items()))
        return f"Chain(dim={self.dim}, {terms or '0'})"


def chain_from_simplices(
    complex: SimplicialComplex,
    dim: int,
    terms: Iterable[tuple[Sequence[int], int]],
) -> Chain:
    """Build a chain from (vertex tuple, coefficient) pairs.

    Tuples given in non-increasing order are normalized; the coefficient is
    multiplied by the permutation sign.
    """
    def signed():
        for verts, coeff in terms:
            if not isinstance(coeff, int):
                raise StructuralError(f"coefficient {coeff!r} is not an integer")
            if len(tuple(verts)) != dim + 1:
                raise StructuralError(f"{tuple(verts)} is not a {dim}-simplex")
            canon, sign = sort_with_sign(verts)
            idx = complex.index_of(dim, canon)
            if coeff:
                yield idx, sign * coeff

    acc: dict[int, int] = {}
    _axpy(acc, signed(), 1)
    if dim < 0:  # only reached without terms: each term of a negative dim is refused
        raise StructuralError("chain dimension must be nonnegative")
    return Chain._of(dim, acc)


def path_chain(complex: SimplicialComplex, path: Sequence[int]) -> Chain:
    """Oriented 1-chain of a vertex path (empty or single vertex -> zero):
    the sum of its steps, each +-1 on its edge."""
    steps = ((complex.index_of(1, (a, b)), 1) if a < b else (complex.index_of(1, (b, a)), -1)
             for a, b in zip(path, path[1:]) if a != b)
    acc: dict[int, int] = {}
    _axpy(acc, steps, 1)
    return Chain._of(1, acc)


def _check_chain(complex: SimplicialComplex, c: Chain):
    n = complex.n_simplices(c.dim)
    for idx in c._c:
        if idx >= n:
            raise StructuralError(
                f"chain references {c.dim}-simplex {idx}, complex has {n}"
            )


def face_table(complex: SimplicialComplex, k: int) -> list[tuple[tuple[int, int], ...]]:
    """Per k-simplex [v0..vk], its faces [v0..v̂j..vk] for j = 0..k as
    (index, sign) pairs, the signs alternating (+, -, +, ...); cached per
    complex and k."""

    def build():
        return [tuple((complex.index_of(k - 1, s[:j] + s[j + 1:]), (-1) ** j)
                      for j in range(len(s)))
                for s in complex.simplices(k)]

    return cached(complex, ("faces", k), build)


def boundary(complex: SimplicialComplex, c: Chain) -> Chain:
    """Boundary with the alternating-sign convention.

    d[v0..vk] = sum_j (-1)^j [v0..v̂j..vk]; requires c.dim >= 1.  The faces
    come from the cached ``face_table``.
    """
    if c.dim < 1:
        raise DomainError("boundary of a 0-chain is undefined")
    _check_chain(complex, c)
    table = face_table(complex, c.dim)
    acc: dict[int, int] = {}
    for idx, a in c._c.items():
        _axpy(acc, table[idx], a)
    return Chain._of(c.dim - 1, acc)


def boundary_matrix(complex: SimplicialComplex, k: int) -> IntMatrix:
    """Matrix of the boundary operator from k-chains to (k-1)-chains.

    Shape n_{k-1} x n_k, entries in {0, +-1}; column j is the boundary of
    the j-th k-simplex in the canonical (lexicographic) bases, read from
    the ``face_table``.  Built as sparse rows on every call, uncached: its
    one reader in the pipeline is ``filling.boundary_smith``, which caches
    the Smith form.
    """
    if k < 1 or k > complex.dimension:
        raise DomainError(f"boundary matrix order {k} out of range")
    mat = IntMatrix.zeros(complex.n_simplices(k - 1), complex.n_simplices(k))
    for j, faces in enumerate(face_table(complex, k)):
        for i, sign in faces:
            mat._r[i][j] = sign
    return mat


def mass(weights: Sequence[float], c: Chain) -> float:
    """Weighted l1 norm: sum_i |a_i| * vol(sigma_i).

    ``weights`` are the volumes of all simplices of dimension c.dim, indexed
    like the canonical simplex order.  The mass is the correctly rounded sum
    (``math.fsum``) of the binary64 terms ``abs(a_i) * w_i``, so it depends
    on the chain alone, not on its item order.  Where |a_i| is beyond
    binary64, which Python's product refuses, the term is the exact product
    rounded.  Zero iff the chain is zero.
    A weight it reads that is not finite and positive is a DomainError, and
    so is a mass whose terms or sum overflow binary64.
    """
    terms = []
    try:
        for idx, a in c.items():
            if idx >= len(weights):
                raise StructuralError(f"no weight for simplex index {idx}")
            w = weights[idx]
            if not 0 < w < math.inf:
                raise DomainError(f"simplex {idx} has weight {w}, which is not finite and positive")
            try:
                terms.append(abs(a) * w)
            except OverflowError:  # |a| beyond binary64: round the exact product
                terms.append(float(abs(a) * Fraction(w)))
        total = math.fsum(terms)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise DomainError(f"the mass of a {c.dim}-chain overflows binary64")
    return total
