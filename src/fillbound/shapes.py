"""Deterministic triangulated test spaces.

All generators return a MetricComplex.  The prism carries a radial field
(its height); ``capped_prism`` additionally labels two disk caps as bodies
and the middle band as a neck, giving a small body+neck composite with
trivial integer H1.
"""

from __future__ import annotations

import math

from .chains import SimplicialComplex
from .errors import DomainError
from .geom import MetricComplex

MAX_ICOSPHERE_LEVEL = 5
MAX_POLYGON = 64


def octahedron(scale: float = 1.0) -> MetricComplex:
    """Unit octahedron scaled: vertices at +-scale * e_i, eight faces."""
    _check_scale(scale)
    coords = [
        (scale, 0.0, 0.0), (-scale, 0.0, 0.0),
        (0.0, scale, 0.0), (0.0, -scale, 0.0),
        (0.0, 0.0, scale), (0.0, 0.0, -scale),
    ]
    faces = [
        (0, 2, 4), (1, 2, 4), (1, 3, 4), (0, 3, 4),
        (0, 2, 5), (1, 2, 5), (1, 3, 5), (0, 3, 5),
    ]
    return MetricComplex(
        complex=SimplicialComplex.from_simplices(faces),
        coords=tuple(coords),
    )


def tetra_boundary(scale: float = 1.0) -> MetricComplex:
    """Boundary of a regular tetrahedron with circumradius scale."""
    _check_scale(scale)
    s = scale / math.sqrt(3.0)
    coords = [
        (s, s, s), (s, -s, -s), (-s, s, -s), (-s, -s, s),
    ]
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    return MetricComplex(
        complex=SimplicialComplex.from_simplices(faces),
        coords=tuple(coords),
    )


def icosphere(level: int = 0, scale: float = 1.0) -> MetricComplex:
    """Icosahedron subdivided ``level`` times, projected to radius scale.

    Each subdivision splits every triangle in four at the edge midpoints;
    level 1 has 42 vertices and 80 faces, level 2 has 162 and 320.
    """
    _check_scale(scale)
    if not (0 <= level <= MAX_ICOSPHERE_LEVEL):
        raise DomainError(f"icosphere level must be in [0, {MAX_ICOSPHERE_LEVEL}]")
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    raw = [
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [_normalize(p, scale) for p in raw]
    for _ in range(level):
        midpoint: dict[tuple[int, int], int] = {}

        def mid(a: int, b: int) -> int:
            key = (min(a, b), max(a, b))
            if key not in midpoint:
                pa, pb = verts[a], verts[b]
                m = tuple((x + y) / 2.0 for x, y in zip(pa, pb))
                verts.append(_normalize(m, scale))
                midpoint[key] = len(verts) - 1
            return midpoint[key]

        new_faces = []
        for (a, b, c) in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
        faces = new_faces
    return MetricComplex(
        complex=SimplicialComplex.from_simplices(faces, n_vertices=len(verts)),
        coords=tuple(verts),
    )


def prism(n: int = 6, levels: int = 1, scale: float = 1.0) -> MetricComplex:
    """Open cylinder: n-gon rings at heights 0..levels, quads split in two.

    The radial field is the vertex height, so the prism doubles as a model
    neck for radial contraction.
    """
    _check_scale(scale)
    _check_polygon(n)
    if not (1 <= levels <= 32):
        raise DomainError("prism levels must be in [1, 32]")
    coords = []
    radial = []
    for j in range(levels + 1):
        for i in range(n):
            theta = 2.0 * math.pi * i / n
            coords.append((scale * math.cos(theta), scale * math.sin(theta), scale * j))
            radial.append(scale * j)
    faces = []
    for j in range(levels):
        faces += _band(n, j * n, (j + 1) * n)
    return MetricComplex(
        complex=SimplicialComplex.from_simplices(faces, n_vertices=len(coords)),
        coords=tuple(coords),
        radial=tuple(radial),
    )


def disk(n: int = 12, rings: int = 3, scale: float = 1.0) -> MetricComplex:
    """Flat triangulated disk of radius scale: center fan plus ring quads."""
    _check_scale(scale)
    _check_polygon(n)
    if not (1 <= rings <= 32):
        raise DomainError("disk rings must be in [1, 32]")
    coords = [(0.0, 0.0)]
    for j in range(1, rings + 1):
        r = scale * j / rings
        for i in range(n):
            theta = 2.0 * math.pi * i / n
            coords.append((r * math.cos(theta), r * math.sin(theta)))
    # ring j (from 1) starts at vertex 1 + (j - 1) * n
    faces = _fan(n, 0, 1)
    for j in range(1, rings):
        faces += _band(n, 1 + (j - 1) * n, 1 + j * n)
    return MetricComplex(
        complex=SimplicialComplex.from_simplices(faces, n_vertices=len(coords)),
        coords=tuple(coords),
    )


def capped_prism(n: int = 6, neck_levels: int = 2, scale: float = 1.0) -> MetricComplex:
    """Sphere-like body+neck composite: disk caps joined by a prism band.

    Vertices of the bottom cap (apex plus bottom ring) are labeled
    ``body:0``, the top cap ``body:1``, and the intermediate rings
    ``neck:0``.  The radial field is the height, so neck contraction pushes
    cycles down into ``body:0``.
    """
    _check_scale(scale)
    _check_polygon(n)
    if not (2 <= neck_levels <= 16):
        # with fewer than two bands the caps would touch with no neck between
        raise DomainError("neck_levels must be in [2, 16]")
    coords = []
    radial = []
    region = []
    # bottom apex + rings 0..neck_levels + top apex
    coords.append((0.0, 0.0, -scale))
    radial.append(-scale)
    region.append("body:0")
    for j in range(neck_levels + 1):
        for i in range(n):
            theta = 2.0 * math.pi * i / n
            coords.append((scale * math.cos(theta), scale * math.sin(theta), scale * j))
            radial.append(scale * j)
            if j == 0:
                region.append("body:0")
            elif j == neck_levels:
                region.append("body:1")
            else:
                region.append("neck:0")
    top_apex = len(coords)
    coords.append((0.0, 0.0, scale * neck_levels + scale))
    radial.append(scale * neck_levels + scale)
    region.append("body:1")
    # ring j (from 0) starts at vertex 1 + j * n
    faces = _fan(n, 0, 1)
    for j in range(neck_levels):
        faces += _band(n, 1 + j * n, 1 + (j + 1) * n)
    faces += _fan(n, top_apex, 1 + neck_levels * n)
    return MetricComplex(
        complex=SimplicialComplex.from_simplices(faces, n_vertices=len(coords)),
        coords=tuple(coords),
        radial=tuple(radial),
        region=tuple(region),
    )


def _fan(n: int, apex: int, ring: int) -> list[tuple[int, int, int]]:
    """Triangles joining ``apex`` to the n-gon ring of vertices ring..ring+n-1."""
    return [(apex, ring + i, ring + (i + 1) % n) for i in range(n)]


def _band(n: int, lower: int, upper: int) -> list[tuple[int, int, int]]:
    """Triangles of the band between the n-gon rings starting at vertices
    ``lower`` and ``upper``, each quad split along the same diagonal."""
    faces = []
    for i in range(n):
        a, b = lower + i, lower + (i + 1) % n
        c, d = upper + (i + 1) % n, upper + i
        faces += [(a, b, c), (a, c, d)]
    return faces


def _normalize(p, scale: float):
    norm = math.sqrt(sum(x * x for x in p))
    return tuple(scale * x / norm for x in p)


def _check_scale(scale: float):
    if not scale > 0:
        raise DomainError("scale must be positive")


def _check_polygon(n: int):
    if not (3 <= n <= MAX_POLYGON):
        raise DomainError(f"polygon order must be in [3, {MAX_POLYGON}]")
