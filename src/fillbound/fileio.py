"""File formats: space and chain documents, canonical JSON, atomic writes.

Spaces and chains are JSON documents.  Chain coefficients are decimal
strings so arbitrary-precision integers survive any JSON parser.  The
canonical serialization (sorted keys, fixed float formatting with 17
significant digits, sorted simplices) is byte-stable under parse/serialize
round trips, which makes reports reproducible byte-for-byte.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
import tempfile
from typing import Optional

from .chains import Chain, SimplicialComplex, chain_from_simplices
from .errors import StructuralError
from .geom import MetricComplex


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise StructuralError("non-finite float in document")
    return format(float(x), ".17g")


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, floats at 17 significant digits."""
    pieces: list[str] = []
    _write(obj, pieces)
    return "".join(pieces)


def _write(obj, out: list[str]):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        first = True
        for key in sorted(obj):
            if not isinstance(key, str):
                raise StructuralError("document keys must be strings")
            if not first:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _write(obj[key], out)
            first = False
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _write(item, out)
        out.append("]")
    else:
        raise StructuralError(f"cannot serialize {type(obj).__name__}")


def write_atomic(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fillbound-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# space documents


def space_to_dict(space: MetricComplex, metadata: Optional[dict] = None) -> dict:
    k = space.complex
    doc = {
        "ambient_dim": len(space.coords[0]),
        "vertices": [list(p) for p in space.coords],
        "triangles": [list(t) for t in k.simplices(2)],
        "edges": [list(e) for e in k.simplices(1)],
        "metadata": metadata or {},
    }
    if space.radial is not None:
        doc["radial"] = list(space.radial)
    if space.region is not None:
        doc["region"] = list(space.region)
    return doc


def _expect(x, kind: type, what: str):
    """x if its type is exactly ``kind`` (so a bool is no integer)."""
    if type(x) is not kind:
        raise StructuralError(f"{what} must be {kind.__name__}, got {reprlib.repr(x)}")
    return x


def _number(x, what: str) -> float:
    if type(x) not in (int, float):
        raise StructuralError(f"{what} must be a number, got {reprlib.repr(x)}")
    try:
        return float(x)
    except OverflowError:
        raise StructuralError(f"{what} {reprlib.repr(x)} is beyond binary64 range") from None


def _simplex(x, what: str) -> tuple[int, ...]:
    return tuple(_expect(v, int, f"{what} vertex id") for v in _expect(x, list, what))


def _read_json(path: str):
    """Parse a JSON file; text that is not UTF-8 JSON is a malformed document."""
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as err:
            raise StructuralError(f"{path} is not a JSON document: {err}") from None


def space_from_dict(doc: dict) -> MetricComplex:
    if not isinstance(doc, dict):
        raise StructuralError("space document must be a JSON object")
    ambient = _expect(doc.get("ambient_dim"), int, "ambient_dim")
    vertices = _expect(doc.get("vertices"), list, "vertices")
    if not vertices:
        raise StructuralError("space needs a nonempty vertex list")
    coords = []
    for i, row in enumerate(vertices):
        if not isinstance(row, list) or len(row) != ambient:
            raise StructuralError(f"vertex {i} does not have {ambient} coordinates")
        coords.append(tuple(_number(x, f"vertex {i} coordinate") for x in row))
    simplices = [_simplex(t, "triangle") for t in _expect(doc.get("triangles", []), list, "triangles")]
    simplices += [_simplex(e, "edge") for e in _expect(doc.get("edges", []), list, "edges")]
    if not simplices:
        raise StructuralError("space has no edges or triangles")
    complex = SimplicialComplex.from_simplices(simplices, n_vertices=len(coords))
    radial = doc.get("radial")
    if radial is not None:
        radial = tuple(_number(x, "radial value") for x in _expect(radial, list, "radial"))
    region = doc.get("region")
    if region is not None:
        region = tuple(_expect(x, str, "region label") for x in _expect(region, list, "region"))
    return MetricComplex(complex=complex, coords=tuple(coords), radial=radial, region=region)


def load_space(path: str) -> MetricComplex:
    return space_from_dict(_read_json(path))


def save_space(path: str, space: MetricComplex, metadata: Optional[dict] = None):
    write_atomic(path, canonical_json(space_to_dict(space, metadata)) + "\n")


# ---------------------------------------------------------------------------
# chain documents


def chain_to_dict(space: MetricComplex, chain: Chain) -> dict:
    k = space.complex
    entries = []
    for idx, coeff in sorted(chain.items()):
        simplex = k.simplices(chain.dim)[idx]
        entries.append([list(simplex), str(coeff)])
    return {"dim": chain.dim, "entries": entries}


def chain_from_dict(space: MetricComplex, doc: dict) -> Chain:
    if not isinstance(doc, dict):
        raise StructuralError("chain document must be a JSON object")
    dim = _expect(doc.get("dim"), int, "chain dim")
    terms = []
    for item in _expect(doc.get("entries"), list, "chain entries"):
        if not (isinstance(item, list) and len(item) == 2):
            raise StructuralError(f"malformed chain entry {reprlib.repr(item)}")
        verts, coeff_str = item
        if type(coeff_str) not in (int, str):
            raise StructuralError(f"bad coefficient {reprlib.repr(coeff_str)}")
        try:
            coeff = int(coeff_str)
        except ValueError:
            raise StructuralError(f"bad coefficient {reprlib.repr(coeff_str)}") from None
        if coeff == 0:
            raise StructuralError("chain entries must have nonzero coefficients")
        terms.append((_simplex(verts, "chain entry"), coeff))
    return chain_from_simplices(space.complex, dim, terms)


def load_chain(path: str, space: MetricComplex) -> Chain:
    return chain_from_dict(space, _read_json(path))


def save_chain(path: str, space: MetricComplex, chain: Chain):
    write_atomic(path, canonical_json(chain_to_dict(space, chain)) + "\n")
