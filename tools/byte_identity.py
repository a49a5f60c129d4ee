"""Compare the CLI's output bytes between two source trees of fillbound.

    python tools/byte_identity.py PARENT CHANGE SEED...

PARENT and CHANGE are checkouts (each with ``src/``, ``perfbench/`` and
``tests/``), for instance two ``git archive`` copies.  For each seed, the
PARENT tree writes the input documents: twelve spaces (the octahedron,
icosphere(1), icosphere(2), icosphere(3), capped_prism(6, 2), the golden
tests' two unit octahedra pinched at a vertex and sharing a face,
``tests/test_geom.tall_composite``, three bodies joined by two necks, the
flat disk, whose boundary kernel is empty, and three spaces whose H1 is not
trivial, so that ``fill`` and ``hf1`` refuse them: the annulus prism(6, 1),
by rank, and by torsion the 6-vertex RP^2 of ``tests/test_filling.RP2`` on
points of the unit sphere, a 2-pseudomanifold, and the same RP^2 with a
fin, one more triangle on its edge (0, 1), which then lies in three), three
``perfbench/workloads.random_cycle`` cycles on each, and a copy of each space
with its vertices shuffled by the seed, as ``perfbench/workloads.Hf1Ico2``
relabels icosphere(2) (complex and coordinates only, which is what ``hf1``
reads).  Then each tree, in its own copy of the inputs and a fresh
interpreter per command, runs ``fill --chain-out`` on every cycle, ``hf1`` on
every space and every shuffled copy, and ``bfrt-check --verbose`` once: 61
commands and 160 files per seed.  The shuffled copies give each seed other
cycle families and Smith pivots in ``hf1``.  icosphere(3) brings the largest
solves and fills, on 1,920 edges and 1,280 triangles.  Every command's exit
code, stdout and stderr, and the bytes of every file either tree leaves
behind, must be equal.  The PARENT tree, which also writes the inputs, runs
under PYTHONHASHSEED=0 and the CHANGE tree under PYTHONHASHSEED=1, so an
output that depends on the order of string hashing differs on every run
or on none, not now and then.  Each difference is printed, and the exit
status is 1 if there is any, else 0.  Under a JSON file that differs, each key path whose
values differ is printed too, with the distance in ulps of two numbers that
differ.  Each seed's summary line also gives the line count of each tree's
``src/fillbound/*.py``, parent first.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

# (space name, cover radius)
SPACES = [("octahedron", "0.8"), ("icosphere1", "0.8"), ("icosphere2", "0.8"),
          ("icosphere3", "0.8"), ("capped_prism", "1.2"), ("pinched_octahedra", "0.8"),
          ("octahedra_sharing_a_face", "0.8"), ("tall_composite", "1.2"), ("disk", "0.5"),
          ("annulus", "0.8"), ("rp2", "0.8"), ("rp2_with_fin", "0.8")]
CYCLES_PER_SPACE = 3

WRITE_INPUTS = """
import random, sys
from fillbound import fileio, shapes
from fillbound.chains import SimplicialComplex
from fillbound.geom import MetricComplex
from test_filling import RP2
from test_geom import tall_composite
from test_golden import octahedra_sharing_a_face, pinched_octahedra
from workloads import random_cycle

seed, n_cycles = sys.argv[1], int(sys.argv[2])
sphere_points = shapes.icosphere(0).coords  # twelve distinct points of the unit sphere
with_fin = SimplicialComplex.from_simplices(RP2.simplices(2) + ((0, 1, 6),))
spaces = {
    "octahedron": shapes.octahedron(1.0),
    "icosphere1": shapes.icosphere(1),
    "icosphere2": shapes.icosphere(2),
    "icosphere3": shapes.icosphere(3),
    "capped_prism": shapes.capped_prism(6, 2, 1.0),
    "pinched_octahedra": pinched_octahedra(),
    "octahedra_sharing_a_face": octahedra_sharing_a_face(),
    "tall_composite": tall_composite()[0],
    "disk": shapes.disk(),
    "annulus": shapes.prism(6, 1),
    "rp2": MetricComplex(complex=RP2, coords=sphere_points[:6]),
    "rp2_with_fin": MetricComplex(complex=with_fin, coords=sphere_points[:7]),
}


def shuffled(space, rng):  # the same complex and coordinates, vertex v renamed perm[v]
    n = space.complex.n_vertices
    perm = list(range(n))
    rng.shuffle(perm)
    coords = [None] * n
    for v in range(n):
        coords[perm[v]] = space.coords[v]
    simplices = [tuple(perm[v] for v in s) for k in (1, 2) for s in space.complex.simplices(k)]
    return MetricComplex(complex=SimplicialComplex.from_simplices(simplices, n_vertices=n),
                         coords=tuple(coords))


for name in sys.argv[3:]:
    space = spaces[name]
    fileio.save_space(f"{name}.json", space)
    rng = random.Random(f"{name}/{seed}")
    for i in range(n_cycles):
        fileio.save_chain(f"{name}_cycle{i}.json", space, random_cycle(rng, space, rng.randint(1, 3)))
    fileio.save_space(f"{name}_shuffled.json", shuffled(space, random.Random(f"shuffle/{name}/{seed}")))
"""


def commands(seed: str) -> list[list[str]]:
    out = []
    for name, radius in SPACES:
        for i in range(CYCLES_PER_SPACE):
            out.append(["fill", "--space", f"{name}.json", "--cycle", f"{name}_cycle{i}.json",
                        "--radius", radius, "--out", f"fill_{name}_{i}.json",
                        "--chain-out", f"chain_{name}_{i}.json"])
        for space in (name, f"{name}_shuffled"):
            out.append(["hf1", "--space", f"{space}.json", "--l-max", "9.0", "--steps", "6",
                        "--cycle-budget", "90", "--out", f"hf1_{space}.json",
                        "--csv", f"hf1_{space}.csv"])
    out.append(["bfrt-check", "--trials", "40", "--seed", seed, "--verbose", "--out", "bfrt.json"])
    return out


def run(tree: Path, args: list[str], cwd: Path, pythonpath: list[str],
        hash_seed: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(tree / p) for p in pythonpath),
               PYTHONHASHSEED=hash_seed)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True)


def files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _ordinal(x: float) -> int:
    """x's place in the order of binary64 values, so that adjacent floats
    are one apart and -0.0 and 0.0 share a place."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


_ABSENT = object()


def _show(x) -> str:
    return "(absent)" if x is _ABSENT else json.dumps(x)[:60]


def field_diffs(a, b, path: str = "") -> list[str]:
    """The key paths at which two parsed JSON values differ.  Two numbers
    are compared as binary64, since a canonical float such as 1.0 reads
    back as the int 1, and their line gives their distance in ulps."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [line for key in sorted(a.keys() | b.keys())
                for line in field_diffs(a.get(key, _ABSENT), b.get(key, _ABSENT),
                                         f"{path}.{key}" if path else key)]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [line for i, (x, y) in enumerate(zip(a, b))
                for line in field_diffs(x, y, f"{path}[{i}]")]
    if a == b and type(a) is type(b):
        return []
    if _is_number(a) and _is_number(b) and any(isinstance(x, float) for x in (a, b)):
        x, y = float(a), float(b)
        if x == y:
            return []
        if math.isfinite(x) and math.isfinite(y):
            return [f"{path}: {x!r} -> {y!r} ({abs(_ordinal(x) - _ordinal(y))} ulps)"]
    return [f"{path}: {_show(a)} -> {_show(b)}"]


def src_lines(tree: Path) -> int:
    """The number of lines (newlines, as ``wc -l`` counts) in ``src/fillbound/*.py``."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "fillbound").glob("*.py"))


def compare_seed(parent: Path, change: Path, seed: str, work: Path) -> list[str]:
    inputs = work / "inputs"
    inputs.mkdir()
    made = run(parent, ["-c", WRITE_INPUTS, seed, str(CYCLES_PER_SPACE), *(n for n, _ in SPACES)],
               inputs, ["src", "perfbench", "tests"], "0")
    if made.returncode:
        raise SystemExit(f"writing the inputs failed:\n{made.stderr.decode()}")
    results = {}
    for side, tree, hash_seed in (("parent", parent, "0"), ("change", change, "1")):
        shutil.copytree(inputs, work / side)
        results[side] = [run(tree, ["-c", "from fillbound.cli import main; raise SystemExit(main())",
                                    *args], work / side, ["src"], hash_seed)
                         for args in commands(seed)]
    diffs = []
    for args, a, b in zip(commands(seed), results["parent"], results["change"]):
        for what in ("returncode", "stdout", "stderr"):
            if getattr(a, what) != getattr(b, what):
                diffs.append(f"seed {seed}: {what} of `{' '.join(args)}` differs")
    before, after = files(work / "parent"), files(work / "change")
    for name in sorted(before.keys() | after.keys()):
        if before.get(name) != after.get(name):
            diffs.append(f"seed {seed}: file {name} differs")
            if name.endswith(".json") and name in before and name in after:
                docs = [json.loads(side[name]) for side in (before, after)]
                diffs += [f"seed {seed}:   {line}" for line in field_diffs(*docs)]
    failed = sum(r.returncode != 0 for r in results["change"])
    print(f"seed {seed}: {len(results['change'])} commands ({failed} nonzero exits at the change), "
          f"{len(after)} files, {len(diffs)} differences, "
          f"src/fillbound {src_lines(parent)} -> {src_lines(change)} lines")
    return diffs


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print("usage: python tools/byte_identity.py PARENT CHANGE SEED...", file=sys.stderr)
        return 2
    parent, change = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    for tree in (parent, change):
        if not (tree / "src" / "fillbound").is_dir():
            print(f"{tree} is not a fillbound source tree", file=sys.stderr)
            return 2
    diffs = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in argv[2:]:
            work = Path(tmp) / seed
            work.mkdir()
            diffs += compare_seed(parent, change, seed, work)
    for line in diffs:
        print(line)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
