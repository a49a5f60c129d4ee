"""Pinned digests of canonical ``fill`` and ``hf1`` reports.

The exact paths (Smith solves, coset searches, minimum-mass fills) must give
byte-identical reports across refactors.  Each case writes its space and
cycle documents under fixed relative names, because reports echo the paths,
runs the CLI in-process and compares the sha256 of the report bytes with a
digest recorded at an earlier commit, before the change under test landed.

To re-derive a digest after an intended change of output, run this file with
``-s`` and read the ``digest`` lines.
"""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import fillbound
from fillbound.chains import Chain, SimplicialComplex
from fillbound.cli import main
from fillbound.fileio import save_chain, save_space
from fillbound.geom import MetricComplex
from fillbound.shapes import capped_prism, icosphere, octahedron

from test_geom import tall_composite


def pinched_octahedra() -> MetricComplex:
    """Two unit octahedra, the second at (2 - x, y, z): they meet only at
    vertex 0, (1, 0, 0), and the boundary kernel has two disjoint columns."""
    first = octahedron(1.0)
    relabel = [0] + list(range(6, 11))
    faces = list(first.complex.simplices(2)) + [
        tuple(sorted(relabel[v] for v in face)) for face in first.complex.simplices(2)]
    second = [(2.0 - x, y, z) for x, y, z in first.coords[1:]]
    return MetricComplex(complex=SimplicialComplex.from_simplices(faces),
                         coords=first.coords + tuple(second))


def octahedra_sharing_a_face() -> MetricComplex:
    """Two unit octahedra that share face (0, 2, 4), the second the mirror
    image of the first through that face's plane x + y + z = 1.  The two
    fundamental classes of the boundary kernel overlap on the shared face in
    every basis, so each minimum-mass fill runs ``intlin.coset_min``."""
    first = octahedron(1.0)
    relabel = [0, 6, 2, 7, 4, 8]
    faces = list(first.complex.simplices(2)) + [
        tuple(sorted(relabel[v] for v in face)) for face in first.complex.simplices(2)
        if face != (0, 2, 4)]
    mirrored = []
    for v in (1, 3, 5):
        p = first.coords[v]
        d = 2 * (sum(p) - 1) / 3
        mirrored.append(tuple(x - d for x in p))
    return MetricComplex(complex=SimplicialComplex.from_simplices(faces),
                         coords=first.coords + tuple(mirrored))


SPACES = {
    "capped_prism": (lambda: capped_prism(6, 2, 1.0), "1.2"),
    "octahedron": (lambda: octahedron(1.0), "0.8"),
    "icosphere1": (lambda: icosphere(1, 1.0), "0.8"),
    "icosphere2": (lambda: icosphere(2, 1.0), "0.8"),
    "pinched_octahedra": (pinched_octahedra, "0.8"),
    "tall_composite": (lambda: tall_composite()[0], "1.2"),
}

FILL_DIGESTS = {
    ("capped_prism", 0):
        "a35ce852cef895cc042a93e96690d9f6eb25f54b57db2da661065b53c8853d9b",
    ("capped_prism", 1):
        "932105d310ec7552c85d2a0d238c4b1442a3364eeedc5025529478f4bbc16c05",
    ("capped_prism", 2):
        "464b24e8cfd4052a97e6642198bd604cde3f9496cc56fafcd3b8cc407d1dbfed",
    ("capped_prism", 3):
        "38710015d148f107c597981bfc52e3b792057b9c9eb81d0e749e250d52600cb6",
    ("icosphere1", 0):
        "c3d7063c20d6d6fe24ff05eb7d733994f548e2a2f27cb36cce92d19af667aa11",
    ("icosphere1", 1):
        "1d4b7bb3c1b119b827e2b921c17e0ba41790d59381b21343beb9a98d90c9ecaf",
    ("icosphere1", 2):
        "55b458aa86e328af0a7fe9580c705cd4e2d6a88849f05c1919253bbdf4518f6d",
    ("icosphere1", 3):
        "2768ea75babcb883106a526a89e8c8718b6ad5d866248a47d6272ace58de2370",
    # the nerve's boundary kernel has dimension 298 here, so these fills take
    # the greedy max-norm reduction, which changes each Smith solution
    ("icosphere2", 0):
        "2a08e0896586b5744ee3741c89b0e4bd51aa6e0d7e95e1fecd4522947a11d4a2",
    ("icosphere2", 6):
        "3012232f5b4295628da78e4f7be9381aa7241d81e7317f6c578ce8277f0621ae",
    ("icosphere2", 15):
        "624bda0a90a13e583559d32f898f2a07de7d0883034278f03d0b9318081fb3e3",
    ("octahedron", 0):
        "327da5c2a571a0b86c8de5feff4290a3d61c3a52a1c432dc1f9735c30212a7a3",
    ("octahedron", 1):
        "48bff8ec878ec69e32bef56617bb9b1753e53862930a3e0e00a325f6b08a128a",
    ("octahedron", 2):
        "ee787bc6f1eb253712ca512cd41359c636a659d4db767fc2fc2174619e6b12ae",
    ("octahedron", 4):
        "eba8b1c6aff5d7b82f391539dcd683f7916e1584f882884f125225d41ef9c83b",
    # three bodies and two necks: the cycle decomposes into both necks, so
    # E0 sums two contractions, and it reaches E2
    ("tall_composite", 0):
        "b6cdadf39cc5bdef1c1194a2f4355e00b3ccb8b9091cd45b04c42e2628e713b1",
}

HF1_DIGEST = "e32036e7a0ba3109b6781005d70a847f4fa4e11c6041df9b5faf077d62b755b1"

# capped_prism(6, 2): 41 cycles, each filled along the fundamental class
HF1_CAPPED_DIGEST = "9616bc3d30bc9f061eb76d13e4aebcc6ca62b9e8fcf4f30da7fe8be2e9771bcd"

# closed surfaces: every cycle is filled along the fundamental classes, one
# column per sphere, with --l-max 3.0 --steps 6 --cycle-budget 150
HF1_SURFACE_DIGESTS = {
    "octahedron": "76d7466a79579f8a5813f1cc0baf3e26a0a680923c50ab7a6a6e088cfc7798f2",
    "icosphere2": "1317d755a4fd39c929c940c1aee0edd6b195f89c6b137ae59d4a31888aa1cba9",
    "pinched_octahedra": "09c48573863fa2722d0a391a2606a19fb94ca546119ce3287633b00799343dc5",
}

# two octahedra sharing a face: kernel columns that overlap, so every fill is
# a coset_min search (165 of them), with --l-max 9.0 --steps 6
# --cycle-budget 150: every edge is sqrt(2) long, so a triangle is 4.24
HF1_SHARED_FACE_DIGEST = "00110855d53d6af451fd48fcd10aab1d26b6660abf67a5d28d3792ca5d71759c"


def seeded_cycle(space, seed: int) -> Chain:
    """Sum of 1-3 signed fundamental cycles of the BFS tree rooted at 0."""
    k = space.complex
    edges = k.simplices(1)
    nbrs = {v: [] for v in range(k.n_vertices)}
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    parent = {0: None}
    order = [0]
    for x in order:
        for y in sorted(nbrs[x]):
            if y not in parent:
                parent[y] = x
                order.append(y)
    tree = {tuple(sorted((y, p))) for y, p in parent.items() if p is not None}
    chords = [e for e in edges if e not in tree]

    def to_root(x):
        path = [x]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return path

    rng = random.Random(seed)
    acc: dict[int, int] = {}
    for _ in range(rng.randint(1, 3)):
        u, v = rng.choice(chords)
        sign = rng.choice((1, -1))
        # closed walk u -> v -> root -> u
        walk = [u] + to_root(v) + list(reversed(to_root(u)))[1:]
        for a, b in zip(walk, walk[1:]):
            idx = k.index_of(1, (min(a, b), max(a, b)))
            acc[idx] = acc.get(idx, 0) + (sign if a < b else -sign)
    return Chain(1, acc)


def digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def fill_args(name, seed) -> list[str]:
    """Write the space and cycle documents of a fill case; its CLI arguments."""
    make, radius = SPACES[name]
    space = make()
    save_space("space.json", space)
    save_chain("cycle.json", space, seeded_cycle(space, seed))
    return ["fill", "--space", "space.json", "--cycle", "cycle.json",
            "--radius", radius, "--out", "report.json"]


@pytest.mark.parametrize("name,seed", sorted(FILL_DIGESTS))
def test_fill_report_byte_identical(workdir, name, seed):
    code = main(fill_args(name, seed))
    assert code == 0
    got = digest(workdir / "report.json")
    print(f"digest fill {name} {seed} {got}")
    assert got == FILL_DIGESTS[(name, seed)]


def test_fill_report_byte_identical_under_optimize(workdir):
    # every check raises instead of asserting, so python -O runs them all
    package_root = str(Path(fillbound.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    args = fill_args("capped_prism", 0)
    subprocess.run([sys.executable, "-O", "-m", "fillbound.cli", *args], check=True,
                   env=dict(os.environ, PYTHONPATH=path))
    assert digest(workdir / "report.json") == FILL_DIGESTS[("capped_prism", 0)]


def test_hf1_report_byte_identical(workdir):
    save_space("space.json", icosphere(1, 1.0))
    code = main(["hf1", "--space", "space.json", "--l-max", "2.5", "--steps", "5",
                 "--cycle-budget", "60", "--out", "hf1.json"])
    assert code == 0
    got = digest(workdir / "hf1.json")
    print(f"digest hf1 {got}")
    assert got == HF1_DIGEST


def test_hf1_capped_prism_report_byte_identical(workdir):
    save_space("space.json", capped_prism(6, 2, 1.0))
    code = main(["hf1", "--space", "space.json", "--l-max", "4.0", "--steps", "5",
                 "--cycle-budget", "60", "--out", "hf1.json"])
    assert code == 0
    got = digest(workdir / "hf1.json")
    print(f"digest hf1 capped_prism {got}")
    assert got == HF1_CAPPED_DIGEST


@pytest.mark.parametrize("name", sorted(HF1_SURFACE_DIGESTS))
def test_hf1_surface_report_byte_identical(workdir, name):
    save_space("space.json", SPACES[name][0]())
    code = main(["hf1", "--space", "space.json", "--l-max", "3.0", "--steps", "6",
                 "--cycle-budget", "150", "--out", "hf1.json"])
    assert code == 0
    got = digest(workdir / "hf1.json")
    print(f"digest hf1 {name} {got}")
    assert got == HF1_SURFACE_DIGESTS[name]


def test_hf1_shared_face_report_byte_identical(workdir):
    save_space("space.json", octahedra_sharing_a_face())
    code = main(["hf1", "--space", "space.json", "--l-max", "9.0", "--steps", "6",
                 "--cycle-budget", "150", "--out", "hf1.json"])
    assert code == 0
    got = digest(workdir / "hf1.json")
    print(f"digest hf1 shared face {got}")
    assert got == HF1_SHARED_FACE_DIGEST
