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
import random

import pytest

from fillbound.chains import Chain
from fillbound.cli import main
from fillbound.fileio import save_chain, save_space
from fillbound.shapes import capped_prism, icosphere, octahedron

SPACES = {
    "capped_prism": (lambda: capped_prism(6, 2, 1.0), "1.2"),
    "octahedron": (lambda: octahedron(1.0), "0.8"),
    "icosphere1": (lambda: icosphere(1, 1.0), "0.8"),
    "icosphere2": (lambda: icosphere(2, 1.0), "0.8"),
}

FILL_DIGESTS = {
    ("capped_prism", 0):
        "cb10adc7e98544254b164ffc1ce45dec4fc354f67c2cfcfcb30daee58c9e465e",
    ("capped_prism", 1):
        "e139e3775748dece5f61d468c21dad641366904ba300a83d879ae19bda73b60d",
    ("capped_prism", 2):
        "e25193ffaee52c204893c3a897705b058494ea29fcd531f7d2324b5ef90d0cd7",
    ("capped_prism", 3):
        "0855e226f63c8a3afd09fbb2ee231e9a0b2d802068a9ff9b3cc6c13c4e0dfd8c",
    ("icosphere1", 0):
        "1ecff0f919522f925acab78268af0c26b6fe64c4602c98d264f3c4830b90d09e",
    ("icosphere1", 1):
        "d792e8ec92f557450f9d7844f7c1a35384eec42871fc49457f6ba8959691c5b8",
    ("icosphere1", 2):
        "db00e4008278aefb4453fefc7488c5bcd9f106ac4d67f24148a881a9dda59b09",
    ("icosphere1", 3):
        "c7fae777049d2507231824772e7de2ccf0bb389351d3fe45b5cae4f85f7ff705",
    # the nerve's boundary kernel has dimension 298 here, so these fills take
    # the greedy max-norm reduction, which changes each Smith solution
    ("icosphere2", 0):
        "199b53eebc3b64e0ef570ef2549bd00e0035ed07da0ab8047eb245703d3de41b",
    ("icosphere2", 6):
        "da169afa0cb1f470b35c06fe7c03ce66d3252733099514ec8d95307a5a1add3e",
    ("icosphere2", 15):
        "6ed0c2e4859a450827978508f58a6dd8e191928e625b29a256bc095398b93806",
    ("octahedron", 0):
        "883348a436267c6f58872073226db6561159958ce7a47f25ce652fddb4b32c97",
    ("octahedron", 1):
        "e6c931670711da1cb98e083fe39451d5b1777fdaf3e9bae51c7fb0cd0af75f80",
    ("octahedron", 2):
        "dad091d8e5d7d1da0fc0f8a937734c53dc056ae4662b3f4ae1dc1f5f5273c191",
    ("octahedron", 4):
        "19acd649eae2841e5dc93aa8bd85c6824ecd1d7c1cf867a15e55640bcc1dd840",
}

HF1_DIGEST = "2a4a8c8b8b107074163d3af107f80cb727eb33fd629dc6fb3628044fb1aab138"

# capped_prism(6, 2): 41 cycles, each filled by min_mass_fill's branch and bound
HF1_CAPPED_DIGEST = "3c977976385e62cea0c7f6e5e396f22d9f385a5cc657ac4f10cea453ac600471"


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
    monkeypatch.delenv("FILLBOUND_THREADS", raising=False)
    return tmp_path


@pytest.mark.parametrize("name,seed", sorted(FILL_DIGESTS))
def test_fill_report_byte_identical(workdir, name, seed):
    make, radius = SPACES[name]
    space = make()
    save_space("space.json", space)
    save_chain("cycle.json", space, seeded_cycle(space, seed))
    code = main(["fill", "--space", "space.json", "--cycle", "cycle.json",
                 "--radius", radius, "--out", "report.json"])
    assert code == 0
    got = digest(workdir / "report.json")
    print(f"digest fill {name} {seed} {got}")
    assert got == FILL_DIGESTS[(name, seed)]


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
