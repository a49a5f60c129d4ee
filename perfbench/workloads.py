"""The three benchmark workloads: inputs from a seed, set-up, op and output check.

Each workload class sets ``setups`` (set-ups in an untraced run), ``min_ops``
(the fewest ops a timed run makes, however slow the host) and
``nominal_op_s`` (sizes the fixed op count of a traced run).  Its objects have

- ``release(i)``: drop the objects that set-up ``i`` replaces.  It runs
  untimed before the set-up, so that peak memory holds one copy of them.
- ``setup(i)``: build or load the space and cover, plus one untimed warm-up
  op that fills the library's caches.  Set-up ``i`` starts from fresh
  objects, so every set-up pays the cold cost again.
- ``inputs()``: the endless, seeded stream of op inputs.
- ``op(inp)``: the timed operation; it returns what ``check`` needs.
- ``check(inp, out)``: exactness checks on the output, run outside the
  timed region; raises ``CheckFailed``.

Library calls go through module attributes (``geom.pipeline_fill``, not an
imported name), so the tracer's wrappers see them.
"""

from __future__ import annotations

import bisect
import itertools
import json
import os
import random
import shutil
import tempfile
from pathlib import Path

from fillbound import chains, cli, fileio, filling, geom, shapes

REL_TOL = 1e-9
OUT = Path(__file__).resolve().parent / "out"  # run outputs; git ignores it


class CheckFailed(Exception):
    """An output failed one of the benchmark's exactness checks."""


def _require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def random_cycle(rng: random.Random, space, parts: int):
    """Sum of ``parts`` fundamental cycles of a DFS spanning tree rooted at 0.

    Each part is the closed walk through one random non-tree edge and the
    tree paths of its endpoints to their meeting vertex.
    """
    k = space.complex
    adj = space.adjacency()
    parent = {0: None}
    stack = [0]
    while stack:
        v = stack.pop()
        for w, _ in adj[v]:
            if w not in parent:
                parent[w] = v
                stack.append(w)
    tree = {tuple(sorted((v, p))) for v, p in parent.items() if p is not None}
    non_tree = [e for e in k.simplices(1) if e not in tree]

    def path_to_root(x):
        out = [x]
        while parent[out[-1]] is not None:
            out.append(parent[out[-1]])
        return out

    total = chains.Chain.zero(1)
    for _ in range(parts):
        u, v = non_tree[rng.randrange(len(non_tree))]
        pu, pv = path_to_root(u), path_to_root(v)
        on_pv = set(pv)
        meet = next(x for x in pu if x in on_pv)
        walk = [v, u] + pu[1:pu.index(meet) + 1] + list(reversed(pv[1:pv.index(meet)]))
        total = total + geom.path_chain(k, walk + [v])
    return total


def check_fill(space, z, e, report, min_mass):
    """E fills z exactly, the certificate holds, and mass is at least optimal."""
    _require(chains.boundary(space.complex, e) == z, "boundary(E) != z")
    _require(report.boundary_verified, "report does not claim a verified boundary")
    if report.certificate is not None:
        _require(report.certificate.bounds_hold(), "coefficient certificate fails")
    check_masses(space.mass2(e), report.total_mass2, min_mass)


def check_masses(mass_e: float, total_mass2: float, min_mass: float):
    """min-mass cost <= mass2(E) <= total_mass2 = mass(E0) + mass(E1) + mass(E2).

    E0, E1 and E2 may cancel, so the reported total bounds mass2(E) from above.
    """
    _require(mass_e >= min_mass - REL_TOL * max(1.0, min_mass),
             "fill is lighter than the minimum-mass fill")
    _require(total_mass2 >= mass_e - REL_TOL * max(1.0, mass_e),
             "reported total_mass2 is below mass2(E)")


class FillIco2:
    """Warm ``pipeline_fill`` of seeded random cycles on icosphere(2)."""

    name = "fill_ico2"
    radius = 0.8
    setups = 5
    min_ops = 100  # so that ten samples lie beyond p90 on a slow host too
    nominal_op_s = 0.22
    # Support sizes that split the E2 cycles of a free draw into quarters
    # (sizes up to 14, 15-30, 31-41, 42 and more; from 1033 such cycles).
    # An E2 op's time grows with the size (correlation 0.79), so every run
    # gets the same number of E2 ops from each quarter.
    size_bounds = (14, 30, 41)

    def __init__(self, seed: int):
        self.seed = seed
        self.space = self.cover = None

    def release(self, i: int):
        self.space = self.cover = None

    def setup(self, i: int):
        space = shapes.icosphere(2)
        cover = geom.ball_cover(space, self.radius)
        # warm-up: a fixed cycle (the same for every seed) that reaches E2,
        # so the Smith forms of the space and of the nerve are cached
        rng = random.Random("fill_ico2/warm-up")
        while True:
            _, report = geom.pipeline_fill(space, cover, random_cycle(rng, space, 3))
            if report.certificate is not None:
                break
        self.space, self.cover = space, cover

    def inputs(self):
        """Seeded sums of 1-3 fundamental cycles, two of every three reaching E2.

        The library's own E1 projection (outside the timed region) tells
        whether a cycle reaches E2, so a change to that projection changes
        the input stream too.  E2 ops take about twice as long, so a fixed
        2/3 share keeps the median from jumping with the share a seed
        happens to draw.  The E2 ops cycle through the four quarters of
        ``size_bounds``, so a seed cannot draw mostly short or long ones.
        """
        rng = random.Random(f"fill_ico2/{self.seed}")
        graph = geom.geodesic_graph(self.space, self.cover)
        e2_ops = 0
        for i in itertools.count():
            want_e2 = i % 3 != 2
            while True:
                z = random_cycle(rng, self.space, rng.randint(1, 3))
                if want_e2 and bisect.bisect_left(self.size_bounds, len(z.support)) != e2_ops % 4:
                    continue
                c_graph, _, _ = geom.project_cycle_to_graph(self.space, self.cover, graph, z)
                if (not c_graph.is_zero()) == want_e2:
                    break
            e2_ops += want_e2
            yield i, z

    def op(self, inp):
        return geom.pipeline_fill(self.space, self.cover, inp[1])

    def check(self, inp, out):
        _, z = inp
        e, report = out
        _, min_mass = filling.min_mass_fill(self.space.complex, self.space.volumes, z)
        check_fill(self.space, z, e, report, min_mass)


class Hf1Ico2:
    """Warm ``hf1_profile`` on seeded vertex relabellings of icosphere(2).

    Set-up ``i`` builds relabelling ``i`` into slot ``i mod 3``, so the
    last three set-ups fill the slots.  Op ``j`` profiles slot ``j mod 3``,
    so each relabelling is profiled again and its result must repeat
    exactly.
    """

    name = "hf1_ico2"
    cycle_budget = 150
    # the labelling moves op time by up to 10% (it changes the fill of U),
    # so a run spreads its ops over several relabellings
    slots = 3
    setups = 2 * slots
    min_ops = 1
    nominal_op_s = 5.0

    def __init__(self, seed: int):
        self.seed = seed
        self.spaces: dict[int, tuple] = {}  # slot -> (space, grid)
        self._seen: dict[int, tuple] = {}
        self._counts = None

    def release(self, i: int):
        self.spaces.pop(i % self.slots, None)

    def setup(self, i: int):
        base = shapes.icosphere(2)
        n = base.complex.n_vertices
        perm = list(range(n))
        random.Random(f"hf1_ico2/{self.seed}/{i}").shuffle(perm)
        coords = [None] * n
        for v in range(n):
            coords[perm[v]] = base.coords[v]
        faces = [tuple(perm[v] for v in f) for f in base.complex.simplices(2)]
        space = geom.MetricComplex(
            complex=chains.SimplicialComplex.from_simplices(faces, n_vertices=n),
            coords=tuple(coords),
        )
        diameter = geom.skeleton_diameter(space)
        # warm-up: the H1 check caches the Smith form of the 2-boundary
        if not filling.h1_is_trivial(space.complex):
            raise CheckFailed("relabelled icosphere has nontrivial H1")
        self.spaces[i % self.slots] = (space, [0.0, 1.0, 2.0, 3.0, 2.0 * diameter])

    def inputs(self):
        keys = sorted(self.spaces)
        for j in itertools.count():
            yield j, keys[j % len(keys)]

    def op(self, inp):
        space, grid = self.spaces[inp[1]]
        return filling.hf1_profile(space.complex, space.volumes, grid,
                                   cycle_budget=self.cycle_budget)

    def check(self, inp, out):
        _, k = inp
        prof = out
        vals = [e for _, e in prof.samples]
        _require(vals == sorted(vals), "samples are not monotone")
        for l, e in prof.samples:
            _require(e <= prof.fitted_f1 * l + prof.fitted_f2 + REL_TOL,
                     "fitted line does not dominate the samples")
        at_2d = self.spaces[k][1][-1]
        hf = prof.estimate_at(at_2d)
        _require(filling.amin_upper_bound(hf, 4) == 60.0 * hf,
                 "amin_upper_bound(hf(2D), 4) != 60 hf(2D)")
        key = (prof.samples, prof.cycle_census, prof.fitted_f1, prof.fitted_f2)
        _require(self._seen.setdefault(k, key) == key,
                 "profile of a relabelling did not repeat")
        # the census counts cycles by mass, which no relabelling changes
        counts = [c for _, c in prof.cycle_census]
        if self._counts is None:
            self._counts = counts
        _require(counts == self._counts, "cycle census differs between relabellings")


class CliFillCapped:
    """Cold ``fillbound fill`` calls, in-process, on capped_prism(6, 2).

    The space and cycle documents are generated and written once, before
    the first set-up, so set-up time covers only the program's work.
    """

    name = "cli_fill_capped"
    radius = 1.2
    # enough distinct cycles that the median does not hang on a few of them
    n_cycles = 96
    # path classes (E0 swept some area, E2 ran) in a fixed pattern of 12,
    # close to the shares of a free draw (about 65, 20, 9 and 6%), so that
    # every seed gets the same mix of cheap and expensive paths
    pattern = ((True, True),) * 8 + ((True, False),) * 2 + ((False, True), (False, False))
    setups = 41  # each is one cold call plus a load and a cover, about 10 ms
    min_ops = 100
    nominal_op_s = 0.012

    def __init__(self, seed: int):
        self.seed = seed
        self._min_mass: dict[int, float] = {}
        # mkdtemp names have a fixed length, so report sizes repeat exactly
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=OUT)
        space = shapes.capped_prism(6, 2)
        cover = geom.ball_cover(space, self.radius)
        fileio.save_space(self._path("space.json"), space,
                          metadata={"shape": "capped_prism", "n": 6, "neck_levels": 2})
        # the warm-up cycle is the same for every seed and takes every path
        warm_up = self._draw(space, cover, "warm-up", {(True, True): 1})
        fileio.save_chain(self._path("warm-up.json"), space, warm_up[(True, True)][0])
        need = {cls: self.pattern.count(cls) * self.n_cycles // len(self.pattern)
                for cls in set(self.pattern)}
        pools = self._draw(space, cover, str(seed), need)
        self.cycles = [pools[cls].pop() for cls in
                       itertools.islice(itertools.cycle(self.pattern), self.n_cycles)]
        for c, z in enumerate(self.cycles):
            fileio.save_chain(self._path(f"cycle{c:02d}.json"), space, z)
        self.space = space

    @staticmethod
    def _draw(space, cover, stream: str, need: dict) -> dict:
        """``need[cls]`` seeded cycles of each path class ``cls``.

        A candidate's class is read from the report of one library fill,
        so a change to the E0 or E1 stages can change the input stream.
        """
        pools: dict[tuple, list] = {cls: [] for cls in need}
        rng = random.Random(f"cli_fill_capped/{stream}")
        while any(len(pools[cls]) < n for cls, n in need.items()):
            z = random_cycle(rng, space, rng.randint(1, 3))
            _, report = geom.pipeline_fill(space, cover, z)
            cls = (report.mass_e0 > 0, report.certificate is not None)
            if len(pools.get(cls, ())) < need.get(cls, 0):
                pools[cls].append(z)
        return pools

    def release(self, i: int):
        self.space = None

    def setup(self, i: int):
        # the program's cold start: load the space, cover it, and one call
        # that reaches every code path once (imports, parser construction)
        self.space = fileio.load_space(self._path("space.json"))
        geom.ball_cover(self.space, self.radius)
        self._call("warm-up.json")

    def close(self):
        if self.dir is not None:
            shutil.rmtree(self.dir)
            self.dir = None

    def _path(self, name):
        return os.path.relpath(os.path.join(self.dir, name))

    def _call(self, cycle_doc):
        return cli.main([
            "fill", "--space", self._path("space.json"),
            "--cycle", self._path(cycle_doc),
            "--radius", str(self.radius), "--out", self._path("report.json"),
        ])

    def inputs(self):
        for j in itertools.count():
            yield j, j % self.n_cycles

    def op(self, inp):
        return self._call(f"cycle{inp[1]:02d}.json")

    def check(self, inp, out):
        _, c = inp
        _require(out == cli.EXIT_OK, f"exit code {out}")
        with open(self._path("report.json")) as handle:
            doc = json.load(handle)
        os.unlink(self._path("report.json"))  # the next op must write its own
        z = self.cycles[c]
        e = fileio.chain_from_dict(self.space, doc["filling_chain"])
        rep = doc["report"]
        _require(chains.boundary(self.space.complex, e) == z, "boundary(E) != z")
        _require(rep["boundary_verified"] is True, "report does not claim a verified boundary")
        cert = rep["certificate"]
        if cert is not None:
            rebuilt = filling.FillCertificate(
                input_max_coeff=cert["input_max_coeff"],
                output_max_coeff=cert["output_max_coeff"],
                output_l1=cert["output_l1"],
                bound_max=cert["bound_max"],
                bound_l1=cert["bound_l1"],
                rank_used=cert["rank_used"],
                n_vertices=rep["nerve_vertices"],
                k=1,
            )
            _require(rebuilt.bounds_hold() and cert["bounds_hold"] is True,
                     "coefficient certificate fails")
        if c not in self._min_mass:
            self._min_mass[c] = filling.min_mass_fill(
                self.space.complex, self.space.volumes, z)[1]
        check_masses(self.space.mass2(e), rep["total_mass2"], self._min_mass[c])


WORKLOADS = {w.name: w for w in (FillIco2, Hf1Ico2, CliFillCapped)}
