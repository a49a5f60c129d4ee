import argparse
import ast
import importlib.util
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fillbound
from fillbound.chains import Chain, SimplicialComplex, boundary, chain_from_simplices
from fillbound.cli import build_parser, main
from fillbound.errors import StructuralError
from fillbound.fileio import (
    canonical_json,
    chain_from_dict,
    chain_to_dict,
    load_space,
    save_chain,
    save_space,
    space_from_dict,
    space_to_dict,
)
from fillbound.geom import MetricComplex
from fillbound.shapes import capped_prism, icosphere, octahedron, prism

from conftest import octahedron_necklace
from test_geom import tall_composite
from test_golden import octahedra_sharing_a_face

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    """The benchmark's workload module, for its seeded ``random_cycle``."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def octa_files(tmp_path):
    space = octahedron(1.0)
    space_path = tmp_path / "octa.json"
    save_space(str(space_path), space)
    loop = [0, 2, 1, 3]
    z = chain_from_simplices(
        space.complex, 1, [((loop[i], loop[(i + 1) % 4]), 1) for i in range(4)]
    )
    cycle_path = tmp_path / "equator.json"
    save_chain(str(cycle_path), space, z)
    return space, str(space_path), str(cycle_path)


class TestCanonicalJson:
    def test_sorted_keys_and_floats(self):
        text = canonical_json({"b": 1, "a": 0.1})
        assert text == '{"a":0.10000000000000001,"b":1}'

    def test_round_trip_idempotent(self):
        doc = {"x": [0.1, 0.2, 1.0 / 3.0], "n": 12345678901234567890123456789}
        once = canonical_json(doc)
        again = canonical_json(json.loads(once))
        assert once == again

    def test_non_finite_rejected(self):
        with pytest.raises(StructuralError):
            canonical_json({"x": float("nan")})
        with pytest.raises(StructuralError):
            canonical_json({"x": float("inf")})


class TestSpaceFile:
    def test_round_trip(self, tmp_path):
        space = capped_prism(6, 2, 1.0)
        path = tmp_path / "space.json"
        save_space(str(path), space)
        loaded = load_space(str(path))
        assert loaded.complex.simplices(2) == space.complex.simplices(2)
        assert loaded.coords == space.coords
        assert loaded.radial == space.radial
        assert loaded.region == space.region
        # canonical-form idempotence, byte for byte
        first = path.read_text()
        save_space(str(path), loaded)
        assert path.read_text() == first

    def test_region_error_independent_of_hash_seed(self, tmp_path):
        # capped_prism(6, 3) with its neck rings relabelled, so two necks touch
        doc = space_to_dict(capped_prism(6, 3))
        doc["region"][7:13] = ["neck:1"] * 6
        doc["region"][13:19] = ["neck:2"] * 6
        path = tmp_path / "space.json"
        path.write_text(canonical_json(doc))
        package_root = str(Path(fillbound.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
        runs = {
            subprocess.run([sys.executable, "-m", "fillbound.cli", "hf1", "--space", str(path),
                            "--l-max", "2"], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=pythonpath, PYTHONHASHSEED=str(seed)))
            .stderr for seed in range(6)
        }
        assert runs == {"error: neck neck:1 touches another neck\n"}

    def test_extra_edges(self):
        doc = {
            "ambient_dim": 2,
            "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            "triangles": [],
            "edges": [[0, 1], [1, 2]],
        }
        space = space_from_dict(doc)
        assert space.complex.n_simplices(1) == 2
        assert space.complex.dimension == 1

    def test_malformed(self):
        with pytest.raises(StructuralError):
            space_from_dict({"vertices": []})
        with pytest.raises(StructuralError):
            space_from_dict({"ambient_dim": 2, "vertices": [[0.0]], "triangles": []})


class TestChainFile:
    def test_big_coefficients_as_strings(self):
        space = octahedron(1.0)
        big = 10 ** 30 + 7
        z = Chain(2, {0: big, 3: -big})
        doc = chain_to_dict(space, z)
        assert doc["entries"][0][1] == str(big)
        back = chain_from_dict(space, doc)
        assert back == z

    def test_orientation_normalized(self):
        space = octahedron(1.0)
        doc = {"dim": 1, "entries": [[[2, 0], "1"]]}
        z = chain_from_dict(space, doc)
        assert z.get(space.complex.index_of(1, (0, 2))) == -1

    def test_unknown_simplex(self):
        space = octahedron(1.0)
        with pytest.raises(StructuralError):
            chain_from_dict(space, {"dim": 1, "entries": [[[0, 1], "1"]]})

    def test_zero_coefficient_rejected(self):
        space = octahedron(1.0)
        with pytest.raises(StructuralError):
            chain_from_dict(space, {"dim": 1, "entries": [[[0, 2], "0"]]})


class TestGen:
    @pytest.mark.parametrize(
        "shape,extra,verts,edges,faces",
        [
            ("octahedron", [], 6, 12, 8),
            ("tetra_boundary", [], 4, 6, 4),
            ("icosphere", ["--level", "1"], 42, 120, 80),
        ],
    )
    def test_counts(self, tmp_path, shape, extra, verts, edges, faces):
        out = tmp_path / "space.json"
        code = main(["gen", "--shape", shape, "--out", str(out)] + extra)
        assert code == 0
        space = load_space(str(out))
        assert space.complex.n_vertices == verts
        assert space.complex.n_simplices(1) == edges
        assert space.complex.n_simplices(2) == faces

    def test_area_underflow_exits_2(self, tmp_path, capsys):
        out = tmp_path / "tiny.json"
        assert main(["gen", "--shape", "octahedron", "--scale", "1e-170", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: area of triangle (0, 2, 4) underflows binary64\n"
        assert not out.exists()

    def test_out_of_range(self, tmp_path):
        code = main(
            ["gen", "--shape", "icosphere", "--level", "9", "--out", str(tmp_path / "x")]
        )
        assert code == 2

    def test_determinism(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["gen", "--shape", "icosphere", "--level", "2", "--out", str(a)]) == 0
        assert main(["gen", "--shape", "icosphere", "--level", "2", "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()


class TestFill:
    def test_octahedron_end_to_end(self, tmp_path, octa_files):
        space, space_path, cycle_path = octa_files
        out = tmp_path / "report.json"
        chain_out = tmp_path / "chain.json"
        code = main(
            [
                "fill",
                "--space", space_path,
                "--cycle", cycle_path,
                "--radius", "0.8",
                "--out", str(out),
                "--chain-out", str(chain_out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["report"]["boundary_verified"] is True
        assert report["report"]["total_mass2"] > 0
        # the written chain really fills the cycle
        filled = chain_from_dict(space, json.loads(chain_out.read_text()))
        z = chain_from_dict(space, json.loads(open(cycle_path).read()))
        assert boundary(space.complex, filled) == z

    def test_zero_cycle(self, tmp_path, octa_files):
        space, space_path, _ = octa_files
        cycle_path = tmp_path / "zero.json"
        save_chain(str(cycle_path), space, Chain.zero(1))
        out = tmp_path / "report.json"
        code = main(
            ["fill", "--space", space_path, "--cycle", cycle_path.as_posix(),
             "--radius", "0.8", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["report"]["total_mass2"] == 0

    def test_missing_edge_exits_2(self, tmp_path, octa_files):
        _, space_path, _ = octa_files
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 1, "entries": [[[0, 1], "1"]]}')
        code = main(
            ["fill", "--space", space_path, "--cycle", str(bad), "--radius", "0.8"]
        )
        assert code == 2

    def test_missing_file_exits_4(self, tmp_path, octa_files):
        _, space_path, _ = octa_files
        code = main(
            ["fill", "--space", space_path, "--cycle", str(tmp_path / "nope.json"),
             "--radius", "0.8"]
        )
        assert code == 4

    def test_determinism(self, tmp_path, octa_files):
        _, space_path, cycle_path = octa_files
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert main(
                ["fill", "--space", space_path, "--cycle", cycle_path,
                 "--radius", "0.8", "--out", str(out)]
            ) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]
        # masses are correctly rounded sums and no fill depends on a cycle's
        # item order, so reordering a cycle document's entries changes only
        # the echoed path
        space = icosphere(2)
        space_path = tmp_path / "ico2.json"
        save_space(str(space_path), space)
        cycle = load_workloads().random_cycle(random.Random(2), space, 3)
        doc = chain_to_dict(space, cycle)
        before, after = self.fill_outputs(tmp_path, space_path, "0.8", doc, doc["entries"][::-1])
        assert before == after

    @pytest.mark.parametrize("make, radius", [
        (lambda: capped_prism(6, 2), "1.2"),  # E0 contracts the neck
        (lambda: tall_composite()[0], "1.2"),  # two necks
        (octahedra_sharing_a_face, "0.8"),  # the Smith form and coset_min
        (lambda: icosphere(2), "0.8"),
    ], ids=["capped_prism", "tall_composite", "octahedra_sharing_a_face", "icosphere2"])
    def test_shuffled_cycle_fills_alike(self, tmp_path, make, radius):
        space = make()
        space_path = tmp_path / "space.json"
        save_space(str(space_path), space)
        rng = random.Random(2604)
        for _ in range(4):
            doc = chain_to_dict(space, load_workloads().random_cycle(rng, space, rng.randint(1, 3)))
            entries = doc["entries"][:]
            rng.shuffle(entries)
            before, after = self.fill_outputs(tmp_path, space_path, radius, doc, entries)
            assert before == after

    @staticmethod
    def fill_outputs(tmp_path, space_path, radius, doc, entries) -> list:
        """``fill``'s report, with the echoed cycle path masked, and its
        ``--chain-out`` bytes, for the cycle document ``doc`` and for its copy
        with ``entries``."""
        outputs = []
        for name, items in (("cycle", doc["entries"]), ("reordered", entries)):
            cycle_path = tmp_path / f"{name}.json"
            cycle_path.write_text(json.dumps({**doc, "entries": items}))
            out, chain_out = tmp_path / f"{name}_report.json", tmp_path / f"{name}_chain.json"
            assert main(["fill", "--space", str(space_path), "--cycle", str(cycle_path),
                         "--radius", radius, "--out", str(out), "--chain-out", str(chain_out)]) == 0
            outputs.append((out.read_text().replace(json.dumps(str(cycle_path)), '"CYCLE"'),
                            chain_out.read_bytes()))
        return outputs

    def test_labeled_composite_space(self, tmp_path):
        # region + radial fields round-trip through the file format and the
        # neck ring contracts into a body before the graph stage
        space = capped_prism(6, 2, 1.0)
        space_path = tmp_path / "composite.json"
        save_space(str(space_path), space)
        ring = [1 + 6 + i for i in range(6)]  # the neck ring
        z = chain_from_simplices(
            space.complex, 1,
            [((ring[i], ring[(i + 1) % 6]), 1) for i in range(6)],
        )
        cycle_path = tmp_path / "ring.json"
        save_chain(str(cycle_path), space, z)
        out = tmp_path / "report.json"
        code = main(
            ["fill", "--space", str(space_path), "--cycle", str(cycle_path),
             "--radius", "1.2", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())["report"]
        assert report["boundary_verified"] is True
        assert report["mass_e0"] > 0  # the neck sweep did run

    @pytest.mark.parametrize("radius", ["0.8", "1e-5"])
    def test_coefficients_beyond_binary64(self, tmp_path, radius):
        # the equator of octahedron(1e-5) at 10^310: no coefficient fits
        # binary64, but every mass does; at 0.8 one cover set holds the
        # octahedron (E1), and at 1e-5 the nerve fill runs (E2)
        space = octahedron(1e-5)
        loop, a = [0, 2, 1, 3], 10 ** 310
        z = chain_from_simplices(space.complex, 1,
                                 [((loop[i], loop[(i + 1) % 4]), a) for i in range(4)])
        space_path, cycle_path = tmp_path / "octa.json", tmp_path / "equator.json"
        save_space(str(space_path), space)
        save_chain(str(cycle_path), space, z)
        out, chain_out = tmp_path / "report.json", tmp_path / "chain.json"
        assert main(["fill", "--space", str(space_path), "--cycle", str(cycle_path),
                     "--radius", radius, "--out", str(out), "--chain-out", str(chain_out)]) == 0
        report = json.loads(out.read_text())["report"]
        lengths = [space.edge_lengths[i] for i, _ in z.items()]
        assert report["input_mass1"] == math.fsum(float(a * Fraction(w)) for w in lengths)
        assert 0 < report["total_mass2"] < report["input_mass1"]
        filled = chain_from_dict(space, json.loads(chain_out.read_text()))
        assert boundary(space.complex, filled) == z
        if radius == "1e-5":
            assert report["mass_e2"] == report["total_mass2"]
            assert (report["measured_constants"]["nerve_coeff_per_length"]
                    == float(a / Fraction(report["input_mass1"])))
            cert = report["certificate"]
            assert cert["bound_max"] is None and cert["bound_l1"] is None
            assert cert["input_max_coeff"] == a and cert["bounds_hold"] is True
        else:
            assert report["mass_e1"] == report["total_mass2"]

    def test_bound_beyond_binary64_is_null(self, tmp_path):
        # 42 cover sets: C(42, 2)^(C(42, 2)/2) overflows binary64
        space = icosphere(1)
        k = space.complex
        cap = [i for i, t in enumerate(k.simplices(2))
               if all(space.coords[v][2] > 0.3 for v in t)]
        space_path, cycle_path = tmp_path / "ico1.json", tmp_path / "cap.json"
        save_space(str(space_path), space)
        save_chain(str(cycle_path), space, boundary(k, Chain(2, dict.fromkeys(cap, 1))))
        out = tmp_path / "report.json"
        code = main(["fill", "--space", str(space_path), "--cycle", str(cycle_path),
                     "--radius", "0.45", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())["report"]
        assert report["nerve_vertices"] == 42
        cert = report["certificate"]
        assert cert["bound_max"] is None and cert["bound_l1"] is None
        assert cert["bounds_hold"] is True


class TestHf1Command:
    def test_tetra_profile(self, tmp_path):
        space_path = tmp_path / "tetra.json"
        assert main(["gen", "--shape", "tetra_boundary", "--out", str(space_path)]) == 0
        out = tmp_path / "hf1.json"
        csv = tmp_path / "hf1.csv"
        code = main(
            ["hf1", "--space", str(space_path), "--l-max", "6", "--steps", "6",
             "--cycle-budget", "64", "--out", str(out), "--csv", str(csv)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["estimate_kind"] == "lower"
        samples = {l: e for l, e in doc["samples"]}
        assert samples[0.0] == 0.0
        # oracle from coordinates: a triangle cycle has mass 3 * (2*sqrt(2)/
        # sqrt(3)) ~ 4.9 and its cheapest fill is one face, area 2*sqrt(3)/3
        edge = 2.0 * math.sqrt(2.0) / math.sqrt(3.0)
        assert samples[4.0] == 0.0  # below the shortest cycle mass
        assert samples[5.0] == pytest.approx(2.0 * math.sqrt(3.0) / 3.0, rel=1e-9)
        assert doc["amin_upper_bound"] == pytest.approx(
            60.0 * doc["hf1_at_2_diameter"]
        )
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "l,hf_estimate,fitted_line"
        assert len(lines) == len(doc["samples"]) + 1

    def test_nontrivial_h1_exits_2(self, tmp_path):
        space_path = tmp_path / "prism.json"
        assert main(["gen", "--shape", "prism", "--n", "6", "--out", str(space_path)]) == 0
        code = main(["hf1", "--space", str(space_path), "--l-max", "2"])
        assert code == 2

    def test_h1_is_checked_before_the_diameter(self, tmp_path, capsys, monkeypatch):
        # an annulus of 2,112 vertices: the refusal comes before a single
        # Dijkstra of the diameter's one per vertex
        import fillbound.cli
        import fillbound.geom

        def no_diameter(space):
            raise AssertionError("skeleton_diameter ran before the H1 check")

        monkeypatch.setattr(fillbound.geom, "skeleton_diameter", no_diameter)
        monkeypatch.setattr(fillbound.cli, "skeleton_diameter", no_diameter)
        space_path = tmp_path / "annulus.json"
        save_space(str(space_path), prism(64, 32))
        assert main(["hf1", "--space", str(space_path), "--l-max", "2"]) == 2
        assert capsys.readouterr().err == "error: H1 is nontrivial: some 1-cycle does not bound\n"

    def test_disconnected_skeleton_exits_2(self, tmp_path, capsys):
        # two disjoint octahedra: H1 is trivial, the diameter is not finite
        octa = octahedron(1.0)
        faces = [tuple(v + 6 * i for v in t) for i in range(2) for t in octa.complex.simplices(2)]
        coords = octa.coords + tuple((x + 3.0, y, z) for x, y, z in octa.coords)
        space = MetricComplex(complex=SimplicialComplex.from_simplices(faces), coords=coords)
        space_path = tmp_path / "two_octahedra.json"
        save_space(str(space_path), space)
        assert main(["hf1", "--space", str(space_path), "--l-max", "2"]) == 2
        assert capsys.readouterr().err == "error: 1-skeleton is disconnected\n"

    def test_capacity_exits_3(self, tmp_path):
        # complete 2-skeleton on 8 simplex vertices: trivial H1 but the
        # homogeneous lattice of its face boundary map has dimension 35,
        # beyond the exact branch-and-bound budget
        import itertools

        doc = {
            "ambient_dim": 8,
            "vertices": [[1.0 if i == j else 0.0 for i in range(8)] for j in range(8)],
            "triangles": [list(t) for t in itertools.combinations(range(8), 3)],
        }
        space_path = tmp_path / "skel.json"
        space_path.write_text(json.dumps(doc))
        code = main(["hf1", "--space", str(space_path), "--l-max", "5",
                     "--cycle-budget", "4"])
        assert code == 3

    def test_median_path_kernel_past_the_search_limit(self, tmp_path, capsys):
        # 21 octahedra pinched in a row: 21 disjoint +-1 kernel columns,
        # more than a search takes, but the fills need no search
        space_path = tmp_path / "necklace.json"
        save_space(str(space_path), octahedron_necklace(21))
        assert main(["hf1", "--space", str(space_path), "--l-max", "4",
                     "--cycle-budget", "60"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["samples"][-1][1] > 0

    def test_huge_l_max(self, tmp_path, capsys):
        # grid points 1e300 apart: the line fit's squared spread overflows
        space_path = tmp_path / "tetra.json"
        assert main(["gen", "--shape", "tetra_boundary", "--out", str(space_path)]) == 0
        assert main(["hf1", "--space", str(space_path), "--l-max", "1e300", "--steps", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fitted_f1"] == 0.0
        assert doc["fitted_f2"] == max(e for _, e in doc["samples"])

    def test_l_max_near_the_largest_float(self, tmp_path, capsys):
        # l_max / min_edge overflows to inf: the edge budget is the cap, and
        # the report is the one a finite huge --l-max gives at its grid points
        space_path = tmp_path / "ico2.json"
        assert main(["gen", "--shape", "icosphere", "--level", "2", "--out", str(space_path)]) == 0
        docs = []
        for l_max in ("1e308", "1e300"):
            assert main(["hf1", "--space", str(space_path), "--l-max", l_max,
                         "--steps", "1", "--cycle-budget", "60"]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            docs.append(json.loads(out))
        huge, big = docs
        assert huge["samples"][-1][0] == 1e308 and big["samples"][-1][0] == 1e300
        assert [e for _, e in huge["samples"]] == [e for _, e in big["samples"]]
        assert [c for _, c in huge["cycle_census"]] == [c for _, c in big["cycle_census"]]
        assert huge["cycle_census"][-1][1] == 3 * 60  # each loop, x2 and x3
        assert huge["hf1_at_2_diameter"] == big["hf1_at_2_diameter"] > 0

    def test_l_max_zero(self, tmp_path, capsys):
        space_path = tmp_path / "tetra.json"
        assert main(["gen", "--shape", "tetra_boundary", "--out", str(space_path)]) == 0
        code = main(
            ["hf1", "--space", str(space_path), "--l-max", "0", "--steps", "1"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert [0.0, 0.0] in doc["samples"]


@pytest.fixture
def ico_files(tmp_path):
    space = icosphere(1, 1.0)
    space_path = tmp_path / "ico.json"
    save_space(str(space_path), space)
    z = chain_from_simplices(space.complex, 1, [((0, 12), 1), ((12, 14), 1), ((0, 14), -1)])
    cycle_path = tmp_path / "tri.json"
    save_chain(str(cycle_path), space, z)
    return str(space_path), str(cycle_path)


class TestInputContracts:
    """Bad numeric options exit 2 with one line, before any document is read."""

    @pytest.mark.parametrize("extra", [
        ["fill", "--radius", "0"],
        ["fill", "--radius", "-0.0"],
        ["fill", "--radius", "1e400"],
        ["hf1", "--l-max", "inf"],
        ["hf1", "--l-max", "nan"],
        ["hf1", "--l-max", "-1"],
        ["hf1", "--l-max", "-0.000001"],
        ["hf1", "--l-max", "1e400"],
        ["fill", "--radius", "-0.5"],
        ["hf1", "--l-max", "-0.5"],
        ["fill", "--radius", "inf"],
        ["fill", "--radius", "nan"],
        ["fill", "--radius", "-1"],
        ["hf1", "--l-max", "2", "--steps", "0"],
        ["hf1", "--l-max", "2", "--steps", "-3"],
        ["hf1", "--l-max", "2", "--cycle-budget", "0"],
        ["hf1", "--l-max", "2", "--cycle-budget", "-5"],
        ["hf1", "--l-max", "1e308", "--steps", "2"],
        ["hf1", "--l-max", "0", "--steps", "1" + "0" * 400],
    ])
    def test_rejected_before_work(self, tmp_path, ico_files, capsys, monkeypatch, extra):
        import fillbound.cli

        def no_load(*args, **kwargs):
            raise AssertionError("a document was read before the options were checked")

        monkeypatch.setattr(fillbound.cli, "load_space", no_load)
        space_path, cycle_path = ico_files
        out = tmp_path / "out.json"
        argv = [extra[0], "--space", space_path, "--out", str(out)] + extra[1:]
        if extra[0] == "fill":
            argv += ["--cycle", cycle_path]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_hf1_limits_of_one_accepted(self, octa_files, capsys):
        _, space_path, _ = octa_files
        assert main(["hf1", "--space", space_path, "--l-max", "2",
                     "--steps", "1", "--cycle-budget", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [l for l, _ in doc["samples"]][:2] == [0.0, 2.0]

    @pytest.mark.parametrize("command", [
        ["gen", "--shape", "octahedron"],
        ["fill", "--space", "s.json", "--cycle", "c.json", "--radius", "0.8"],
        ["hf1", "--space", "s.json", "--l-max", "2"],
    ], ids=["gen", "fill", "hf1"])
    def test_seed_only_on_bfrt_check(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--seed", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err == "error: fillbound: unrecognized arguments: --seed 1\n"

    @pytest.mark.parametrize("command", [
        ["fill", "--space", "s.json", "--cycle", "c.json", "--radius", "0.8"],
        ["hf1", "--space", "s.json", "--l-max", "2"],
    ], ids=["fill", "hf1"])
    def test_no_tolerance_option(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--tolerance", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err == "error: fillbound: unrecognized arguments: --tolerance 0\n"

    def test_grid_overflow_message(self, capsys):
        # the grid's l_max * i / steps would reach inf at i = steps
        assert main(["hf1", "--space", "s.json", "--l-max", "1e308", "--steps", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: --l-max 1e+308 times --steps 2 overflows binary64\n")

    def test_l_max_message(self, capsys):
        assert main(["hf1", "--space", "s.json", "--l-max", "-1"]) == 2
        assert capsys.readouterr().err == (
            "error: --l-max must be finite and in [0, inf), got -1.0\n"
        )


class TestOptionSurface:
    """Every option of every subcommand, so that a new knob changes a test."""

    EXPECTED = {
        "gen": ["--shape", "--scale", "--level", "--n", "--levels", "--rings", "--out"],
        "fill": ["--space", "--cycle", "--radius", "--out", "--chain-out", "--timing"],
        "hf1": ["--space", "--l-max", "--steps", "--cycle-budget", "--out", "--csv"],
        "bfrt-check": ["--trials", "--m-max", "--n-max", "--max-entry", "--seed", "--out",
                       "--verbose"],
    }

    def test_options_pinned(self):
        subparsers = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        found = {
            name: [opt for action in sub._actions for opt in action.option_strings
                   if opt not in ("-h", "--help")]
            for name, sub in subparsers.choices.items()
        }
        assert found == self.EXPECTED
        assert sum(len(opts) for opts in found.values()) == 26


class TestDocumentContracts:
    """A malformed document exits 2 with one line, never a traceback."""

    @pytest.mark.parametrize("which,edit,phrase", [
        ("space", lambda d: b"\xff\xfe{", "not a JSON document"),
        ("space", lambda d: b'{"ambient_dim": 3, "vertices": [', "not a JSON document"),
        ("space", lambda d: b'{"ambient_dim": 1, "vertices": [[1e999], [0]], "edges": [[0, 1]]}',
         "non-finite coordinate"),
        ("space", lambda d: {**d, "triangles": [[0, 2, 4.5]]}, "must be int"),
        ("space", lambda d: {**d, "triangles": 7}, "triangles must be list"),
        ("space", lambda d: {**d, "vertices": [["x", 0, 0]] + d["vertices"][1:]}, "must be a number"),
        ("space", lambda d: {**d, "vertices": [[10 ** 400, 0, 0]] + d["vertices"][1:]}, "beyond binary64"),
        ("space", lambda d: {**d, "radial": 1.0}, "radial must be list"),
        ("space", lambda d: {**d, "region": [1] * 6}, "region label must be str"),
        ("space", lambda d: {k: v for k, v in d.items() if k != "ambient_dim"}, "ambient_dim must be int, got None"),
        ("cycle", lambda d: {**d, "dim": "1"}, "chain dim must be int"),
        ("cycle", lambda d: {**d, "entries": [[[0, 2], True]]}, "bad coefficient"),
        ("cycle", lambda d: {**d, "entries": [[[0, 2.0], "1"]]}, "must be int"),
        ("cycle", lambda d: {**d, "entries": [[[0, 9], "1"]]}, "not a 1-simplex"),
        ("cycle", lambda d: {**d, "entries": [[5, "1"]]}, "must be list"),
        # the input mass's terms overflow binary64
        ("cycle", lambda d: {**d, "entries": [[v, a + "0" * 400] for v, a in d["entries"]]},
         "overflows binary64"),
        # the masses fit, but the area bound 60 * total_mass2 does not
        ("cycle", lambda d: {**d, "entries": [[v, a + "0" * 307] for v, a in d["entries"]]},
         "the area bound (5!/2) * "),
    ], ids=["bad-utf8", "truncated", "inf-literal", "float-vertex-id", "triangles-not-list",
            "string-coordinate", "huge-int-coordinate", "radial-not-list", "int-region-label",
            "missing-key", "string-dim", "bool-coefficient", "float-entry-vertex",
            "out-of-range-vertex", "entry-vertices-not-list", "mass-overflow",
            "area-bound-overflow"])
    def test_rejected(self, tmp_path, octa_files, capsys, which, edit, phrase):
        _, space_path, cycle_path = octa_files
        path = space_path if which == "space" else cycle_path
        doc = edit(json.loads(open(path).read()))
        bad_path = tmp_path / "bad.json"
        if isinstance(doc, bytes):
            bad_path.write_bytes(doc)
        else:
            bad_path.write_text(json.dumps(doc))
        argv = ["fill", "--space", space_path, "--cycle", cycle_path, "--radius", "0.8"]
        argv[argv.index(path)] = str(bad_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert phrase in err

    def test_argument_error_is_one_line(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fill", "--space", "s.json", "--cycle", "c.json", "--radius", "abc"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: fillbound fill: ") and err.count("\n") == 1

    @pytest.mark.parametrize("option,value", [
        ("--trials", "-1"), ("--m-max", "0"), ("--n-max", "-2"), ("--max-entry", "-1"),
    ])
    def test_bfrt_sizes_checked(self, capsys, option, value):
        assert main(["bfrt-check", option, value]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {option} must be at least {0 if option in ('--trials', '--max-entry') else 1}, got {value}\n"


class TestNonFiniteGeometry:
    """A non-finite coordinate or radial value exits 2 naming its vertex."""

    @pytest.mark.parametrize("field,value,phrase", [
        ("radial", float("nan"), "non-finite radial value"),
        ("vertices", float("nan"), "non-finite coordinate"),
        ("vertices", float("inf"), "non-finite coordinate"),
    ])
    def test_rejected(self, tmp_path, octa_files, capsys, field, value, phrase):
        space, space_path, cycle_path = octa_files
        doc = json.loads(open(space_path).read())
        if field == "radial":
            doc["radial"] = [1.0] * space.complex.n_vertices
            doc["radial"][2] = value
        else:
            doc["vertices"][2][0] = value
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(doc))
        out = tmp_path / "out.json"
        code = main(["fill", "--space", str(bad_path), "--cycle", cycle_path,
                     "--radius", "0.8", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"vertex 2 has a {phrase}" in err
        assert "Traceback" not in err


    def test_area_overflow_exits_2(self, tmp_path, octa_files, capsys):
        _, space_path, cycle_path = octa_files
        doc = json.loads(open(space_path).read())
        doc["vertices"] = [[1e160 * x for x in p] for p in doc["vertices"]]
        bad_path = tmp_path / "huge.json"
        bad_path.write_text(json.dumps(doc))
        code = main(["fill", "--space", str(bad_path), "--cycle", cycle_path,
                     "--radius", "0.8", "--out", str(tmp_path / "out.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: area of triangle (0, 2, 4) overflows binary64\n"

    def test_area_underflow_exits_2(self, tmp_path, octa_files, capsys):
        _, space_path, cycle_path = octa_files
        doc = json.loads(open(space_path).read())
        doc["vertices"] = [[1e-170 * x for x in p] for p in doc["vertices"]]
        bad_path = tmp_path / "tiny.json"
        bad_path.write_text(json.dumps(doc))
        code = main(["fill", "--space", str(bad_path), "--cycle", cycle_path,
                     "--radius", "0.8", "--out", str(tmp_path / "out.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: area of triangle (0, 2, 4) underflows binary64\n"


def src_nodes():
    """(path, every AST node) of each module under src/fillbound."""
    for path in sorted(Path(fillbound.__file__).parent.rglob("*.py")):
        yield path, list(ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))))


class TestInvariantExit:
    def test_package_exports_every_error_class(self):
        import fillbound.errors

        classes = {name for name, obj in vars(fillbound.errors).items()
                   if isinstance(obj, type) and issubclass(obj, fillbound.FillboundError)}
        assert "InvariantError" in classes
        assert classes <= set(fillbound.__all__)
        assert all(getattr(fillbound, name) is getattr(fillbound.errors, name) for name in classes)

    def test_no_assert_statement_in_src(self):
        # python -O strips assert statements, and every check must survive it
        for path, nodes in src_nodes():
            lines = [node.lineno for node in nodes if isinstance(node, ast.Assert)]
            assert lines == [], f"assert statements in {path.name} at lines {lines}"

    def test_only_chains_calls_the_strict_constructor(self):
        # every complex is built by SimplicialComplex.from_simplices
        for path, nodes in src_nodes():
            lines = [node.lineno for node in nodes if isinstance(node, ast.Call)
                     and getattr(node.func, "id", getattr(node.func, "attr", None))
                     == "SimplicialComplex"]
            assert path.name == "chains.py" or lines == [], \
                f"SimplicialComplex(...) called in {path.name} at lines {lines}"

    def test_wrong_boundary_exits_5(self, tmp_path, octa_files, capsys, monkeypatch):
        import fillbound.geom

        real = fillbound.geom.boundary

        def skewed(complex, c):
            out = real(complex, c)
            return out + Chain(1, {0: 1}) if c.dim == 2 else out

        monkeypatch.setattr(fillbound.geom, "boundary", skewed)
        _, space_path, cycle_path = octa_files
        out = tmp_path / "out.json"
        code = main(["fill", "--space", space_path, "--cycle", cycle_path,
                     "--radius", "0.8", "--out", str(out)])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("invariant violated: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert "wrong boundary" in json.loads(out.read_text())["error"]


class TestBfrtCommand:
    def test_zero_trials(self, tmp_path, capsys):
        code = main(["bfrt-check", "--trials", "0"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations"] == 0
        assert doc["instances"] == 0

    def test_hundred_trials_no_violations(self, capsys):
        code = main(
            ["bfrt-check", "--trials", "100", "--m-max", "2", "--max-entry", "2",
             "--seed", "7"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations"] == 0
        assert doc["max_tightness"] <= 1.0

    def test_large_kernels_certified(self, capsys):
        # up to 12 columns, so kernels up to dimension 11: all 10 systems are
        # certified and none is skipped for capacity
        code = main(["bfrt-check", "--trials", "10", "--n-max", "12", "--m-max", "2",
                     "--max-entry", "1", "--seed", "4"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["capacity_skips"] == 0
        assert doc["instances"] == 10
        assert doc["violations"] == 0

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["bfrt-check", "--trials", "50", "--seed", "3", "--verbose"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_hand_instance_recorded(self, capsys):
        # A = [[1,2],[3,4]], b = (1,1): solution (-1,1), Y by minors,
        # ceiling from the Hadamard product
        from fillbound.intlin import certify_small_solution

        cert = certify_small_solution(
            __import__("fillbound.intlin", fromlist=["IntMatrix"]).IntMatrix.from_rows(
                [[1, 2], [3, 4]]
            ),
            [1, 1],
        )
        assert cert.solution is not None
        assert max(map(abs, cert.solution)) == 1
        assert cert.minor_max is not None
        assert (
            max(map(abs, cert.solution))
            <= cert.minor_max
            <= cert.hadamard_bound_ceiling
        )
