"""Command line entry points.

Subcommands: ``gen`` writes generator spaces, ``fill`` runs the cover/nerve
pipeline end to end, ``hf1`` profiles the filling function, ``bfrt-check``
stress-tests the small-solution certificate chain on random systems.

Exit codes: 0 success, 2 domain or structural problem, 3 capacity budget
exceeded, 4 I/O failure, 5 internal invariant violated.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from typing import Optional

from . import shapes
from .errors import (
    CapacityError,
    DomainError,
    FillboundError,
    InvariantError,
    StructuralError,
)
from .filling import amin_upper_bound, hf1_profile, require_trivial_h1
from .fileio import (
    canonical_json,
    chain_to_dict,
    load_chain,
    load_space,
    save_chain,
    save_space,
    space_to_dict,
    write_atomic,
)
from .geom import ball_cover, pipeline_fill, skeleton_diameter
from .intlin import IntMatrix, certify_small_solution

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_CAPACITY = 3
EXIT_IO = 4
EXIT_INVARIANT = 5


def _require_at_least(*checks: tuple[str, int, int]):
    """Reject an integer option below its minimum, before any work."""
    for option, value, low in checks:
        if value < low:
            raise DomainError(f"{option} must be at least {low}, got {value}")


def _emit(path: Optional[str], text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        write_atomic(path, text if text.endswith("\n") else text + "\n")


# ``gen``'s shapes; their order is the order that --help and argparse's errors list
_SHAPES = {
    "octahedron": lambda args: shapes.octahedron(args.scale),
    "icosphere": lambda args: shapes.icosphere(args.level, args.scale),
    "tetra_boundary": lambda args: shapes.tetra_boundary(args.scale),
    "prism": lambda args: shapes.prism(args.n, args.levels, args.scale),
    "disk": lambda args: shapes.disk(args.n, args.rings, args.scale),
}


def cmd_gen(args) -> int:
    space = _SHAPES[args.shape](args)
    meta = {"shape": args.shape, "scale": args.scale}
    if args.out:
        save_space(args.out, space, metadata=meta)
    else:
        _emit(None, canonical_json(space_to_dict(space, meta)))
    return EXIT_OK


def cmd_fill(args) -> int:
    if not (math.isfinite(args.radius) and args.radius > 0):
        raise DomainError(f"--radius must be finite and positive, got {args.radius}")
    space = load_space(args.space)
    cycle = load_chain(args.cycle, space)
    report_doc = {
        "command": "fill",
        "space": args.space,
        "cycle": args.cycle,
        "radius": args.radius,
    }
    try:
        cover = ball_cover(space, args.radius)
        chain, report = pipeline_fill(space, cover, cycle)
    except FillboundError as err:
        report_doc["error"] = str(err)
        _emit(args.out, canonical_json(report_doc))
        raise
    report_doc["report"] = report.to_dict()
    if not args.timing:
        # wall-clock noise would break byte-identical reports
        report_doc["report"].pop("timing", None)
    report_doc["filling_chain"] = chain_to_dict(space, chain)
    if args.chain_out:
        save_chain(args.chain_out, space, chain)
    _emit(args.out, canonical_json(report_doc))
    return EXIT_OK


def cmd_hf1(args) -> int:
    if not (math.isfinite(args.l_max) and args.l_max >= 0):
        raise DomainError(f"--l-max must be finite and in [0, inf), got {args.l_max}")
    _require_at_least(("--steps", args.steps, 1), ("--cycle-budget", args.cycle_budget, 1))
    try:
        top = args.l_max * args.steps  # the grid's l_max * i / steps reaches it
    except OverflowError:  # a --steps beyond binary64
        top = math.inf
    if not math.isfinite(top):
        raise DomainError(f"--l-max {args.l_max} times --steps {args.steps} "
                          "overflows binary64")
    space = load_space(args.space)
    require_trivial_h1(space.complex)  # before the diameter's Dijkstra per vertex
    grid = [args.l_max * i / args.steps for i in range(args.steps + 1)]
    diameter = skeleton_diameter(space)
    at_2d = 2.0 * diameter
    grid.append(at_2d)
    profile = hf1_profile(space.complex, space.volumes, grid, cycle_budget=args.cycle_budget)
    hf_at_2d = profile.estimate_at(at_2d)
    amin = amin_upper_bound(hf_at_2d, 4)
    doc = {
        "command": "hf1",
        "space": args.space,
        "estimate_kind": profile.estimate_kind,
        "samples": [[l, e] for l, e in profile.samples],
        "cycle_census": [[l, c] for l, c in profile.cycle_census],
        "fitted_f1": profile.fitted_f1,
        "fitted_f2": profile.fitted_f2,
        "diameter": diameter,
        "hf1_at_2_diameter": hf_at_2d,
        "amin_upper_bound": amin,
    }
    _emit(args.out, canonical_json(doc))
    if args.csv:
        lines = ["l,hf_estimate,fitted_line"]
        for l, e in profile.samples:
            fitted = profile.fitted_f1 * l + profile.fitted_f2
            lines.append(
                ",".join(
                    (format(l, ".17g"), format(e, ".17g"), format(fitted, ".17g"))
                )
            )
        write_atomic(args.csv, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_bfrt_check(args) -> int:
    _require_at_least(("--trials", args.trials, 0), ("--m-max", args.m_max, 1),
                      ("--n-max", args.n_max, 1), ("--max-entry", args.max_entry, 0))
    rng = random.Random(args.seed)
    results = []
    violations = 0
    capacity_skips = 0
    for _ in range(args.trials):
        rows = rng.randint(1, args.m_max)
        cols = rng.randint(1, args.n_max)
        a = IntMatrix.from_rows(
            [
                [rng.randint(-args.max_entry, args.max_entry) for _ in range(cols)]
                for _ in range(rows)
            ]
        )
        x0 = [rng.randint(-2, 2) for _ in range(cols)]
        b = a.mul_vec(x0)
        try:
            cert = certify_small_solution(a, b)
        except CapacityError:
            capacity_skips += 1
            continue
        if cert is None or cert.solution is None:
            violations += 1
            continue
        sol_max = max(map(abs, cert.solution), default=0)
        entry = {
            "rank": cert.m,
            "max_entry": cert.max_a,
            "max_rhs": cert.max_b,
            "solution_maxnorm": sol_max,
            "minor_max": cert.minor_max,
            "bound_ceiling": cert.hadamard_bound_ceiling,
            "hadamard_case": cert.hadamard_case,
        }
        if not cert.check():
            violations += 1
            entry["violation"] = True
        results.append(entry)
    tightness = [
        r["solution_maxnorm"] / r["bound_ceiling"]
        for r in results
        if r["bound_ceiling"] > 0
    ]
    doc = {
        "command": "bfrt-check",
        "trials": args.trials,
        "seed": args.seed,
        "violations": violations,
        "capacity_skips": capacity_skips,
        "max_tightness": max(tightness) if tightness else 0.0,
        "mean_tightness": (sum(tightness) / len(tightness)) if tightness else 0.0,
        "instances": results if args.verbose else len(results),
    }
    _emit(args.out, canonical_json(doc))
    return EXIT_OK if violations == 0 else EXIT_DOMAIN


class _Parser(argparse.ArgumentParser):
    """Argument errors as one line on stderr, exit status 2."""

    def error(self, message):
        self.exit(EXIT_DOMAIN, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fillbound",
        description="Certified homological fillings of integer 1-cycles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a generator space")
    gen.add_argument("--shape", required=True, choices=list(_SHAPES))
    gen.add_argument("--scale", type=float, default=1.0)
    gen.add_argument("--level", type=int, default=1, help="icosphere subdivisions")
    gen.add_argument("--n", type=int, default=6, help="polygon order")
    gen.add_argument("--levels", type=int, default=1, help="prism bands")
    gen.add_argument("--rings", type=int, default=3, help="disk rings")
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_gen)

    fill = sub.add_parser("fill", help="fill a cycle through the cover pipeline")
    fill.add_argument("--space", required=True)
    fill.add_argument("--cycle", required=True)
    fill.add_argument("--radius", type=float, required=True)
    fill.add_argument("--out", default=None)
    fill.add_argument("--chain-out", default=None)
    fill.add_argument(
        "--timing", action="store_true",
        help="include wall-clock stage timings (report is then not byte-stable)",
    )
    fill.set_defaults(func=cmd_fill)

    hf1 = sub.add_parser("hf1", help="profile the filling function")
    hf1.add_argument("--space", required=True)
    hf1.add_argument("--l-max", type=float, required=True)
    hf1.add_argument("--steps", type=int, default=8)
    hf1.add_argument("--cycle-budget", type=int, default=200)
    hf1.add_argument("--out", default=None)
    hf1.add_argument("--csv", default=None)
    hf1.set_defaults(func=cmd_hf1)

    bfrt = sub.add_parser("bfrt-check", help="stress-test the coefficient bound")
    bfrt.add_argument("--trials", type=int, default=100)
    bfrt.add_argument("--m-max", type=int, default=3)
    bfrt.add_argument("--n-max", type=int, default=8)
    bfrt.add_argument("--max-entry", type=int, default=3)
    bfrt.add_argument("--seed", type=int, default=0, help="seed of the random systems")
    bfrt.add_argument("--out", default=None)
    bfrt.add_argument("--verbose", action="store_true")
    bfrt.set_defaults(func=cmd_bfrt_check)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as err:
        print(f"capacity error: {err}", file=sys.stderr)
        return EXIT_CAPACITY
    except InvariantError as err:
        print(f"invariant violated: {err}", file=sys.stderr)
        return EXIT_INVARIANT
    except (DomainError, StructuralError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
