"""Command line front end.

Subcommands: compute (invariants of a facet file), subdivide (write a
triangulation file), classify (theta class of a triangulation file), verify
(run a harness suite), scan (exploratory scans), tables (reference
polynomials).  Exit codes: 0 success, 1 exact-identity failure, 2 usage or
parse error.  All numbers in JSON output are decimal strings so that
coefficients never lose precision.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter

from . import harness
from .complexes import is_induced_subcomplex, read_facet_file
from .errors import ConsistencyError, PreconditionError, ThetaLabError
from .homology import (
    has_interior_vertex_property,
    is_cohen_macaulay,
    is_cohen_macaulay_star,
    is_homology_ball,
    is_homology_sphere,
)
from .invariants import h_poly, sphere_gamma, theta, theta_class
from .polynomials import (
    IntPoly,
    derangement_poly_by_excedance,
    is_gamma_positive,
    is_nonnegative,
    is_unimodal,
    pnk,
)
from .subdivisions import (
    antiprism,
    barycentric,
    edgewise,
    read_triangulation_file,
    stellar,
    write_triangulation_file,
)

TABLE_CAP = 10
# subdivide refuses a build of more facets: sd of an 8-vertex simplex
# (8! = 40,320 facets) took 11 s and peaked near 0.5 GB
FACET_CAP = 10_000


def _display(p: IntPoly) -> str:
    return p.text().replace("*", "")


def _cmd_compute(args) -> int:
    c = read_facet_file(args.path)
    if c.is_void:
        print(json.dumps({"void": True, "dim": None, "f_vector": [], "h": []}))
        return 0
    report: dict = {
        "void": False,
        "dim": str(c.dim),
        "f_vector": [str(v) for v in c.f_vector()],
        "vertices": str(len(c.vertices)),
        "facets": str(len(c.facets)),
        "pure": c.is_pure(),
        "flag": c.is_flag(),
        "h": h_poly(c).json_coeffs(),
    }
    cm = is_cohen_macaulay(c)
    report["cohen_macaulay"] = cm
    report["cohen_macaulay_star"] = is_cohen_macaulay_star(c) if cm else None

    bd = is_homology_ball(c)
    report["ball"] = bd is not None
    if bd is not None:
        th = theta(c, bd)
        report["theta"] = th.json_coeffs()
        report["theta_reason"] = None
        report["theta_unimodal"] = is_nonnegative(th) and is_unimodal(th)
        report["theta_gamma_positive"] = is_gamma_positive(th, c.dim + 1)
        report["boundary_h"] = h_poly(bd).json_coeffs()
        report["boundary_induced"] = is_induced_subcomplex(bd, c)
        report["interior_vertex_property"] = has_interior_vertex_property(c, bd)
    else:
        report["theta"] = None
        report["theta_reason"] = "not a homology ball"

    sphere = is_homology_sphere(c)
    report["sphere"] = sphere
    if sphere:
        report["gamma"] = [str(g) for g in sphere_gamma(c).gammas]
    else:
        report["gamma"] = None
    print(json.dumps(report))
    return 0


def _fubini(n: int) -> int:
    """The number of ordered set partitions of an n-set."""
    counts = [1]
    for m in range(1, n + 1):
        counts.append(sum(math.comb(m, k) * counts[m - k] for k in range(1, m + 1)))
    return counts[n]


def _make_subdivider(spec: str):
    """The builder a --kind names, and the number of facets it makes over a
    base facet of n vertices; None for stellar, which makes at most n."""
    if spec == "sd":
        return barycentric, math.factorial
    if spec == "antiprism":
        return antiprism, _fubini
    if spec.startswith("stellar:"):
        labels = tuple(s for s in spec[len("stellar:"):].split(",") if s)
        if not labels:
            raise PreconditionError(
                "stellar needs a comma-separated face, like stellar:a,b")
        return (lambda c: stellar(c, labels)), None
    if spec.startswith("edgewise:"):
        raw = spec[len("edgewise:"):]
        try:
            r = int(raw)
        except ValueError:
            raise PreconditionError(
                f"edgewise needs an integer parameter, got {raw!r}") from None
        # edgewise itself refuses r < 1, after the size guard lets it through
        return (lambda c: edgewise(c, r)), (lambda n: max(r, 0) ** max(n - 1, 0))
    raise PreconditionError(
        f"unknown kind {spec!r}; use sd, antiprism, stellar:F or edgewise:r")


def _cmd_subdivide(args) -> int:
    build, facets_over = _make_subdivider(args.kind)
    c = read_facet_file(args.path)
    sizes = Counter(map(len, c.facets))
    if facets_over and sum(facets_over(n) * k for n, k in sizes.items()) > FACET_CAP:
        raise PreconditionError(
            f"{args.kind} would build more than {FACET_CAP} facets")
    write_triangulation_file(args.out, build(c))
    return 0


def _cmd_classify(args) -> int:
    tri = read_triangulation_file(args.path)
    flags = theta_class(tri)
    print(json.dumps({
        "base_facets": str(len(tri.base.facets)),
        "total_facets": str(len(tri.total.facets)),
        "theta_positive": flags.positive,
        "theta_unimodal": flags.unimodal,
        "theta_gamma_positive": flags.gamma_positive,
    }))
    return 0


def _print_reports(reports) -> None:
    """The reports as JSON lines on stdout, their summary on stderr."""
    for r in reports:
        print(r.to_json())
    print(harness.summarize(reports), file=sys.stderr)


def _cmd_verify(args) -> int:
    reports = harness.run_suite(
        suite=args.suite, seed=args.seed, max_dim=args.max_dim)
    _print_reports(reports)
    return 1 if harness.failures(reports) else 0


def _cmd_scan(args) -> int:
    _print_reports(harness.scan_reports(args.kind, args.seed, args.max_dim))
    return 0


def _cmd_tables(args) -> int:
    if args.pnk is not None:
        n = args.pnk
        if not 0 <= n <= TABLE_CAP:
            raise PreconditionError(f"--pnk must be between 0 and {TABLE_CAP}")
        for k in range(n + 1):
            print(f"p[{n},{k}] = {_display(pnk(n, k))}")
    else:
        n = args.derangement
        if not 0 <= n <= TABLE_CAP:
            raise PreconditionError(
                f"--derangement must be between 0 and {TABLE_CAP}")
        print(_display(derangement_poly_by_excedance(n)))
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetalab",
        description="Face enumeration invariants of simplicial complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="invariants of a facet file")
    p.add_argument("path")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("subdivide", help="write a triangulation file")
    p.add_argument("path")
    p.add_argument("--kind", required=True,
                   help="sd | antiprism | stellar:F | edgewise:r")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_subdivide)

    p = sub.add_parser("classify", help="theta class of a triangulation file")
    p.add_argument("path")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=harness.SUITES, default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-dim", type=int, default=3)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scan", help="exploratory scans")
    p.add_argument("--kind", choices=("theta-zero", "real-rooted"),
                   default="theta-zero")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-dim", type=int, default=3)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("tables", help="reference polynomial tables")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pnk", type=int)
    group.add_argument("--derangement", type=int)
    p.set_defaults(func=_cmd_tables)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConsistencyError as exc:
        print(f"identity failure: {exc}", file=sys.stderr)
        return 1
    except (ThetaLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
