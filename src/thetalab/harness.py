"""Verification suites: exact identities, inequality theorems, and scans.

Every check compares integer polynomials exactly and is emitted as a
VerificationReport.  The report kind separates settled statements, whose
failure means a defect (identity, theorem), from conjectural or exploratory
ones, whose failure is a finding to record (conjecture, evidence).

Identity ids such as "Thm2.1" or "Eq3.4" are stable wire-format strings used
to aggregate reports; consumers should treat them as opaque labels.

Every ball and sphere hypothesis is certified, whatever the size, by a
shelling (homology.shelled_boundary) or, where its search stalls, by
is_homology_ball and is_homology_sphere.
The run memo is the only cache, as no complex keeps its face set: within
one run_suite or scan_reports call, or one direct call of a check that opens
it, results are memoized by complex, equal complexes sharing one entry, each
shelled once, and the memo lasts that one call, so no run sees another's facts.
It holds the triangulations as well: each kind of subdivision of a complex
is built once per run, and each complex's h-polynomial is computed once.
Every expansion over base faces reads the base's faces and their links, and
a triangulation's local h and restriction thetas, each listed once per run
in one face order, and the local h of each triangulation of a simplex once
per run.  Local h, carrier patterns and the h of each built total are read
off the carrier index, and a shelling reads only facets, so certifying a
built total enumerates none of its faces.  The theta of a restriction is kept once per
triangulation and base face, and shared by carrier pattern: restrictions
with equal face counts and equal largest faces, their vertices named by
carrier and rank, are isomorphic, carriers kept, once one of them is a
certified ball, so each pattern is certified once per run, on the first
restriction that has it.  theta_class builds and certifies every restriction
and is the reference route.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import random
from typing import Callable, Iterable, Sequence

from .complexes import (
    Face,
    SimplicialComplex,
    boundary_simplex,
    cross_polytope_boundary,
    cycle,
    example_5_2_ball,
    example_5_4_ball,
    fresh_label,
    is_induced_subcomplex,
    is_subcomplex,
    octahedron,
    path,
    simplex,
)
from .errors import ConsistencyError, PreconditionError
from .homology import (
    boundary_subcomplex,
    has_interior_vertex_property,
    interior_faces,
    is_cohen_macaulay,
    is_cohen_macaulay_star,
    is_homology_ball,
    is_homology_sphere,
    no_facet_on_union_boundaries,
    shelled_boundary,
)
from .invariants import (
    ThetaClass,
    _h_of_counts,
    _local_h_at,
    _sphere_gamma_of_h,
    _theta_class_of,
    _theta_of_h,
    derangement_poly,
    h_poly,
    is_alternatingly_increasing,
    local_h,
    theta_sd_closed_form,
)
from .polynomials import (
    IntPoly,
    gamma_vector,
    is_gamma_positive,
    is_nonnegative,
    is_real_rooted,
    is_symmetric,
    is_unimodal,
    pnk,
    poly_geq,
    reverse,
    symmetric_decomposition,
)
from .subdivisions import (
    Triangulation,
    antiprism,
    barycentric,
    compose,
    edgewise,
    identity,
    stellar,
)

REPORT_KINDS = ("identity", "theorem", "conjecture", "evidence")
SUITES = ("locality", "theta", "kms", "monotone", "conjectures", "all")
# Read only by perfbench/workloads.py, which keeps the corpus balls above
# this size as its certify_large inputs; the harness certifies every ball.
FULL_CHECK_FACE_CAP = 700


@dataclasses.dataclass(frozen=True)
class VerificationReport:
    """Outcome of one check on one instance.

    passed reflects the exact coefficientwise relation claimed; when the
    hypotheses of the statement do not hold, the report carries
    applicable=False and passed=True, with the reason in detail.
    """

    identity: str
    instance: str
    lhs: str
    rhs: str
    passed: bool
    kind: str = "identity"
    applicable: bool = True
    detail: str = ""

    def __post_init__(self):
        if self.kind not in REPORT_KINDS:
            raise PreconditionError(f"unknown report kind {self.kind!r}")

    def to_json(self) -> str:
        # the fields are strings and booleans, so asdict's deep copy is not needed
        return json.dumps(vars(self), sort_keys=True)


def _inapplicable(identity: str, instance: str, detail: str, kind: str = "theorem",
                  lhs: str = "", rhs: str = "") -> VerificationReport:
    """The report of a statement whose hypotheses fail on the instance:
    passed, not applicable, and detail naming the unmet hypothesis."""
    return VerificationReport(identity, instance, lhs, rhs, True, kind=kind,
                              applicable=False, detail=detail)


def failures(reports: Iterable[VerificationReport]) -> list[VerificationReport]:
    """Reports that falsify a settled statement (identity or theorem)."""
    return [
        r for r in reports
        if r.applicable and not r.passed and r.kind in ("identity", "theorem")
    ]


def summarize(reports: Sequence[VerificationReport]) -> str:
    """Per-identity pass counts, one line each, plus a trailing total line."""
    groups: dict[str, list[VerificationReport]] = {}
    for r in reports:
        groups.setdefault(r.identity, []).append(r)
    lines = []
    for ident in sorted(groups):
        rs = groups[ident]
        applicable = [r for r in rs if r.applicable]
        passed = sum(1 for r in applicable if r.passed)
        line = (
            f"{ident:16s} {rs[0].kind:10s} "
            f"passed {passed}/{len(applicable)}"
        )
        skipped = len(rs) - len(applicable)
        if skipped:
            line += f" (+{skipped} inapplicable)"
        lines.append(line)
    bad = failures(reports)
    lines.append(
        f"total {len(reports)} reports, {len(bad)} identity/theorem failures"
    )
    return "\n".join(lines)


# ------------------------------------------------------------ memoized facts

# The memo of one run_suite, scan_reports or ball_basics_reports call, keyed
# by (what, key) where key holds the complexes themselves, which hash once and
# compare by label table and facets, so equal complexes share ids and entries;
# None outside such a call, so a direct call of the functions below computes
# afresh.
_RUN_CACHE: dict | None = None
_MISSING = object()  # memoized values may be None


@contextlib.contextmanager
def _run_cache():
    """Open a run's memo, or join the one already open."""
    global _RUN_CACHE
    if _RUN_CACHE is not None:
        yield
        return
    _RUN_CACHE = {}
    try:
        yield
    finally:
        _RUN_CACHE = None


def _cached(what: str, key, compute: Callable):
    if _RUN_CACHE is None:
        return compute()
    value = _RUN_CACHE.get((what, key), _MISSING)
    if value is _MISSING:
        value = _RUN_CACHE[(what, key)] = compute()
    return value


def _h(c: SimplicialComplex) -> IntPoly:
    return _cached("h", c, lambda: h_poly(c))


def verified_boundary(c: SimplicialComplex) -> SimplicialComplex | None:
    """Boundary of c when c is a homology ball, else None.

    Certified by a shelling of c, found once per run for this and the
    sphere check: shelled, c is a ball whose boundary is its ridges in one
    facet, or a sphere and no ball when there are none.  Where the search
    stalls, is_homology_ball decides.
    """
    if c.is_void:
        raise PreconditionError("the void complex is not classifiable")

    def compute() -> SimplicialComplex | None:
        bd = _cached("shelled", c, lambda: shelled_boundary(c))
        if bd is None:
            return is_homology_ball(c)
        return None if bd.is_void else bd

    return _cached("ball", c, compute)


def _verified_sphere(c: SimplicialComplex) -> bool:
    def compute() -> bool:
        bd = _cached("shelled", c, lambda: shelled_boundary(c))
        return is_homology_sphere(c) if bd is None else bd.is_void

    return _cached("sphere", c, compute)


def theta_verified(c: SimplicialComplex) -> IntPoly:
    """theta of a verified ball, memoized; raises when c is not one."""

    def compute() -> IntPoly:
        if c.is_empty:
            return IntPoly.one()
        bd = verified_boundary(c)
        if bd is None:
            raise PreconditionError("not a verified homology ball")
        return _theta_of_h(_h(c), _h(bd), c.dim + 1)

    return _cached("theta", c, compute)


def _sd_h(c: SimplicialComplex) -> IntPoly:
    """h of the barycentric subdivision of c."""
    return _h(_built("sd", c).total)


def _sd_theta(c: SimplicialComplex) -> IntPoly:
    """theta of the barycentric subdivision of c, certified a ball."""
    return theta_verified(_built("sd", c).total)


def _cm(c: SimplicialComplex) -> bool:
    return _cached("cm", c, lambda: is_cohen_macaulay(c))


def _cm_star(c: SimplicialComplex) -> bool:
    return _cached("cm*", c, lambda: _cm(c) and is_cohen_macaulay_star(c))


# -------------------------------------------------- corpus and triangulations


def corpus() -> list[tuple[str, SimplicialComplex]]:
    """The fixed bases every suite runs over."""
    return [
        ("simplex0", simplex(["a"])),
        ("simplex1", simplex(["a", "b"])),
        ("simplex2", simplex(["a", "b", "c"])),
        ("simplex3", simplex(["a", "b", "c", "d"])),
        ("boundary2", boundary_simplex(["a", "b"])),
        ("boundary3", boundary_simplex(["a", "b", "c"])),
        ("boundary4", boundary_simplex(["a", "b", "c", "d"])),
        ("boundary5", boundary_simplex(["a", "b", "c", "d", "e"])),
        ("octahedron", octahedron()),
        ("path2", path(2)),
        ("path3", path(3)),
        ("cycle4", cycle(4)),
        ("cycle5", cycle(5)),
        ("cone_cycle4", cycle(4).cone("apex")),
        ("cone_octahedron", octahedron().cone("apex")),
        ("ball_5_2", example_5_2_ball()),
        ("ball_5_4", example_5_4_ball()),
    ]


def subdivision_kinds() -> list[tuple[str, Callable[[SimplicialComplex], Triangulation]]]:
    """Named triangulation constructors the suites apply to every base;
    "sd.stellar" is the barycentric subdivision of "stellar", composed."""
    return [
        ("identity", identity),
        ("sd", barycentric),
        ("antiprism", antiprism),
        ("stellar", lambda c: stellar(c, _facet_labels(c)[0])),
        ("esd2", lambda c: edgewise(c, 2)),
        ("esd3", lambda c: edgewise(c, 3)),
        ("sd.stellar", lambda c: _built("sd.stellar", c)),
    ]


def _built(kind: str, c: SimplicialComplex) -> Triangulation:
    """The triangulation of c of a kind named in subdivision_kinds(), built
    once per run.  A name "outer.inner" composes the outer kind of the inner
    kind's total with the inner triangulation."""

    def compute() -> Triangulation:
        outer, _, inner = kind.partition(".")
        if inner:
            tri = _built(inner, c)
            tri = compose(_built(outer, tri.total), tri)
        else:
            tri = dict(subdivision_kinds())[kind](c)
        return _with_h(tri)

    return _cached("tri", (kind, c), compute)


def _with_h(tri: Triangulation) -> Triangulation:
    """tri, the h of its total read off the carrier index into the run memo."""
    _cached("h", tri.total, lambda: _h_of_counts(_summed(tri._carrier_index().values())))
    return tri


def _base_faces(c: SimplicialComplex) -> list[Face]:
    """The faces of c in _sorted_faces order, once per run."""
    return _cached("faces", c, lambda: _sorted_faces(c))


def _base_links(c: SimplicialComplex) -> list[SimplicialComplex]:
    """The link of each face of _base_faces(c), once per run."""
    return _cached("links", c, lambda: [c._link_ids(f) for f in _base_faces(c)])


def _at_faces(at: Callable, tri: Triangulation) -> list:
    """at(tri, face) for each face of _base_faces(tri.base), once per run; at
    is _local_h_at or _restriction_theta."""
    return _cached("at faces", (at, tri), lambda: [at(tri, f) for f in _base_faces(tri.base)])


def _restriction_theta(tri: Triangulation, face: Face) -> IntPoly | None:
    """theta of the restriction of tri to a base face (ids), or None when
    the restriction is not a homology ball.  Taken on the first restriction
    of its carrier pattern in the run."""

    def compute() -> IntPoly | None:
        total = tri.restriction(face).total
        return None if verified_boundary(total) is None else theta_verified(total)

    return _cached("pattern", _carrier_pattern(tri, face), compute)


def _restriction_thetas(tri: Triangulation) -> list[IntPoly]:
    """theta of the restriction of tri to each face of _base_faces(tri.base);
    raises unless every one is a certified ball."""
    thetas = _at_faces(_restriction_theta, tri)
    if None in thetas:
        raise PreconditionError("not a verified homology ball")
    return thetas


def _local_h(tri: Triangulation) -> IntPoly:
    """local_h of a triangulation of a simplex, once per run."""
    return _cached("local h", tri, lambda: local_h(tri))


def _carrier_pattern(tri: Triangulation, face: Face) -> tuple:
    """The restriction G of tri to a base face E (ids), up to isomorphism.

    A vertex of G is named by its carrier, as a mask over E's positions, and
    its rank among the vertices with that carrier.  The pattern is G's face
    counts by size and its named largest faces.  A ball G is the complex of
    its largest faces, so a G' with the same pattern holds a renamed copy of
    G with as many faces: it is G renamed, whether or not tri was validated,
    and the renaming keeps carriers, so G' has G's certificate.
    """
    index = tri._carrier_index()
    subs = {0: 0}  # each submask of E, as base ids and as E's positions
    for i, b in enumerate(face):
        subs.update({m | 1 << b: r | 1 << i for m, r in list(subs.items())})
    carried = [(subs[m], index[m]) for m in subs if m in index]
    counts = _summed(entry for _, entry in carried)
    names = {v: (pos, r) for pos, (_, vs, _) in carried for r, v in enumerate(vs)}
    largest = frozenset(frozenset(names[v] for v in f) for _, (c, _, top) in carried
                        if len(c) == len(counts) for f in top)
    return counts, largest


def _summed(entries: Iterable[tuple]) -> tuple[int, ...]:
    """The face counts by size of carrier index entries, added up."""
    return tuple(map(sum, itertools.zip_longest(*(e[0] for e in entries), fillvalue=0)))


@_run_cache()
def triangulation_theta_flags(tri: Triangulation) -> ThetaClass:
    """The ThetaClass of tri, its restriction thetas from _restriction_thetas.

    theta_class computes the same class by building and certifying every
    restriction, as the reference.
    """

    def compute() -> ThetaClass:
        return _theta_class_of((t, len(f)) for f, t in zip(
            _base_faces(tri.base), _restriction_thetas(tri)) if f)

    return _cached("flags", tri, compute)


def _sorted_faces(c: SimplicialComplex):
    """The faces of c by size, then by their ids, which is their label order."""
    return sorted(c.faces(), key=lambda f: (len(f), f))


# ----------------------------------------------------------- identity checks


def verify_locality(tri: Triangulation, instance: str = "") -> VerificationReport:
    """h of the total complex as the local-h weighted sum over base links."""
    base = tri.base
    if not base.is_pure():
        raise PreconditionError("the locality identity needs a pure base")
    lhs = _h(tri.total)
    rhs = IntPoly.zero()
    for link, ell in zip(_base_links(base), _at_faces(_local_h_at, tri)):
        rhs = rhs + ell * _h(link)
    return VerificationReport(
        "Thm2.1", instance, lhs.text(), rhs.text(), lhs == rhs
    )


@_run_cache()
def verify_theta_formula(tri: Triangulation, instance: str = "") -> VerificationReport:
    """h of the total complex as the theta-weighted sum over subdivided links."""
    base = tri.base
    if not base.is_pure():
        raise PreconditionError("the theta formula needs a pure base")
    lhs = _h(tri.total)
    rhs = IntPoly.zero()
    for link, t in zip(_base_links(base), _restriction_thetas(tri)):
        rhs = rhs + t * _sd_h(link)
    return VerificationReport(
        "Eq3.3", instance, lhs.text(), rhs.text(), lhs == rhs
    )


@_run_cache()
def verify_kms(tri: Triangulation, instance: str = "") -> VerificationReport:
    """local h of a simplex triangulation as a theta-derangement convolution."""
    base = tri.base
    if not base.is_empty and len(base.facets) != 1:
        raise PreconditionError("the convolution needs a triangulated simplex")
    nverts = len(base.vertices)
    lhs = _local_h(tri)
    rhs = IntPoly.zero()
    for face, t in zip(_base_faces(base), _restriction_thetas(tri)):
        rhs = rhs + t * derangement_poly(nverts - len(face))
    return VerificationReport(
        "Eq3.4", instance, lhs.text(), rhs.text(), lhs == rhs
    )


# -------------------------------------------------------------- ball battery


def _centered_unimodal(p: IntPoly, n: int) -> bool:
    """Nondecreasing up to the center of a window-n symmetric polynomial."""
    c = p.padded(n + 1)
    return all(c[i] <= c[i + 1] for i in range(n // 2))


@_run_cache()
def ball_basics_reports(name: str, c: SimplicialComplex) -> list[VerificationReport]:
    """Symmetry, closed forms, positivity, and the symmetric decomposition of h.

    Emitted for every verified ball; statements whose hypotheses fail on the
    instance are reported as inapplicable.
    """
    bd = verified_boundary(c)
    if bd is None or c.is_empty:
        return []
    out: list[VerificationReport] = []
    n = c.dim + 1
    th = theta_verified(c)
    hp = _h(c)
    hbd = _h(bd)
    r = len(c.vertices) - len(bd.vertices)

    sym_ok = reverse(th, n) == th and th[0] == 0 and th[1] == r - 1
    out.append(VerificationReport(
        "Prop3.2", name, th.text(),
        f"window={n}, interior vertices={r}", sym_ok, kind="theorem",
        detail="symmetry, zero constant term, linear coefficient",
    ))

    if c.dim in (1, 2):
        expected = IntPoly([0, r - 1]) if c.dim == 1 else IntPoly([0, r - 1, r - 1])
        out.append(VerificationReport(
            "Ex3.3b", name, th.text(), expected.text(), th == expected,
            kind="theorem",
        ))
    if n >= 3:
        interior_edges = c.f_vector()[2] - bd.f_vector()[2]
        expected_c2 = interior_edges - len(c.vertices) - (n - 2) * r + n - 1
        out.append(VerificationReport(
            "Ex3.3d", name, str(th[2]), str(expected_c2),
            th[2] == expected_c2, kind="theorem",
            detail="coefficient of x^2 from interior counts",
        ))

    ivp = has_interior_vertex_property(c, bd)
    if ivp:
        out.append(VerificationReport(
            "Prop3.6a", name, th.text(), "0", is_nonnegative(th),
            kind="theorem",
        ))
        link_ok = True
        checked = 0
        for face in _sorted_faces(bd):
            lk = c.link(bd.labels_of(face))
            link_ok = link_ok and is_nonnegative(theta_verified(lk))
            checked += 1
        out.append(VerificationReport(
            "Prop3.6b", name, f"{checked} boundary faces", "0", link_ok,
            kind="theorem", detail="theta of every boundary-face link",
        ))
    else:
        out.append(_inapplicable("Prop3.6a", name, "no interior vertex property",
                                 lhs=th.text(), rhs="0"))

    dec = symmetric_decomposition(hp, n - 1)
    theta_shifted = IntPoly(th.coeffs[1:]) if th.coeffs else IntPoly.zero()
    eq51 = dec.a == hbd and dec.b == theta_shifted
    out.append(VerificationReport(
        "Eq5.1", name,
        f"a={dec.a.text()}; b={dec.b.text()}",
        f"h(bd)={hbd.text()}; theta/x={theta_shifted.text()}",
        eq51, kind="identity",
    ))

    hs = hp.padded(n + 1)
    top_heavy = all(hs[i] <= hs[n - 1 - i] for i in range((n - 1) // 2 + 1))
    out.append(VerificationReport(
        "Eq5.2", name, str(_centered_unimodal(th, n)), str(top_heavy),
        _centered_unimodal(th, n) == top_heavy, kind="theorem",
        detail="theta unimodality matches the h-vector inequalities",
    ))

    both_unimodal = _centered_unimodal(hbd, n - 1) and _centered_unimodal(th, n)
    alt = is_alternatingly_increasing(hp, n - 1)
    out.append(VerificationReport(
        "Eq5.3", name, str(alt), str(both_unimodal), alt == both_unimodal,
        kind="theorem",
        detail="alternatingly increasing h matches unimodal decomposition",
    ))

    induced = is_induced_subcomplex(bd, c)
    if induced:
        out.append(_unimodal_report("Thm5.1", name, th, "induced boundary"))
        half = all(hs[i] <= hs[i + 1] for i in range((n - 1) // 2))
        out.append(VerificationReport(
            "Eq5.4", name, str(tuple(hs[: (n - 1) // 2 + 1])), "nondecreasing",
            half, kind="theorem",
        ))
    else:
        out.append(_inapplicable("Thm5.1", name, "boundary is not induced",
                                 lhs=th.text(), rhs="unimodal"))
    return out


# --------------------------------------------------------------- monotonicity


@_run_cache()
def verify_monotonicity_a(
    ball: SimplicialComplex, tri: Triangulation, instance: str = ""
) -> VerificationReport:
    """theta grows under triangulation of a ball with interior vertices."""
    bd = verified_boundary(ball)
    if bd is None or ball.is_empty:
        raise PreconditionError("needs a verified ball of dimension >= 0")
    if tri.base != ball:
        raise PreconditionError("the triangulation must refine the given ball")
    if not has_interior_vertex_property(ball, bd):
        raise PreconditionError("the ball lacks the interior vertex property")
    lhs = theta_verified(tri.total)
    rhs = theta_verified(ball)
    return VerificationReport(
        "Thm4.1", instance, lhs.text(), rhs.text(), poly_geq(lhs, rhs),
        kind="theorem",
    )


def _monotone_proof_identities(
    ball: SimplicialComplex, tri: Triangulation, instance: str
) -> list[VerificationReport]:
    """The two expansions of theta of a triangulated ball over base faces.

    Both hold for every ball, with no positivity hypotheses: one through
    local h and links, one through restriction thetas and subdivided links.
    """
    bd = verified_boundary(ball)
    interior = interior_faces(ball, bd)
    lhs = theta_verified(tri.total)

    via_local = theta_verified(ball)
    via_theta = _sd_theta(ball)
    for face, link, ell, t in zip(_base_faces(ball), _base_links(ball),
                                  _at_faces(_local_h_at, tri),
                                  _restriction_thetas(tri)):
        if face in interior:
            via_local = via_local + ell * _h(link)
            via_theta = via_theta + t * _sd_h(link)
        elif face:
            via_local = via_local + ell * theta_verified(link)
            via_theta = via_theta + t * _sd_theta(link)
    return [
        VerificationReport(
            "Thm4.1proof", instance, lhs.text(), via_local.text(),
            lhs == via_local, kind="identity",
            detail="theta expansion through local h over links",
        ),
        VerificationReport(
            "Thm4.2proof", instance, lhs.text(), via_theta.text(),
            lhs == via_theta, kind="identity",
            detail="theta expansion through restriction thetas",
        ),
    ]


@_run_cache()
def verify_monotonicity_b(
    ball: SimplicialComplex, tri: Triangulation, instance: str = ""
) -> VerificationReport:
    """theta of a theta-positive triangulation dominates the barycentric one."""
    bd = verified_boundary(ball)
    if bd is None or ball.is_empty:
        raise PreconditionError("needs a verified ball of dimension >= 0")
    if tri.base != ball:
        raise PreconditionError("the triangulation must refine the given ball")
    flags = triangulation_theta_flags(tri)
    if not flags.positive:
        raise PreconditionError("the triangulation is not theta positive")
    lhs = theta_verified(tri.total)
    rhs = _sd_theta(ball)
    return VerificationReport(
        "Thm4.2", instance, lhs.text(), rhs.text(), poly_geq(lhs, rhs),
        kind="theorem",
    )


def _monotonicity_b_parts(
    ball: SimplicialComplex, tri: Triangulation, instance: str,
    flags: ThetaClass,
) -> list[VerificationReport]:
    n = ball.dim + 1
    lhs = theta_verified(tri.total)
    sd_theta = _sd_theta(ball)
    diff = lhs - sd_theta
    out = []
    if flags.unimodal:
        ok = _nonneg_unimodal(lhs) and _nonneg_unimodal(diff)
        out.append(VerificationReport(
            "Thm4.2a", instance, lhs.text(), diff.text(), ok, kind="theorem",
            detail="nonnegative and unimodal theta and difference",
        ))
    else:
        out.append(_inapplicable("Thm4.2a", instance, "not a theta unimodal triangulation"))
    if flags.gamma_positive:
        ok = is_gamma_positive(lhs, n) and is_gamma_positive(diff, n)
        out.append(VerificationReport(
            "Thm4.2b", instance, lhs.text(), diff.text(), ok, kind="theorem",
            detail="gamma-positive theta and difference",
        ))
    else:
        out.append(_inapplicable("Thm4.2b", instance,
                                 "not a theta gamma-positive triangulation"))
    return out


@_run_cache()
def verify_monotonicity_c(
    outer: SimplicialComplex, inner: SimplicialComplex, instance: str = "",
    expected_gap: IntPoly | None = None,
) -> VerificationReport:
    """theta comparison for a ball contained in a larger ball of equal dimension.

    When no facet of the outer ball lies entirely on the union of the two
    boundaries, theta of the outer ball dominates.  With expected_gap given,
    the exact identity theta(inner) = theta(outer) + gap is checked instead.
    """
    bd_outer = verified_boundary(outer)
    bd_inner = verified_boundary(inner)
    if bd_outer is None or bd_inner is None or outer.is_empty or inner.is_empty:
        raise PreconditionError("needs two verified balls")
    if not is_subcomplex(inner, outer):
        raise PreconditionError("the smaller ball must be a subcomplex")
    if inner.dim != outer.dim:
        raise PreconditionError("the balls must have equal dimension")
    t_outer = theta_verified(outer)
    t_inner = theta_verified(inner)
    if expected_gap is not None:
        lhs = t_inner
        rhs = t_outer + expected_gap
        return VerificationReport(
            "Rem4.7", instance, lhs.text(), rhs.text(), lhs == rhs,
            kind="identity", detail="exact gap after removing a pendant vertex",
        )
    if not no_facet_on_union_boundaries(outer, bd_outer, bd_inner):
        return _inapplicable("Thm4.6", instance,
                             "a facet lies on the union of the boundaries",
                             lhs=t_outer.text(), rhs=t_inner.text())
    return VerificationReport(
        "Thm4.6", instance, t_outer.text(), t_inner.text(),
        poly_geq(t_outer, t_inner), kind="theorem",
    )


def remark_4_7_instance() -> tuple[SimplicialComplex, SimplicialComplex, str]:
    """The canonical gap pair: the 4-fold edgewise cube of a tetrahedron.

    Returns (outer, inner, vertex): the corner vertex lies in a unique facet
    of the outer ball, and removing its star costs exactly x^2 of theta.
    """
    base = simplex(["a", "b", "c", "d"])
    outer = _cached("tri", ("esd4", base), lambda: _with_h(edgewise(base, 4))).total
    vertex = "a:4"
    containing = [f for f in outer.facets if vertex in outer.labels_of(f)]
    if len(containing) != 1:
        raise ConsistencyError("the corner vertex must lie in a unique facet")
    inner = outer.delete_vertex(vertex)
    return outer, inner, vertex


# ----------------------------------------------------------------- conjectures


@_run_cache()
def check_conjecture_5_3(
    c: SimplicialComplex, instance: str = ""
) -> VerificationReport:
    """gamma-positivity of theta for flag balls with induced boundary."""
    bd = verified_boundary(c) if not c.is_void else None
    reasons = []
    if bd is None or c.is_empty:
        reasons.append("not a verified ball")
    else:
        if not c.is_flag():
            reasons.append("not flag")
        if not is_induced_subcomplex(bd, c):
            reasons.append("boundary is not induced")
    if reasons:
        detail = ", ".join(reasons)
        if bd is not None and not c.is_empty:
            detail += f"; theta={theta_verified(c).text()}"
        return _inapplicable("Conj5.3", instance, detail, kind="conjecture")
    return _gamma_report(
        "Conj5.3", instance, theta_verified(c), c.dim + 1, kind="conjecture")


def _gamma_poly(c: SimplicialComplex) -> IntPoly:
    return _cached("gamma", c,
                   lambda: IntPoly(_sphere_gamma_of_h(_h(c), c.dim + 1).gammas))


def check_link_conjecture(
    c: SimplicialComplex, vertex: str, instance: str = ""
) -> VerificationReport:
    """Coefficientwise gamma domination of a flag sphere over a vertex link."""
    if not c.is_flag() or not _verified_sphere(c):
        return _inapplicable("Prop5.5ii", instance, "not a verified flag sphere",
                             kind="conjecture")
    g_sphere = _gamma_poly(c)
    g_link = _gamma_poly(c.link((vertex,)))
    return VerificationReport(
        "Prop5.5ii", instance, g_sphere.text(), g_link.text(),
        poly_geq(g_sphere, g_link), kind="conjecture",
    )


def _link_conjecture_cross_checks(
    c: SimplicialComplex, vertex: str, instance: str
) -> list[VerificationReport]:
    """Ties the vertex-deletion ball to the link inequality on one instance.

    The deletion is a ball whose boundary is the vertex link, its theta is
    h of the sphere minus (1+x) times h of the link, and gamma-positivity of
    that theta is the same verdict as the link inequality.
    """
    out = []
    deleted = c.delete_vertex(vertex)
    bd = verified_boundary(deleted)
    link = c.link((vertex,))
    n = c.dim + 1
    boundary_is_link = bd == link
    th = theta_verified(deleted) if bd is not None else None
    if th is None or not boundary_is_link:
        out.append(VerificationReport(
            "Prop5.5proof", instance, "", "", False, kind="identity",
            detail="vertex deletion did not produce a ball bounded by the link",
        ))
        return out
    expected = _h(c) - IntPoly((1, 1)) * _h(link)
    gv = gamma_vector(th, n)
    gamma_of_theta = IntPoly(gv.gammas) if gv is not None else None
    gamma_diff = _gamma_poly(c) - _gamma_poly(link)
    out.append(VerificationReport(
        "Prop5.5proof", instance, th.text(), expected.text(),
        th == expected and gamma_of_theta == gamma_diff,
        kind="identity",
        detail="theta of the deletion from sphere and link h-polynomials; "
               "its gamma vector is the difference of theirs",
    ))
    ineq = poly_geq(_gamma_poly(c), _gamma_poly(link))
    gamma_ok = is_gamma_positive(th, n)
    out.append(VerificationReport(
        "Prop5.5equiv", instance, str(gamma_ok), str(ineq), gamma_ok == ineq,
        kind="theorem",
        detail="gamma-positivity of the deletion matches the link inequality",
    ))
    ball_verdict = check_conjecture_5_3(deleted, instance)
    out.append(VerificationReport(
        "Prop5.5equiv", instance, str(ball_verdict.passed), str(ineq),
        (not ball_verdict.applicable) or (ball_verdict.passed == ineq),
        kind="theorem", detail="deleted-ball conjecture verdict agreement",
    ))
    return out


def _prop_5_6_report(name: str, c: SimplicialComplex) -> VerificationReport | None:
    """Gamma-positive symmetric decomposition versus its two components."""
    bd = verified_boundary(c)
    if bd is None or c.is_empty or not c.is_flag():
        return None
    if not is_induced_subcomplex(bd, c):
        return None
    n = c.dim + 1
    dec = symmetric_decomposition(_h(c), n - 1)
    parts_gamma = (
        is_gamma_positive(dec.a, n - 1) and is_gamma_positive(dec.b, n - 2)
    )
    components = (
        is_gamma_positive(theta_verified(c), n)
        and is_gamma_positive(_h(bd), n - 1)
    )
    return VerificationReport(
        "Prop5.6equiv", name, str(parts_gamma), str(components),
        parts_gamma == components, kind="theorem",
        detail="decomposition gamma-positivity matches theta and boundary",
    )


@_run_cache()
def scan_theta_zero(
    instances: Iterable[tuple[str, SimplicialComplex]]
) -> list[tuple[str, SimplicialComplex]]:
    """Verified balls among the instances whose theta vanishes."""
    out = []
    for name, c in instances:
        if c.is_void or c.is_empty:
            continue
        bd = verified_boundary(c)
        if bd is None:
            continue
        if theta_verified(c).is_zero():
            out.append((name, c))
    return out


# ------------------------------------------------------------------ generators


def _rng(seed: int, klass: str, dim: int, index: int) -> random.Random:
    return random.Random(f"thetalab:{seed}:{klass}:{dim}:{index}")


def _facet_labels(c: SimplicialComplex, faces=None) -> list[tuple[str, ...]]:
    """Label tuples of the facets of c, or of the given faces of c, sorted."""
    return sorted(map(c.labels_of, c.facets if faces is None else faces))


def _attach_fresh(c: SimplicialComplex, rng: random.Random,
                  boundary_only: bool) -> SimplicialComplex:
    """Glue a new simplex along one ridge, using a fresh vertex."""
    pool = boundary_subcomplex(c) if boundary_only else None
    if pool is not None and not pool.is_void and pool.dim == c.dim - 1:
        ridges = _facet_labels(pool)
    else:
        ridges = _facet_labels(c, c.faces_of_dim(c.dim - 1))
    ridge = rng.choice(ridges)
    new = fresh_label(c, "w")
    return SimplicialComplex.from_facets(_facet_labels(c) + [ridge + (new,)])


def _random_stellar(c: SimplicialComplex, rng: random.Random) -> SimplicialComplex:
    faces = [c.labels_of(f) for f in _sorted_faces(c) if f]
    return stellar(c, rng.choice(faces)).total


def _grow_ball(rng: random.Random, dim: int, target_vertices: int,
               allow_stellar: bool = True) -> SimplicialComplex:
    c = simplex([f"v{i}" for i in range(dim + 1)])
    while len(c.vertices) < target_vertices:
        if allow_stellar and rng.random() < 0.3:
            c = _random_stellar(c, rng)
        else:
            c = _attach_fresh(c, rng, boundary_only=True)
    return c


def _sphere_from_ball(ball: SimplicialComplex, apex: str) -> SimplicialComplex:
    bd = boundary_subcomplex(ball)
    facets = _facet_labels(ball) + [f + (apex,) for f in _facet_labels(bd)]
    return SimplicialComplex.from_facets(facets)


def _suspension(c: SimplicialComplex, north: str, south: str) -> SimplicialComplex:
    return SimplicialComplex.from_facets(
        f + (pole,) for f in _facet_labels(c) for pole in (north, south))


def _grow_flag_sphere(rng: random.Random, dim: int,
                      target_vertices: int) -> SimplicialComplex:
    c = cycle(rng.randint(4, 6))
    for level in range(dim - 1):
        c = _suspension(c, f"n{level}", f"s{level}")
    while len(c.vertices) < target_vertices:
        c = stellar(c, rng.choice(_facet_labels(c, c.faces_of_dim(1)))).total
    return c


MAX_INSTANCE_VERTICES = 12  # cap on the vertex budget of a generated instance


@dataclasses.dataclass(frozen=True)
class InstanceGenerator:
    """Seeded stream of verified random complexes of one class.

    Supported classes: ball, sphere, CM, flag-sphere, flag-ball.  Streams are
    reproducible: each instance is derived only from (seed, class, dimension,
    index), so the other instances asked for cannot change any of them.
    """

    seed: int
    klass: str
    max_dim: int = 3

    def _one(self, dim: int, index: int) -> SimplicialComplex:
        """The instance at (dim, index), made and certified once per run."""
        return _cached("instance", (self, dim, index), lambda: self._make(dim, index))

    def _make(self, dim: int, index: int) -> SimplicialComplex:
        rng = _rng(self.seed, self.klass, dim, index)
        budget = min(MAX_INSTANCE_VERTICES, dim + 2 + rng.randint(1, 5))
        if self.klass == "ball":
            c = _grow_ball(rng, dim, budget)
            if verified_boundary(c) is None:
                raise ConsistencyError("ball growth produced a non-ball")
            return c
        if self.klass == "sphere":
            ball = _grow_ball(rng, dim, budget - 1)
            c = _sphere_from_ball(ball, fresh_label(ball, "apex"))
            if not _verified_sphere(c):
                raise ConsistencyError("sphere construction failed")
            return c
        if self.klass == "CM":
            mode = rng.choice(["ball", "sphere", "loose"])
            if mode == "loose":
                for _ in range(6):
                    c = simplex([f"v{i}" for i in range(dim + 1)])
                    while len(c.vertices) < budget:
                        c = _attach_fresh(c, rng, boundary_only=False)
                    if is_cohen_macaulay(c):
                        return c
                mode = "ball"
            if mode == "sphere":
                ball = _grow_ball(rng, dim, budget - 1)
                return _sphere_from_ball(ball, fresh_label(ball, "apex"))
            return _grow_ball(rng, dim, budget)
        if self.klass == "flag-sphere":
            c = _grow_flag_sphere(rng, dim, budget)
            if not c.is_flag() or not _verified_sphere(c):
                raise ConsistencyError("flag sphere construction failed")
            return c
        if self.klass == "flag-ball":
            sphere = _grow_flag_sphere(rng, dim, budget)
            vertex = rng.choice(sphere.vertex_labels)
            c = sphere.delete_vertex(vertex)
            if rng.random() < 0.4:
                edges = _facet_labels(c, c.faces_of_dim(1))
                c = stellar(c, rng.choice(edges)).total
            if not c.is_flag() or verified_boundary(c) is None:
                raise ConsistencyError("flag ball construction failed")
            return c
        raise PreconditionError(f"unknown instance class {self.klass!r}")

    def instances(self, per_dim: int,
                  dims: Sequence[int] | None = None
                  ) -> list[tuple[str, SimplicialComplex]]:
        if dims is None:
            dims = range(1, self.max_dim + 1)
        out = []
        for dim in dims:
            for index in range(per_dim):
                name = f"{self.klass}[s{self.seed} d{dim} i{index}]"
                out.append((name, self._one(dim, index)))
        return out


def nested_ball_pairs(
    seed: int, max_dim: int, count: int
) -> list[tuple[str, SimplicialComplex, SimplicialComplex]]:
    """Pairs (name, inner, outer) of equal-dimension balls, inner inside outer.

    Grown by facet attachments only, so the earlier snapshot is a subcomplex
    of the later one.
    """
    out = []
    for dim in range(2, max_dim + 1):
        for index in range(count):
            rng = _rng(seed, "pair", dim, index)
            inner = _grow_ball(rng, dim, dim + 2 + rng.randint(0, 2),
                               allow_stellar=False)
            outer = inner
            extra = rng.randint(1, 3)
            for _ in range(extra):
                outer = _attach_fresh(outer, rng, boundary_only=True)
            name = f"pair[s{seed} d{dim} i{index}]"
            out.append((name, inner, outer))
    return out


# ------------------------------------------------------------------ the suites


def _triangulations_of(
    bases: list[tuple[str, SimplicialComplex]]
) -> list[tuple[str, str, SimplicialComplex, Triangulation]]:
    out = []
    for bname, base in bases:
        for kname, _ in subdivision_kinds():
            out.append((f"{kname}({bname})", kname, base, _built(kname, base)))
    return out


def _bases(max_dim: int) -> list[tuple[str, SimplicialComplex]]:
    return [(n, c) for n, c in corpus() if c.dim is not None and c.dim <= max_dim]


def _generated_balls(seed: int, max_dim: int, samples: int):
    gen = InstanceGenerator(seed, "ball", max_dim)
    return gen.instances(samples)


def _locality_reports(seed: int, max_dim: int, samples: int) -> list[VerificationReport]:
    bases = _bases(max_dim) + _generated_balls(seed, max_dim, max(1, samples // 2))
    return [
        verify_locality(tri, inst)
        for inst, _, _, tri in _triangulations_of(bases)
    ]


def _theta_reports(seed: int, max_dim: int, samples: int) -> list[VerificationReport]:
    bases = _bases(max_dim)
    generated = _generated_balls(seed, max_dim, samples)
    out: list[VerificationReport] = []
    for inst, kname, base, tri in _triangulations_of(bases):
        out.append(verify_theta_formula(tri, inst))
        out.extend(_h_corollary_reports(inst, kname, base, tri))
    for name, c in bases + generated:
        out.extend(ball_basics_reports(name, c))
    out.extend(_pnk_structure_reports(max_n=8))
    for name, c in bases:
        out.extend(_prop_2_3_reports(name, c))
    return out


def _h_corollary_reports(
    inst: str, kname: str, base: SimplicialComplex, tri: Triangulation
) -> list[VerificationReport]:
    """The h-polynomial conclusions drawn from theta classes of the cover."""
    ball = verified_boundary(base) is not None
    sphere = _verified_sphere(base)
    cm = _cm(base)
    cm_star = _cm_star(base)
    n = base.dim + 1
    out: list[VerificationReport] = []
    flags = triangulation_theta_flags(tri)
    h_total = _h(tri.total)
    h_sd = _sd_h(base)
    diff = h_total - h_sd

    if cm and flags.positive:
        out.append(VerificationReport(
            "Cor3.7a", inst, h_total.text(), h_sd.text(),
            poly_geq(h_total, h_sd), kind="theorem",
        ))
    if cm and flags.unimodal:
        out.append(VerificationReport(
            "Cor3.8a", inst, h_total.text(), f"peak in {_peak_window(n)}",
            _peaked(h_total, n), kind="theorem",
        ))
        out.append(_unimodal_report("Cor3.8a-diff", inst, diff))
    if sphere:
        if flags.unimodal:
            out.append(_unimodal_report("Cor3.9a", inst, h_total))
        if flags.gamma_positive:
            out.append(_gamma_report("Cor3.9a-gamma", inst, h_total, n))
            out.append(_gamma_report("Cor3.9a-gamma-diff", inst, diff, n))
    if cm_star and flags.unimodal:
        out.append(_decomposition_report(
            "Cor3.9b", inst, h_total, n, gamma=flags.gamma_positive))
    if ball and flags.unimodal:
        out.append(_decomposition_report(
            "Cor3.9c", inst, h_total, n - 1, gamma=flags.gamma_positive))

    if kname == "antiprism":
        if cm:
            out.append(VerificationReport(
                "Cor6.1a", inst, h_total.text(), f"peak in {_peak_window(n)}",
                is_nonnegative(h_total) and _peaked(h_total, n),
                kind="theorem",
            ))
        if sphere:
            out.append(_gamma_report("Cor6.1b", inst, h_total, n))
        if cm_star:
            out.append(_decomposition_report(
                "Cor6.1c", inst, h_total, n, gamma=True))
        if ball:
            out.append(_decomposition_report(
                "Cor6.1d", inst, h_total, n - 1, gamma=True))
    return out


def _nonneg_unimodal(p: IntPoly) -> bool:
    return is_nonnegative(p) and is_unimodal(p)


def _unimodal_report(
    ident: str, inst: str, p: IntPoly, detail: str = ""
) -> VerificationReport:
    return VerificationReport(
        ident, inst, p.text(), "unimodal", _nonneg_unimodal(p),
        kind="theorem", detail=detail,
    )


def _gamma_report(
    ident: str, inst: str, p: IntPoly, n: int, kind: str = "theorem"
) -> VerificationReport:
    return VerificationReport(
        ident, inst, p.text(), f"gamma-positive in window {n}",
        is_gamma_positive(p, n), kind=kind,
    )


def _peak_window(n: int) -> tuple[int, ...]:
    """Middle index of the coefficients 0..n, or the two middle ones for odd n."""
    return (n // 2,) if n % 2 == 0 else ((n - 1) // 2, (n + 1) // 2)


def _peaked(p: IntPoly, n: int) -> bool:
    c = p.padded(n + 1)
    for peak in _peak_window(n):
        up = all(c[i] <= c[i + 1] for i in range(peak))
        down = all(c[i] >= c[i + 1] for i in range(peak, n))
        if up and down:
            return True
    return False


def _decomposition_report(
    ident: str, inst: str, p: IntPoly, window: int, gamma: bool
) -> VerificationReport:
    try:
        dec = symmetric_decomposition(p, window)
    except (ConsistencyError, PreconditionError) as exc:
        return VerificationReport(
            ident, inst, p.text(), "", False, kind="theorem", detail=str(exc)
        )
    ok = _nonneg_unimodal(dec.a) and _nonneg_unimodal(dec.b)
    if gamma:
        ok = ok and (dec.a.is_zero() or is_gamma_positive(dec.a, window))
        ok = ok and (dec.b.is_zero() or is_gamma_positive(dec.b, window - 1))
    return VerificationReport(
        ident, inst, f"a={dec.a.text()}", f"b={dec.b.text()}", ok,
        kind="theorem",
        detail="unimodal parts" + (" and gamma-positive" if gamma else ""),
    )


def _pnk_structure_reports(max_n: int) -> list[VerificationReport]:
    """Reversal symmetry and decomposability of the subdivision transform rows."""
    out = []
    for n in range(max_n + 1):
        row_ok = all(
            reverse(pnk(n, k), n) == pnk(n, n - k) for k in range(n + 1)
        )
        out.append(VerificationReport(
            "Prop2.2", f"p[{n},*]", f"{n + 1} polynomials",
            "reversal symmetry", row_ok, kind="theorem",
        ))
        lemma_ok = True
        for k in range((n + 1) // 2, n + 1):
            dec = symmetric_decomposition(pnk(n, k), n)
            lemma_ok = lemma_ok and is_nonnegative(dec.a) and is_nonnegative(dec.b)
            lemma_ok = lemma_ok and is_real_rooted(dec.a) and is_real_rooted(dec.b)
        out.append(VerificationReport(
            "Lem2.4", f"p[{n},*]", "symmetric decompositions",
            "nonnegative and real-rooted", lemma_ok, kind="theorem",
        ))
    return out


def _prop_2_3_reports(name: str, c: SimplicialComplex) -> list[VerificationReport]:
    """Three-part decomposition of h of the barycentric subdivision.

    Constructive witness: split each transform row at its own center and
    group the halves by the three centers of symmetry.
    """
    if c.is_empty or c.is_void or not _cm(c):
        return []
    n = c.dim + 1
    hs = _h(c).padded(n + 1)
    low = IntPoly.zero()
    mid = IntPoly.zero()
    high = IntPoly.zero()
    for k in range(n + 1):
        if hs[k] == 0:
            continue
        if 2 * k >= n:
            # p[n,k] = a + x b with a symmetric about n/2, b about (n-1)/2
            dec = symmetric_decomposition(pnk(n, k), n)
            mid = mid + dec.a * hs[k]
            high = high + IntPoly((0,) + dec.b.coeffs) * hs[k]
        else:
            # reversal carries the split of p[n,n-k] to p[n,k] = a + b
            dec = symmetric_decomposition(pnk(n, n - k), n)
            mid = mid + dec.a * hs[k]
            low = low + dec.b * hs[k]
    h_sd = _sd_h(c)
    total_ok = low + mid + high == h_sd
    parts_ok = True
    for part, center in ((low, n - 1), (mid, n), (high, n + 1)):
        if part.is_zero():
            continue
        parts_ok = parts_ok and _nonneg_unimodal(part)
        parts_ok = parts_ok and is_symmetric(part, center)
    peak_ok = _peaked(h_sd, n)
    return [VerificationReport(
        "Prop2.3", name,
        f"low={low.text()}; mid={mid.text()}; high={high.text()}",
        h_sd.text(), total_ok and parts_ok and peak_ok, kind="theorem",
        detail="three symmetric unimodal parts with adjacent centers",
    )]


def _kms_reports(seed: int, max_dim: int, samples: int) -> list[VerificationReport]:
    simplex_bases = [
        (n, c) for n, c in _bases(max_dim) if len(c.facets) == 1
    ]
    out: list[VerificationReport] = []
    for inst, _, base, tri in _triangulations_of(simplex_bases):
        out.append(verify_kms(tri, inst))
        out.extend(_local_h_corollary_reports(inst, base, tri))
    out.extend(_derangement_reports(max_n=6))
    out.extend(_iterated_local_h_reports(max_dim))
    return out


def _local_h_corollary_reports(
    inst: str, base: SimplicialComplex, tri: Triangulation
) -> list[VerificationReport]:
    nverts = len(base.vertices)
    flags = triangulation_theta_flags(tri)
    ell = _local_h(tri)
    d_n = derangement_poly(nverts)
    out = []
    if flags.positive:
        out.append(VerificationReport(
            "Cor3.7b", inst, ell.text(), d_n.text(), poly_geq(ell, d_n),
            kind="theorem",
        ))
    if flags.unimodal:
        out.append(_unimodal_report("Cor3.8b", inst, ell))
    if flags.gamma_positive:
        out.append(_gamma_report("Cor3.8b-gamma", inst, ell, nverts))
    return out


def _derangement_reports(max_n: int) -> list[VerificationReport]:
    return [_gamma_report("d_n-gamma", f"d_{n}", derangement_poly(n), n)
            for n in range(max_n + 1)]


def _twice_subdivided(max_dim: int, outer: tuple[str, ...]):
    """(dim, simplex, inner kind, outer kind) for each twice-subdivided
    simplex of dimension 1 to max_dim; the antiprism of a stellar or esd2
    inner subdivision is taken up to dimension 2 only."""
    for dim in range(1, max_dim + 1):
        base = simplex([f"v{i}" for i in range(dim + 1)])
        for iname in ("identity", "stellar", "esd2"):
            for oname in outer:
                if oname != "antiprism" or dim <= 2 or iname == "identity":
                    yield dim, base, iname, oname


def _iterated_local_h_reports(max_dim: int) -> list[VerificationReport]:
    """Local h of twice-subdivided simplexes: domination and gamma checks.

    Covers the unimodality and gamma-positivity statements for
    triangulations of triangulations, and the gamma-positivity of the
    antiprism of any simplex triangulation.
    """
    out = []
    for dim, base, iname, oname in _twice_subdivided(max_dim, ("sd", "antiprism", "esd2")):
        nverts = dim + 1
        ell_sd = _local_h(_built(f"sd.{iname}", base))
        inst = f"{oname}({iname}(simplex{dim}))"
        ell = _local_h(_built(f"{oname}.{iname}", base))
        flags = triangulation_theta_flags(_built(oname, _built(iname, base).total))
        if flags.unimodal:
            ok = _nonneg_unimodal(ell) and _nonneg_unimodal(ell - ell_sd)
            out.append(VerificationReport(
                "Cor4.4", inst, ell.text(), ell_sd.text(), ok,
                kind="theorem", detail="unimodal, dominates sd",
            ))
        if flags.gamma_positive:
            ok = is_gamma_positive(ell, nverts) and is_gamma_positive(
                ell - ell_sd, nverts)
            out.append(VerificationReport(
                "Cor4.4-gamma", inst, ell.text(), ell_sd.text(), ok,
                kind="theorem",
            ))
        if oname == "antiprism":
            out.append(_gamma_report("Cor6.2", inst, ell, nverts))
    return out


def _monotone_reports(seed: int, max_dim: int, samples: int) -> list[VerificationReport]:
    bases = _bases(max_dim) + _generated_balls(seed, max_dim, max(1, samples // 2))
    ball_bases = []
    for name, c in bases:
        if not c.is_void and not c.is_empty and verified_boundary(c) is not None:
            ball_bases.append((name, c))

    out: list[VerificationReport] = []
    for inst, _, base, tri in _triangulations_of(ball_bases):
        out.extend(_monotone_instance_reports(inst, base, tri))
    for name, c in ball_bases:
        out.extend(_rem43_reports(name, c))
    out.extend(_remark_4_7_reports())
    out.extend(_pair_reports(seed, max_dim, samples))
    return out


def _monotone_instance_reports(
    inst: str, base: SimplicialComplex, tri: Triangulation
) -> list[VerificationReport]:
    return [
        _gated("Thm4.1", verify_monotonicity_a, base, tri, inst),
        *_monotone_proof_identities(base, tri, inst),
        _gated("Thm4.2", verify_monotonicity_b, base, tri, inst),
        *_monotonicity_b_parts(base, tri, inst, triangulation_theta_flags(tri)),
    ]


def _gated(ident: str, check: Callable, ball: SimplicialComplex, tri: Triangulation,
           inst: str) -> VerificationReport:
    """check(ball, tri, inst), or the inapplicable ident report when check
    refuses its hypotheses."""
    try:
        return check(ball, tri, inst)
    except PreconditionError as exc:
        return _inapplicable(ident, inst, str(exc))


def _rem43_reports(name: str, c: SimplicialComplex) -> list[VerificationReport]:
    bd = verified_boundary(c)
    closed = theta_sd_closed_form(c, bd)
    direct = _sd_theta(c)
    out = [VerificationReport(
        "Rem4.3", name, closed.text(), direct.text(), closed == direct,
        kind="identity", detail="closed form against the built subdivision",
    )]
    out.append(VerificationReport(
        "Rem4.3ineq", name, direct.text(), theta_verified(c).text(),
        poly_geq(direct, theta_verified(c)), kind="theorem",
        detail="barycentric subdivision does not decrease theta",
    ))
    return out


def _remark_4_7_reports() -> list[VerificationReport]:
    outer, inner, vertex = remark_4_7_instance()
    gap = IntPoly((0, 0, 1))
    inst = f"esd4(simplex3) minus star({vertex})"
    out = [verify_monotonicity_c(outer, inner, inst, expected_gap=gap)]
    ivp = has_interior_vertex_property(outer, verified_boundary(outer))
    out.append(VerificationReport(
        "Rem4.7", inst, str(ivp), "False", not ivp, kind="theorem",
        detail="the gap family never has the interior vertex property",
    ))
    return out


def _pair_reports(seed: int, max_dim: int, samples: int) -> list[VerificationReport]:
    pairs = list(nested_ball_pairs(seed, max_dim, samples))
    # barycentric labels depend only on the carrier face, so subdividing a
    # sub-ball yields a labeled subcomplex of the subdivided ball; every
    # facet then owns an interior facet barycenter, satisfying the
    # no-boundary-facet hypothesis nontrivially
    for name, inner, outer in list(pairs):
        pairs.append((
            f"sd-{name}", _built("sd", inner).total, _built("sd", outer).total,
        ))
    out = []
    for name, inner, outer in pairs:
        try:
            out.append(verify_monotonicity_c(outer, inner, name))
        except PreconditionError as exc:
            out.append(_inapplicable("Thm4.6", name, str(exc)))
            continue
        # verify_monotonicity_c certified both boundaries
        if (has_interior_vertex_property(inner, verified_boundary(inner))
                and has_interior_vertex_property(outer, verified_boundary(outer))):
            holds = poly_geq(theta_verified(outer), theta_verified(inner))
            out.append(VerificationReport(
                "Q4.5", name, theta_verified(outer).text(),
                theta_verified(inner).text(), holds, kind="evidence",
                detail="both balls have the interior vertex property",
            ))
    return out


def _conjecture_reports(seed: int, max_dim: int, samples: int) -> list[VerificationReport]:
    out: list[VerificationReport] = []
    flag_balls = [("ball_5_4", example_5_4_ball())]
    flag_balls += InstanceGenerator(seed, "flag-ball", max_dim).instances(
        samples, dims=range(2, max_dim + 1))
    for name, c in flag_balls:
        if c.dim is not None and c.dim > max_dim:
            continue
        out.extend(_conjecture_ball_reports(name, c))

    flag_spheres = [("octahedron", octahedron()),
                    ("cross4", cross_polytope_boundary(4)),
                    ("cycle5", cycle(5))]
    flag_spheres += InstanceGenerator(seed, "flag-sphere", max_dim).instances(
        samples, dims=range(1, max_dim + 1))
    for name, c in flag_spheres:
        if c.dim is not None and c.dim > max_dim:
            continue
        out.extend(_sphere_link_reports(name, c))
    out.extend(_theta_zero_reports(seed, max_dim, samples))
    out.extend(_real_rootedness_reports(max_dim))
    return out


def _conjecture_ball_reports(name: str, c: SimplicialComplex) -> list[VerificationReport]:
    out = [check_conjecture_5_3(c, name)]
    extra = _prop_5_6_report(name, c)
    if extra is not None:
        out.append(extra)
    return out


def _sphere_link_reports(name: str, c: SimplicialComplex) -> list[VerificationReport]:
    out = []
    vertices = c.vertex_labels
    if c.dim is not None and c.dim >= 3 and len(vertices) > 4:
        rng = _rng(0, "linkpick", c.dim, len(vertices))
        vertices = sorted(rng.sample(vertices, 4))
    for v in vertices:
        inst = f"{name}@{v}"
        out.append(check_link_conjecture(c, v, inst))
        if out[-1].applicable:
            out.extend(_link_conjecture_cross_checks(c, v, inst))
    return out


def _theta_zero_reports(seed: int, max_dim: int, samples: int) -> list[VerificationReport]:
    instances = [(n, c) for n, c in _bases(max_dim)]
    instances.append(("esd4(simplex3)", remark_4_7_instance()[0]))
    instances += _generated_balls(seed, max_dim, samples)
    hits = scan_theta_zero(instances)
    hit_names = {n for n, _ in hits}
    out = []
    for name, c in instances:
        if c.is_void or c.is_empty or verified_boundary(c) is None:
            continue
        out.append(VerificationReport(
            "Q3.10", name, theta_verified(c).text(), "0",
            True, kind="evidence",
            detail="theta vanishes" if name in hit_names else "theta is nonzero",
        ))
    return out


def _real_rootedness_reports(max_dim: int) -> list[VerificationReport]:
    """Real-rootedness scan of local h under repeated subdivisions."""
    out = []
    for dim, base, iname, oname in _twice_subdivided(max_dim, ("sd", "antiprism")):
        ell = _local_h(_built(f"{oname}.{iname}", base))
        inst = f"{oname}({iname}(simplex{dim}))"
        out.append(VerificationReport(
            "Q6.3", inst, ell.text(), "real-rooted",
            is_real_rooted(ell), kind="evidence",
        ))
    return out


def _check_max_dim(max_dim: int) -> None:
    # at 5 a full run takes seconds and hundreds of MB; beyond it, minutes
    if max_dim < 1:
        raise PreconditionError("max_dim must be at least 1")
    if max_dim > 5:
        raise PreconditionError("max_dim must be at most 5")


def scan_reports(
    kind: str, seed: int = 0, max_dim: int = 3, samples: int = 3
) -> list[VerificationReport]:
    """Evidence reports for one exploratory scan: theta-zero or real-rooted."""
    _check_max_dim(max_dim)
    with _run_cache():
        if kind == "theta-zero":
            return _theta_zero_reports(seed, max_dim, samples)
        if kind == "real-rooted":
            return _real_rootedness_reports(max_dim)
    raise PreconditionError(
        f"unknown scan kind {kind!r}; use theta-zero or real-rooted")


def run_suite(
    suite: str = "all", seed: int = 0, max_dim: int = 3, samples: int = 3
) -> list[VerificationReport]:
    """Run one named suite (or all of them) and return its reports.

    Reports come back in a deterministic order for fixed arguments.
    """
    if suite not in SUITES:
        raise PreconditionError(f"unknown suite {suite!r}; choose from {SUITES}")
    _check_max_dim(max_dim)
    out: list[VerificationReport] = []
    with _run_cache():
        for name, reports in (("locality", _locality_reports), ("theta", _theta_reports),
                              ("kms", _kms_reports), ("monotone", _monotone_reports),
                              ("conjectures", _conjecture_reports)):
            if suite in (name, "all"):
                out += reports(seed, max_dim, samples)
    return out
