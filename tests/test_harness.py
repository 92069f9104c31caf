"""Verification harness: suites, report plumbing, generators, scans."""

import ast
import dataclasses
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from thetalab import (
    ConsistencyError,
    IntPoly,
    PreconditionError,
    SimplicialComplex,
    Triangulation,
    barycentric,
    boundary_simplex,
    boundary_subcomplex,
    cycle,
    example_5_2_ball,
    example_5_4_ball,
    identity,
    is_homology_ball,
    local_h,
    octahedron,
    path,
    simplex,
    theta,
    theta_class,
)
from thetalab import harness, invariants
from thetalab.harness import (
    InstanceGenerator,
    VerificationReport,
    check_conjecture_5_3,
    check_link_conjecture,
    corpus,
    failures,
    nested_ball_pairs,
    remark_4_7_instance,
    run_suite,
    scan_reports,
    scan_theta_zero,
    subdivision_kinds,
    summarize,
    theta_verified,
    triangulation_theta_flags,
    verified_boundary,
    verify_kms,
    verify_locality,
    verify_monotonicity_a,
    verify_monotonicity_b,
    verify_monotonicity_c,
    verify_theta_formula,
)

P = IntPoly


# ----------------------------------------------------------------- reports


def test_report_json_round_trip():
    r = VerificationReport("Eq3.3", "sd(octahedron)", "1 + x", "1 + x", True)
    data = json.loads(r.to_json())
    assert data == {
        "identity": "Eq3.3",
        "instance": "sd(octahedron)",
        "lhs": "1 + x",
        "rhs": "1 + x",
        "passed": True,
        "kind": "identity",
        "applicable": True,
        "detail": "",
    }


def test_report_json_equals_the_asdict_route():
    # to_json dumps the fields without asdict's deep copy; asdict is the
    # reference route
    reports = run_suite("all", seed=0, max_dim=2)
    assert reports
    for r in reports:
        assert r.to_json() == json.dumps(dataclasses.asdict(r), sort_keys=True)


def test_report_rejects_unknown_kind():
    with pytest.raises(PreconditionError):
        VerificationReport("X", "i", "", "", True, kind="hunch")


def test_failures_filters_by_kind_and_applicability():
    bad_identity = VerificationReport("A", "i", "1", "2", False)
    bad_theorem = VerificationReport("B", "i", "1", "2", False, kind="theorem")
    bad_conjecture = VerificationReport("C", "i", "1", "2", False, kind="conjecture")
    skipped = VerificationReport("D", "i", "", "", False, kind="identity",
                                 applicable=False)
    out = failures([bad_identity, bad_theorem, bad_conjecture, skipped])
    assert [r.identity for r in out] == ["A", "B"]


def test_summarize_counts():
    reports = [
        VerificationReport("A", "x", "1", "1", True),
        VerificationReport("A", "y", "", "", True, applicable=False, detail="skip"),
        VerificationReport("B", "z", "1", "2", False, kind="conjecture"),
    ]
    text = summarize(reports)
    assert "A" in text and "passed 1/1" in text and "+1 inapplicable" in text
    assert text.strip().endswith("3 reports, 0 identity/theorem failures")


# ------------------------------------------------------------- fixed inputs


def test_corpus_names_are_unique():
    names = [name for name, _ in corpus()]
    assert len(names) == len(set(names))
    assert "octahedron" in names and "ball_5_4" in names


def test_subdivision_kinds_all_build():
    base = simplex("abc")
    for name, maker in subdivision_kinds():
        tri = maker(base)
        assert tri.base == base, name


def test_verified_boundary_and_theta_verified():
    assert verified_boundary(octahedron()) is None
    assert verified_boundary(simplex("abc")) is not None
    assert theta_verified(example_5_2_ball()) == P((0, 1, 0, 1))
    with pytest.raises(PreconditionError):
        theta_verified(octahedron())


def _disk_and_annulus():
    """A triangle beside an annulus of 8 triangles between two 4-cycles: its
    Euler characteristics are a disk's and a circle's, but it is no ball."""
    annulus = []
    for i in range(4):
        j = (i + 1) % 4
        annulus += [(f"a{i}", f"a{j}", f"b{i}"), (f"a{j}", f"b{i}", f"b{j}")]
    return SimplicialComplex.from_facets([("x", "y", "z")] + annulus)


def test_large_non_ball_is_not_verified():
    c = barycentric(barycentric(_disk_and_annulus()).total).total
    assert len(c.faces()) == 1018
    assert c.reduced_euler() == 0 and boundary_subcomplex(c).reduced_euler() == -1
    assert verified_boundary(c) is None
    with pytest.raises(PreconditionError):
        theta_verified(c)


def test_ball_basics_certifies_each_complex_once(monkeypatch):
    calls = []
    certify = harness.shelled_boundary

    def counted(c):
        calls.append(c)
        return certify(c)

    monkeypatch.setattr(harness, "shelled_boundary", counted)
    harness.ball_basics_reports("x", example_5_2_ball())
    assert len(calls) == 17
    assert harness._RUN_CACHE is None
    calls.clear()
    with harness._run_cache():
        harness.ball_basics_reports("x", example_5_2_ball())
    assert len(calls) == 17
    calls.clear()
    ball = cycle(4).cone("c")
    verify_monotonicity_a(ball, barycentric(ball))
    assert calls.count(ball) == 1


def test_reference_fallback_certifies_a_ball_and_a_sphere(monkeypatch):
    # with every shelling search stalled, is_homology_ball and
    # is_homology_sphere decide, and one run's memo asks each of them once
    calls = Counter()

    def counted(name):
        reference = getattr(harness, name)

        def call(c):
            calls[name, c] += 1
            return reference(c)
        return call

    monkeypatch.setattr(harness, "shelled_boundary", lambda c: None)
    for name in ("is_homology_ball", "is_homology_sphere"):
        monkeypatch.setattr(harness, name, counted(name))
    ball, sphere = example_5_2_ball(), octahedron()
    expected = is_homology_ball(ball)
    with harness._run_cache():
        for _ in range(2):
            bd = verified_boundary(ball)
            assert (bd.table, bd.facets) == (expected.table, expected.facets)
            assert harness._verified_sphere(sphere) is True
    assert calls == Counter({("is_homology_ball", ball): 1,
                             ("is_homology_sphere", sphere): 1})


@pytest.mark.parametrize("name", [name for name, _ in corpus()])
def test_restriction_local_h_matches_rebuilt_restrictions(name):
    base = dict(corpus())[name]
    for kind, maker in subdivision_kinds():
        tri = maker(base)
        for face in base.faces():
            if face:
                assert harness._local_h_at(tri, face) == local_h(tri.restriction(face)), (
                    kind, base.labels_of(face))


def test_theta_flags_match_the_reference_theta_class():
    # restriction thetas shared by carrier pattern against theta_class,
    # which builds and certifies every restriction
    bases = [(n, c) for n, c in corpus() if c.dim <= 2 or n == "simplex3"]
    for name, base in bases:
        for kind, maker in subdivision_kinds():
            tri = maker(base)
            assert triangulation_theta_flags(tri) == theta_class(tri), (kind, name)


def test_restriction_theta_matches_theta_of_the_restriction():
    # one run, so thetas are shared across faces, kinds and bases
    bases = [(n, c) for n, c in corpus() if c.dim <= 2 or n == "simplex3"]
    with harness._run_cache():
        for name, base in bases:
            for kind, maker in subdivision_kinds():
                tri = maker(base)
                for face in base.faces():
                    if face:
                        expected = theta(tri.restriction(face).total)
                        assert harness._restriction_theta(tri, face) == expected, (
                            kind, name, base.labels_of(face))


def test_restriction_theta_certifies_each_carrier_pattern():
    # the edge ab with a point x carried by ab has the same largest faces as
    # the edge ab alone; only the face counts tell the two patterns apart
    edge = identity(simplex("ab"))
    total = SimplicialComplex.from_facets([("a", "b"), ("x",)])
    carriers = {("a",): ("a",), ("b",): ("b",), ("x",): ("a", "b")}
    bad = Triangulation(simplex("ab"), total, carriers, validate=False)
    with harness._run_cache():
        assert harness._restriction_theta(edge, edge.base.facets[0]) == theta(simplex("ab"))
        assert harness._restriction_theta(bad, bad.base.facets[0]) is None
        with pytest.raises(PreconditionError, match="not a verified homology ball"):
            harness._restriction_thetas(bad)


def test_run_suite_builds_each_carrier_pattern_once(monkeypatch):
    patterns = []
    restriction = Triangulation.restriction

    def counted(self, face):
        patterns.append(harness._carrier_pattern(self, self.base._face_arg(face)))
        return restriction(self, face)

    monkeypatch.setattr(Triangulation, "restriction", counted)
    run_suite("all", seed=0, max_dim=2, samples=1)
    assert patterns and len(set(patterns)) == len(patterns)


@pytest.mark.parametrize("name", [name for name, _ in corpus()])
def test_carrier_pattern_counts_the_faces_of_the_restriction(name):
    # the counts key the run memo's certificate sharing: they are the face
    # counts by size of the restriction, the empty face first
    base = dict(corpus())[name]
    for kind, maker in subdivision_kinds():
        tri = maker(base)
        for face in base.faces():
            counts, _ = harness._carrier_pattern(tri, face)
            assert counts == tri.restriction(face).total.f_vector(), (
                kind, base.labels_of(face))


@pytest.mark.parametrize("name", [name for name, _ in corpus()])
def test_inherited_boundary_matches_is_homology_ball(name):
    # a total is certified exactly when its base is, with the boundary
    # is_homology_ball computes, ids and all
    base = dict(corpus())[name]
    with harness._run_cache():
        base_bd = verified_boundary(base)
        for kind, _ in subdivision_kinds():
            tri = harness._built(kind, base)
            expected = is_homology_ball(tri.total)
            certified = verified_boundary(tri.total)
            assert (certified is None) == (expected is None) == (base_bd is None), kind
            if certified is not None:
                assert (certified.table, certified.facets) == (
                    expected.table, expected.facets), kind


@pytest.mark.parametrize("base", [c for _, c in corpus()]
                         + [simplex("abcde"[:n]) for n in range(1, 6)])
def test_h_of_the_carrier_index_matches_h_poly(base):
    # _built enters each total's h in the run memo from the index counts;
    # h_poly enumerates the total's faces and is the reference
    with harness._run_cache():
        for kind, _ in subdivision_kinds():
            tri = harness._built(kind, base)
            assert harness._summed(tri._carrier_index().values()) == tri.total.f_vector()
            assert harness._h(tri.total) == invariants.h_poly(tri.total), kind


def test_run_suite_keeps_no_face_set_of_a_built_total(monkeypatch):
    # complexes cache no faces: after a run, no slot of any memo complex but
    # its facets holds faces, and faces() enumerates afresh on every call; a
    # shelling reads the facets alone, so certifying a built total enumerates
    # none of its faces; the carrier index keeps only the faces of the
    # largest size at each mask
    enumerated, shelling = [], []
    faces, certify = SimplicialComplex.faces, harness.shelled_boundary

    def counted(c):
        if shelling:
            enumerated.append(c)
        return faces(c)

    def shelled(c):
        shelling.append(c)
        try:
            return certify(c)
        finally:
            shelling.pop()

    monkeypatch.setattr(SimplicialComplex, "faces", counted)
    monkeypatch.setattr(harness, "shelled_boundary", shelled)
    with harness._run_cache():
        run_suite("all", seed=0)
        memo = dict(harness._RUN_CACHE)
    built = [tri for (what, _), tri in memo.items() if what == "tri"]
    assert [tri for tri in built if ("shelled", tri.total) in memo] and enumerated == []
    complexes = {id(c): c for c in _memo_complexes(list(memo.items()))}
    assert len(complexes) > 1000
    for c in complexes.values():
        held = [getattr(c, slot) for slot in SimplicialComplex.__slots__ if slot != "_facets"]
        assert not [v for v in held if isinstance(v, (tuple, set, frozenset))
                    and any(isinstance(f, tuple) for f in v)]
    for tri in built:
        first, second = tri.total.faces(), tri.total.faces()
        assert type(first) is frozenset and first == second and first is not second
        for counts, _, top in tri._carrier_index().values():
            assert len(top) == counts[-1] and {len(f) for f in top} == {len(counts) - 1}


def _memo_complexes(obj):
    """The complexes in a run memo key or value, with the base and total of
    each triangulation, searching tuples, lists and sets."""
    if isinstance(obj, SimplicialComplex):
        yield obj
    elif isinstance(obj, Triangulation):
        yield from (obj.base, obj.total)
    elif isinstance(obj, (tuple, list, set, frozenset)):
        for item in obj:
            yield from _memo_complexes(item)


def test_every_memo_complex_numbers_its_vertices_in_label_order():
    # one numbering per complex: every complex a run builds, links, boundaries
    # and triangulations included, has its label table in sorted order
    with harness._run_cache():
        run_suite("all", seed=0)
        memo = dict(harness._RUN_CACHE)
    complexes = list(_memo_complexes(list(memo.items())))
    assert len({id(c) for c in complexes}) > 1000
    unsorted = [c for c in complexes if c.vertex_labels != tuple(sorted(c.vertex_labels))]
    assert unsorted == []


def test_run_suite_certifies_no_total_over_a_non_simplex_base(monkeypatch):
    # the reference checks run only where the shelling search stalls, and no
    # built total stalls
    totals, stalled, referred = set(), set(), []
    built, shelled = harness._built, harness.shelled_boundary

    def recorded(kind, c):
        tri = built(kind, c)
        if kind != "identity" and len(c.facets) > 1:
            totals.add(tri.total.facet_labelsets())
        return tri

    def searched(c):
        bd = shelled(c)
        if bd is None:
            stalled.add(c.facet_labelsets())
        return bd

    def reference(check):
        def counted(c, *args):
            referred.append(c.facet_labelsets())
            return check(c, *args)
        return counted

    monkeypatch.setattr(harness, "_built", recorded)
    monkeypatch.setattr(harness, "shelled_boundary", searched)
    for name in ("is_homology_ball", "is_homology_sphere"):
        monkeypatch.setattr(harness, name, reference(getattr(harness, name)))
    run_suite("all", seed=0)
    assert totals and not totals.intersection(stalled)
    assert set(referred) <= stalled and len(referred) <= 1


def test_ear_refuses_the_inherited_certificate(monkeypatch):
    # the disk {abc, abd} with an ear x over abc, the triangle axb glued to
    # abc along ab: it passes validate and every restriction is a ball, but
    # the boundary of the disk over abc has the edges ax and bx, not ab, and
    # ab lies in three triangles of the total, which is no ball
    base = SimplicialComplex.from_facets(["abc", "abd"])
    carriers = {**{(v,): (v,) for v in "abcd"}, ("x",): ("a", "b", "c")}
    tri = Triangulation(base, SimplicialComplex.from_facets(["abc", "axb", "abd"]),
                        carriers)
    kinds = subdivision_kinds() + [("ear", lambda c: tri)]
    monkeypatch.setattr(harness, "subdivision_kinds", lambda: kinds)
    with harness._run_cache():
        assert harness._built("ear", base) is tri
        assert None not in harness._at_faces(harness._restriction_theta, tri)
        disk = tri.restriction(base.face("abc")).total
        assert frozenset("ab") not in verified_boundary(disk).facet_labelsets()
        assert verified_boundary(base) is not None
        assert verified_boundary(tri.total) is None
    assert is_homology_ball(tri.total) is None


def _hexagon_cone(carriers: dict[str, str]) -> Triangulation:
    total = SimplicialComplex.from_facets(
        [("o", f"v{i}", f"v{(i + 1) % 6}") for i in range(6)])
    return Triangulation(
        simplex("abc"), total, {(v,): tuple(c) for v, c in carriers.items()})


def test_theta_flags_tell_apart_triangulations_with_equal_complexes():
    # one base, one total, two carrier maps: the run memo must not mix them
    split = _hexagon_cone({"v0": "a", "v1": "b", "v2": "c", "v3": "ac",
                           "v4": "ac", "v5": "ac", "o": "abc"})
    even = _hexagon_cone({"v0": "a", "v1": "ab", "v2": "b", "v3": "bc",
                          "v4": "c", "v5": "ac", "o": "abc"})
    assert split.base == even.base and split.total == even.total
    assert not theta_class(split).positive
    flags = theta_class(even)
    assert flags.positive and flags.unimodal and flags.gamma_positive
    with harness._run_cache():
        assert triangulation_theta_flags(split) == theta_class(split)
        assert triangulation_theta_flags(even) == theta_class(even)


# ------------------------------------------------------------- single checks


def test_verify_locality_identity_case():
    tri = barycentric(simplex("abc"))
    r = verify_locality(tri, instance="sd(triangle)")
    assert r.passed and r.identity == "Thm2.1"


def test_verify_theta_formula():
    tri = barycentric(path(3))
    r = verify_theta_formula(tri, instance="sd(path3)")
    assert r.passed and r.identity == "Eq3.3"


def test_verify_kms_needs_simplex_base():
    r = verify_kms(barycentric(simplex("abc")), instance="sd")
    assert r.passed and r.identity == "Eq3.4"
    with pytest.raises(PreconditionError):
        verify_kms(barycentric(path(2)))


def test_monotonicity_a():
    ball = cycle(4).cone("c")
    r = verify_monotonicity_a(ball, barycentric(ball), "sd(cone)")
    assert r.passed and r.kind == "theorem"
    # a simplex has no interior vertex
    with pytest.raises(PreconditionError):
        verify_monotonicity_a(simplex("abc"), barycentric(simplex("abc")))


def test_monotonicity_a_rejects_foreign_triangulation():
    with pytest.raises(PreconditionError):
        verify_monotonicity_a(cycle(4).cone("c"), barycentric(simplex("abc")))


def test_monotonicity_b():
    ball = cycle(4).cone("c")
    r = verify_monotonicity_b(ball, barycentric(ball), "sd(cone)")
    assert r.passed and r.identity == "Thm4.2"
    # the identity triangulation of a simplex has negative restriction thetas
    with pytest.raises(PreconditionError):
        verify_monotonicity_b(simplex("abc"), identity(simplex("abc")))


def test_monotonicity_c_gap_identity():
    outer, inner, vertex = remark_4_7_instance()
    assert vertex == "a:4"
    r = verify_monotonicity_c(outer, inner, "edgewise corner",
                              expected_gap=P.monomial(2))
    assert r.passed and r.identity == "Rem4.7"
    assert theta(inner) == theta(outer) + P.monomial(2)


def test_monotonicity_c_preconditions():
    outer, inner, _ = remark_4_7_instance()
    with pytest.raises(PreconditionError):
        verify_monotonicity_c(inner, outer)  # not a subcomplex this way round
    with pytest.raises(PreconditionError):
        verify_monotonicity_c(outer, simplex("abc"))  # dimension mismatch


def test_conjecture_5_3_applicable_case():
    ball = cycle(5).cone("c")  # flag 2-ball with induced boundary
    r = check_conjecture_5_3(ball, "cone over pentagon")
    assert r.applicable and r.passed and r.kind == "conjecture"


def test_conjecture_5_3_flags_example_5_4_inapplicable():
    r = check_conjecture_5_3(example_5_4_ball(), "ball_5_4")
    assert not r.applicable and r.passed
    assert "boundary is not induced" in r.detail
    assert "x + x^3" in r.detail  # the offending theta is recorded


def test_conjecture_5_3_non_flag():
    r = check_conjecture_5_3(example_5_2_ball(), "ball_5_2")
    assert not r.applicable
    assert "not flag" in r.detail


@pytest.mark.parametrize("c, vertex", [
    (boundary_simplex("abcd"), "a"),  # a sphere, not flag
    (path(3), "v0"),  # flag, not a sphere
])
def test_link_conjecture_inapplicable(c, vertex):
    assert check_link_conjecture(c, vertex, "x") == VerificationReport(
        "Prop5.5ii", "x", "", "", True, kind="conjecture", applicable=False,
        detail="not a verified flag sphere")


def test_link_conjecture():
    r = check_link_conjecture(octahedron(), "x1", "octahedron/x1")
    assert r.passed
    r = check_link_conjecture(cycle(6), "v0", "cycle6/v0")
    assert r.passed


# ------------------------------------------------------------------- scans


def test_scan_theta_zero_membership():
    hits = dict(scan_theta_zero(corpus()))
    assert "cone_cycle4" in hits and "cone_octahedron" in hits
    assert "ball_5_2" not in hits
    assert "octahedron" not in hits  # not a ball at all


def test_scan_theta_zero_certifies_each_ball_once(monkeypatch):
    calls = []
    certify = harness.shelled_boundary

    def counted(c):
        calls.append(c)
        return certify(c)

    monkeypatch.setattr(harness, "shelled_boundary", counted)
    scan_theta_zero([("x", example_5_2_ball())])
    assert len(calls) == 1


def test_scan_reports_theta_zero():
    reports = scan_reports("theta-zero", seed=0, max_dim=2, samples=1)
    assert reports and all(r.identity == "Q3.10" for r in reports)
    assert all(r.kind == "evidence" for r in reports)
    details = {r.detail for r in reports}
    assert any("vanishes" in d for d in details)


def test_scan_reports_bad_kind():
    with pytest.raises(PreconditionError):
        scan_reports("everything")


# -------------------------------------------------------------- generators


def test_instance_generator_reproducible():
    a = InstanceGenerator(7, "ball", max_dim=2).instances(2)
    b = InstanceGenerator(7, "ball", max_dim=2).instances(2)
    assert [(n, c) for n, c in a] == [(n, c) for n, c in b]
    c = InstanceGenerator(8, "ball", max_dim=2).instances(2)
    assert [x for _, x in a] != [x for _, x in c]


def test_instance_generator_classes():
    for klass, check in [
        ("ball", lambda c: verified_boundary(c) is not None),
        ("sphere", lambda c: c.reduced_euler() in (1, -1)),
        ("flag-ball", lambda c: c.is_flag()),
    ]:
        for _, c in InstanceGenerator(3, klass, max_dim=2).instances(1):
            assert check(c), klass
    with pytest.raises(PreconditionError):
        InstanceGenerator(0, "widget")._one(1, 0)


def test_nested_ball_pairs():
    from thetalab import is_subcomplex

    pairs = nested_ball_pairs(seed=1, max_dim=2, count=2)
    assert pairs
    for _, inner, outer in pairs:
        assert is_subcomplex(inner, outer)
        assert inner.dim == outer.dim


# ------------------------------------------------------------------ suites


def test_run_suite_all_small():
    reports = run_suite("all", seed=0, max_dim=2, samples=2)
    assert not failures(reports)
    idents = {r.identity for r in reports}
    for required in ("Thm2.1", "Eq3.3", "Eq3.4", "Thm4.1", "Thm4.2",
                     "Prop3.2", "Eq5.1", "Conj5.3", "Prop5.5ii"):
        assert required in idents, required


@pytest.mark.parametrize("seed", [0, 1])
def test_inapplicable_reports_pass_and_name_the_unmet_hypothesis(seed):
    skipped = [r for r in run_suite("all", seed=seed) if not r.applicable]
    assert skipped
    for r in skipped:
        assert r.passed and r.detail and r.kind in ("theorem", "conjecture"), r


def test_only_the_inapplicable_constructor_sets_applicable():
    # VerificationReport's seventh positional field is applicable
    tree = ast.parse(Path(harness.__file__).read_text(encoding="utf-8"))
    allowed = {id(node) for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and fn.name == "_inapplicable"
               for node in ast.walk(fn)}
    found = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "VerificationReport" and id(node) not in allowed
        and (len(node.args) > 6 or any(k.arg == "applicable" for k in node.keywords))
    ]
    assert not found


def test_run_suite_repeats_within_one_process():
    first = run_suite("theta", seed=2, max_dim=2, samples=1)
    assert first == run_suite("theta", seed=2, max_dim=2, samples=1)


def test_run_suite_builds_each_triangulation_once(monkeypatch):
    # stellar is exempt: the instance generator calls it on growing complexes
    def key(arg):
        if isinstance(arg, SimplicialComplex):
            return arg.facet_labelsets()
        if isinstance(arg, Triangulation):
            return key(arg.base), key(arg.total)
        return arg

    calls = []
    for name in ("identity", "barycentric", "antiprism", "edgewise", "compose"):
        def counted(*args, _name=name, _build=getattr(harness, name)):
            calls.append((_name, *map(key, args)))
            return _build(*args)

        monkeypatch.setattr(harness, name, counted)
    run_suite("all", seed=0, max_dim=2, samples=1)
    repeated = [call[0] for call, n in Counter(calls).items() if n > 1]
    assert calls and not repeated, repeated


def test_run_suite_takes_each_h_once(monkeypatch):
    # theta and the gamma vectors of spheres read h from the run memo too;
    # h_vector serves the closed forms, second routes that take their own h
    calls = []
    h_poly = invariants.h_poly

    def counted(c):
        if sys._getframe(1).f_code.co_name != "h_vector":
            calls.append(c.facet_labelsets())
        return h_poly(c)

    monkeypatch.setattr(invariants, "h_poly", counted)
    monkeypatch.setattr(harness, "h_poly", counted)
    run_suite("all", seed=0, max_dim=2, samples=1)
    assert calls and len(set(calls)) == len(calls)


def test_run_suite_builds_each_link_and_local_h_once(monkeypatch):
    # the base-face records: the harness builds each base face's link once
    # and takes each local h of a triangulation at a base face once, and
    # local_h of each triangulation of a simplex once
    links, local_hs, local_h_runs = [], [], []
    link_ids, local_h_at = SimplicialComplex._link_ids, harness._local_h_at
    local_h_run = invariants._local_h_at

    def counted_link(self, face):
        if sys._getframe(1).f_globals["__name__"] == harness.__name__:
            links.append((self.facet_labelsets(), frozenset(self.labels_of(face))))
        return link_ids(self, face)

    def counted_local_h(tri, face):
        local_hs.append((tri, frozenset(tri.base.labels_of(face))))
        return local_h_at(tri, face)

    def counted_local_h_run(tri, face):
        local_h_runs.append((tri, frozenset(tri.base.labels_of(face))))
        return local_h_run(tri, face)

    monkeypatch.setattr(SimplicialComplex, "_link_ids", counted_link)
    monkeypatch.setattr(harness, "_local_h_at", counted_local_h)
    monkeypatch.setattr(invariants, "_local_h_at", counted_local_h_run)
    run_suite("all", seed=0, max_dim=2, samples=1)
    for calls in (links, local_hs, local_h_runs):
        repeated = [call for call, n in Counter(calls).items() if n > 1]
        assert calls and not repeated, repeated[:3]


def test_base_face_records_match_separate_runs():
    # one base given by labels and by ids into a reversed table: both get the
    # sorted numbering, and a run that checks both reports as separate runs do
    facets = [("a", "b", "c"), ("a", "c", "d"), ("c", "d", "e"), ("d", "e", "f")]
    labels = list("fedcba")
    forward = SimplicialComplex.from_facets(facets)
    backward = SimplicialComplex.from_facets(
        [[labels.index(v) for v in f] for f in facets], labels=labels)
    assert forward == backward and forward.table == backward.table
    tris = [maker(base) for base in (forward, backward) for _, maker in subdivision_kinds()]

    def checks(tri):
        return (verify_locality(tri), verify_theta_formula(tri),
                triangulation_theta_flags(tri))

    separate = []
    for tri in tris:
        with harness._run_cache():
            separate.append(checks(tri))
    with harness._run_cache():
        assert [checks(tri) for tri in tris] == separate


def test_run_memo_takes_equal_complexes_as_one_key(monkeypatch):
    # the memo is keyed by the complexes: two equal balls, one built from
    # labels and one from ids into a shuffled table, are certified once
    facets = [("a", "b", "c"), ("b", "c", "d"), ("c", "d", "e")]
    labels = list("cebda")
    forward = SimplicialComplex.from_facets(facets)
    other = SimplicialComplex.from_facets(
        [[labels.index(v) for v in f] for f in facets], labels=labels)
    assert forward == other and forward is not other
    calls = []

    certify = harness.shelled_boundary

    def counted(c):
        calls.append(c)
        return certify(c)

    monkeypatch.setattr(harness, "shelled_boundary", counted)
    with harness._run_cache():
        assert verified_boundary(forward) == verified_boundary(other)
        assert not harness._verified_sphere(other)
    assert calls == [forward]


def test_run_memo_compares_an_equal_key_once(monkeypatch):
    # a lookup that finds an equal complex stored under another object
    # compares the two once, not once to test and once to read
    ball = cycle(4).cone("c")
    same = SimplicialComplex.from_facets([ball.labels_of(f) for f in ball.facets])
    assert same == ball and same is not ball
    compared = []
    equal = SimplicialComplex.__eq__

    def counted(self, other):
        compared.append(other)
        return equal(self, other)

    with harness._run_cache():
        harness._cached("h", ball, lambda: "stored")
        monkeypatch.setattr(SimplicialComplex, "__eq__", counted)
        assert harness._cached("h", same, lambda: "computed") == "stored"
    assert len(compared) == 1


def test_run_suite_makes_and_certifies_each_instance_once(monkeypatch):
    # the generators' instances come from the run memo, and their ball and
    # sphere checks are the run's certificates, read off one shelling per
    # complex
    made, shelled = [], []
    make, certify = InstanceGenerator._make, harness.shelled_boundary

    def counted_make(self, dim, index):
        made.append((self, dim, index))
        return make(self, dim, index)

    def counted_shelling(c):
        shelled.append(c.facet_labelsets())
        return certify(c)

    monkeypatch.setattr(InstanceGenerator, "_make", counted_make)
    monkeypatch.setattr(harness, "shelled_boundary", counted_shelling)
    run_suite("all", seed=0, max_dim=2, samples=1)
    for calls in (made, shelled):
        repeated = [call for call, n in Counter(calls).items() if n > 1]
        assert calls and not repeated, repeated[:3]


def test_run_cache_lives_only_inside_a_run(monkeypatch):
    assert harness._RUN_CACHE is None
    verified_boundary(simplex("abc"))
    assert harness._RUN_CACHE is None
    seen = []

    def fail(seed, max_dim, samples):
        seen.append(len(harness._RUN_CACHE))
        raise ConsistencyError("stop partway")

    monkeypatch.setattr(harness, "_kms_reports", fail)
    with pytest.raises(ConsistencyError):
        run_suite("all", seed=0, max_dim=1, samples=1)
    assert seen and seen[0] > 0
    assert harness._RUN_CACHE is None
    assert run_suite("locality", seed=0, max_dim=1, samples=1)
    assert harness._RUN_CACHE is None


def test_run_suite_seed_reproducible():
    again = run_suite("locality", seed=3, max_dim=1, samples=2)
    assert again == run_suite("locality", seed=3, max_dim=1, samples=2)


def test_run_suite_validation():
    with pytest.raises(PreconditionError):
        run_suite("everything")
    with pytest.raises(PreconditionError):
        run_suite("all", max_dim=0)
    with pytest.raises(PreconditionError):
        run_suite("all", max_dim=6)
