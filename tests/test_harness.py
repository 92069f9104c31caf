"""Verification harness: suites, report plumbing, generators, scans."""

import dataclasses
import json
import sys
from collections import Counter

import pytest

from thetalab import (
    ConsistencyError,
    IntPoly,
    PreconditionError,
    SimplicialComplex,
    Triangulation,
    barycentric,
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
    certify = harness.is_homology_ball

    def counted(c):
        calls.append(c)
        return certify(c)

    monkeypatch.setattr(harness, "is_homology_ball", counted)
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
                        assert harness._restriction_ball(tri, face) == (expected, True), (
                            kind, name, base.labels_of(face))


def test_restriction_theta_certifies_each_carrier_pattern():
    # the edge ab with a point x carried by ab has the same largest faces as
    # the edge ab alone; only the face counts tell the two patterns apart
    edge = identity(simplex("ab"))
    total = SimplicialComplex.from_facets([("a", "b"), ("x",)])
    carriers = {("a",): ("a",), ("b",): ("b",), ("x",): ("a", "b")}
    bad = Triangulation(simplex("ab"), total, carriers, validate=False)
    with harness._run_cache():
        assert harness._restriction_ball(edge, edge.base.facets[0]) == (theta(simplex("ab")), True)
        assert harness._restriction_ball(bad, bad.base.facets[0]) is None
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
    # the second route: every total over a certified ball that is not a
    # simplex inherits a boundary equal, ids and all, to is_homology_ball's
    base = dict(corpus())[name]
    with harness._run_cache():
        inherits = len(base.facets) > 1 and verified_boundary(base) is not None
        for kind, _ in subdivision_kinds():
            tri = harness._built(kind, base)
            inherited = harness._inherited_boundary(tri)
            assert (inherited is not None) == inherits, kind
            if inherited is not None:
                expected = is_homology_ball(tri.total)
                assert (inherited.table, inherited.facets) == (
                    expected.table, expected.facets), kind
                assert verified_boundary(tri.total) == expected, kind


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


def test_run_suite_keeps_no_face_set_of_an_inherited_total():
    # an inherited certificate needs no face set of the total, unless the
    # total is the base of another built triangulation, whose validate reads
    # the base's faces as the allowed carriers; the carrier index keeps only
    # the faces of the largest size at each mask
    with harness._run_cache():
        run_suite("all", seed=0)
        memo = harness._RUN_CACHE
        made = [tri for (what, _), tri in memo.items() if what == "made by"]
        inherited = [tri for tri in made if harness._inherited_boundary(tri) is not None]
        built = [tri for (what, _), tri in memo.items() if what == "tri"]
        bases = {id(tri.base) for tri in built}
    assert inherited and built
    assert [tri for tri in inherited if tri.total._all_faces is not None
            and id(tri.total) not in bases] == []
    for tri in built:
        for counts, _, top in tri._carrier_index().values():
            assert len(top) == counts[-1] and {len(f) for f in top} == {len(counts) - 1}


def test_run_suite_certifies_no_total_over_a_non_simplex_base(monkeypatch):
    totals, certified = set(), []
    built, certify = harness._built, harness.is_homology_ball

    def recorded(kind, c):
        tri = built(kind, c)
        if kind != "identity" and len(c.facets) > 1:
            totals.add(tri.total.facet_labelsets())
        return tri

    def counted(c, *args):
        certified.append(c.facet_labelsets())
        return certify(c, *args)

    monkeypatch.setattr(harness, "_built", recorded)
    monkeypatch.setattr(harness, "is_homology_ball", counted)
    run_suite("all", seed=0)
    assert totals and certified
    assert not totals.intersection(certified)


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
        balls = harness._at_faces(harness._restriction_ball, tri)
        assert None not in balls
        assert harness._restriction_ball(tri, base.face("abc"))[1] is False
        assert harness._inherited_boundary(tri) is None
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
    certify = harness.is_homology_ball

    def counted(c):
        calls.append(c)
        return certify(c)

    monkeypatch.setattr(harness, "is_homology_ball", counted)
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


def test_base_face_records_keep_id_orders_apart():
    # one base numbered two ways: faces are ids, so a run that checks both
    # must report as separate runs do
    facets = [("a", "b", "c"), ("a", "c", "d"), ("c", "d", "e"), ("d", "e", "f")]
    labels = list("fedcba")
    forward = SimplicialComplex.from_facets(facets)
    backward = SimplicialComplex.from_facets(
        [[labels.index(v) for v in f] for f in facets], labels=labels)
    assert forward == backward and forward.table != backward.table
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
    # the memo is keyed by the complexes, which compare by label: two equal
    # balls on different id orders are certified once
    facets = [("a", "b", "c"), ("b", "c", "d"), ("c", "d", "e")]
    labels = list("cebda")
    forward = SimplicialComplex.from_facets(facets)
    other = SimplicialComplex.from_facets(
        [[labels.index(v) for v in f] for f in facets], labels=labels)
    assert forward == other and forward.facets != other.facets
    calls = []

    def counted(c):
        calls.append(c)
        return is_homology_ball(c)

    monkeypatch.setattr(harness, "is_homology_ball", counted)
    with harness._run_cache():
        assert verified_boundary(forward) == verified_boundary(other)
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
    # sphere checks are the run's certificates, taken once per complex
    made, balls, spheres = [], [], []
    make = InstanceGenerator._make
    ball, sphere = harness.is_homology_ball, harness.is_homology_sphere

    def counted_make(self, dim, index):
        made.append((self, dim, index))
        return make(self, dim, index)

    def counted_ball(c):
        balls.append(c.facet_labelsets())
        return ball(c)

    def counted_sphere(c):
        spheres.append(c.facet_labelsets())
        return sphere(c)

    monkeypatch.setattr(InstanceGenerator, "_make", counted_make)
    monkeypatch.setattr(harness, "is_homology_ball", counted_ball)
    monkeypatch.setattr(harness, "is_homology_sphere", counted_sphere)
    run_suite("all", seed=0, max_dim=2, samples=1)
    for calls in (made, balls, spheres):
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
