"""Acceptance suite: ten standalone criteria, one test (and one -v line) each.

Expected polynomials are frozen here as literal coefficient tuples; nothing
below recomputes an expectation through the code under test.  Wall-clock
budgets are asserted where the criterion states one.
"""

import time

from thetalab import (
    IntPoly,
    barycentric,
    boundary_subcomplex,
    derangement_poly,
    derangement_poly_by_excedance,
    example_5_2_ball,
    example_5_4_ball,
    h_poly,
    has_interior_vertex_property,
    is_gamma_positive,
    is_homology_ball,
    is_induced_subcomplex,
    is_nonnegative,
    is_real_rooted,
    is_unimodal,
    pnk,
    simplex,
    symmetric_decomposition,
    theta,
    theta_sd_closed_form,
)
from thetalab.harness import (
    check_conjecture_5_3,
    corpus,
    failures,
    remark_4_7_instance,
    run_suite,
)
from thetalab.subdivisions import antiprism

P = IntPoly


def test_criterion_01_p_tables():
    start = time.monotonic()
    expected_3 = {
        0: (1, 4, 1),
        1: (0, 4, 2),
        2: (0, 2, 4),
        3: (0, 1, 4, 1),
    }
    expected_4 = {
        0: (1, 11, 11, 1),
        1: (0, 8, 14, 2),
        2: (0, 4, 16, 4),
        3: (0, 2, 14, 8),
        4: (0, 1, 11, 11, 1),
    }
    for k, coeffs in expected_3.items():
        assert pnk(3, k) == P(coeffs), f"p[3,{k}]"
    for k, coeffs in expected_4.items():
        assert pnk(4, k) == P(coeffs), f"p[4,{k}]"
    assert time.monotonic() - start < 1.0


def test_criterion_02_example_5_2():
    start = time.monotonic()
    ball = example_5_2_ball()
    bd = boundary_subcomplex(ball)
    th = theta(ball, bd)
    assert h_poly(ball) == P((1, 3, 2, 2))
    assert h_poly(bd) == P((1, 2, 2, 1))
    assert th == P((0, 1, 0, 1))
    assert not (is_nonnegative(th) and is_unimodal(th))
    assert is_unimodal(th) is False
    assert is_induced_subcomplex(bd, ball) is False
    assert has_interior_vertex_property(ball, bd) is True
    assert time.monotonic() - start < 1.0


def test_criterion_03_example_5_4():
    ball = example_5_4_ball()
    bd = boundary_subcomplex(ball)
    th = theta(ball, bd)
    assert h_poly(ball) == P((1, 7, 6, 2))
    assert h_poly(bd) == P((1, 6, 6, 1))
    assert th == P((0, 1, 0, 1))
    assert not is_gamma_positive(th, ball.dim + 1)
    assert len(ball.vertices) == 11
    assert len(ball.facets) == 16
    assert len(bd.vertices) == 9
    assert len(bd.facets) == 14
    assert ball.is_flag()


def test_criterion_04_identity_suites():
    start = time.monotonic()
    reports = []
    for suite in ("locality", "theta", "kms"):
        reports += run_suite(suite, seed=0, max_dim=3, samples=3)
    for ident in ("Thm2.1", "Eq3.3", "Eq3.4"):
        group = [r for r in reports if r.identity == ident and r.applicable]
        assert group, ident
        bad = [r for r in group if not r.passed]
        assert not bad, f"{ident}: {len(bad)} failures of {len(group)}"
    # every named construction participates
    instances = " ".join(r.instance for r in reports)
    for kind in ("sd(", "antiprism(", "stellar(", "esd2(", "esd3(",
                 "sd.stellar("):
        assert kind in instances, kind
    assert time.monotonic() - start < 300.0


def test_criterion_05_ball_theta_basics():
    reports = run_suite("theta", seed=0, max_dim=3, samples=3)
    for ident in ("Prop3.2", "Ex3.3b", "Ex3.3d"):
        group = [r for r in reports if r.identity == ident and r.applicable]
        assert group, ident
        assert all(r.passed for r in group), ident
    # the closed forms fired in both low dimensions and dimension >= 3
    dims_b = {r.instance for r in reports if r.identity == "Ex3.3b" and r.applicable}
    assert any("path" in i or "cycle" in i or "simplex1" in i for i in dims_b)
    assert any("ball_5" in i or "cone" in i
               for i in (r.instance for r in reports
                         if r.identity == "Ex3.3d" and r.applicable))


def test_criterion_06_monotonicity():
    reports = run_suite("monotone", seed=0, max_dim=3, samples=3)
    assert not failures(reports)
    for ident in ("Thm4.1", "Thm4.2", "Thm4.2a", "Thm4.2b", "Thm4.1proof",
                  "Thm4.2proof"):
        group = [r for r in reports if r.identity == ident and r.applicable]
        assert group and all(r.passed for r in group), ident

    # closed form for theta of the barycentric subdivision, on corpus balls
    checked = 0
    for name, c in corpus():
        if c.is_void or c.is_empty:
            continue
        bd = is_homology_ball(c)
        if bd is None:
            continue
        sd_total = barycentric(c).total
        assert theta_sd_closed_form(c, bd) == theta(sd_total), name
        checked += 1
    assert checked >= 8

    # removing the corner vertex of the 4-fold edgewise tetrahedron
    outer, inner, _ = remark_4_7_instance()
    gap = [r for r in reports if r.identity == "Rem4.7" and r.kind == "identity"]
    assert gap and all(r.applicable and r.passed for r in gap)
    assert theta(inner) == theta(outer) + P.monomial(2)
    assert outer.dim + 1 == 4


def test_criterion_07_antiprism_theta_real_rooted():
    start = time.monotonic()
    for size in range(2, 6):
        base = simplex([f"v{i}" for i in range(size)])
        tri = antiprism(base)
        th = theta(tri.total)
        assert th.degree == size - 1
        assert is_real_rooted(th), size
    # |V| = 1 gives a point with theta zero, trivially real-rooted
    assert theta(antiprism(simplex(["v0"])).total).is_zero()
    assert time.monotonic() - start < 120.0


def test_criterion_08_derangement_polynomials():
    for n in range(8):
        assert derangement_poly(n) == derangement_poly_by_excedance(n), n
    for n in range(9):
        assert is_gamma_positive(derangement_poly_by_excedance(n), n), n


def test_criterion_09_conjecture_scan():
    reports = run_suite("conjectures", seed=0, max_dim=3, samples=3)
    assert not failures(reports)
    conjectures = [r for r in reports if r.kind == "conjecture"]
    assert any(r.identity == "Conj5.3" and r.applicable for r in conjectures)
    assert any(r.identity == "Prop5.5ii" and r.applicable for r in conjectures)
    counterexamples = [r for r in conjectures if r.applicable and not r.passed]
    for r in counterexamples:
        # conjectural claims: findings are reported, never failed
        print(f"counterexample: {r.to_json()}")
    # the known flag ball with non-gamma-positive theta is filtered by the
    # hypotheses, with its theta recorded for inspection
    report = check_conjecture_5_3(example_5_4_ball(), "ball_5_4")
    assert not report.applicable
    assert "theta=x + x^3" in report.detail


def test_criterion_10_symmetric_decomposition_of_balls():
    checked = 0
    for name, c in corpus():
        if c.is_void or c.is_empty:
            continue
        bd = is_homology_ball(c)
        if bd is None:
            continue
        n = c.dim + 1
        dec = symmetric_decomposition(h_poly(c), n - 1)
        th = theta(c, bd)
        assert dec.a == h_poly(bd), name
        assert dec.b.shift(1) == th, name
        checked += 1
    assert checked >= 8
