"""h, interior h, theta, local h, gamma, and the subdivision closed forms."""

import pytest
from hypothesis import given, settings, strategies as st

from thetalab import (
    ConsistencyError,
    IntPoly,
    PreconditionError,
    SimplicialComplex,
    barycentric,
    boundary_simplex,
    boundary_subcomplex,
    cycle,
    derangement_poly_by_excedance,
    edgewise,
    example_5_2_ball,
    example_5_4_ball,
    h_interior,
    h_poly,
    h_sd_via_pnk,
    h_vector,
    identity,
    is_alternatingly_increasing,
    local_h,
    octahedron,
    path,
    reverse,
    simplex,
    sphere_gamma,
    stellar,
    theta,
    theta_sd_closed_form,
)
from thetalab.harness import corpus, subdivision_kinds

P = IntPoly
VOID = SimplicialComplex.from_facets([])
EMPTY = SimplicialComplex.from_facets([()])


# ------------------------------------------------------------------- h


def test_h_degenerate():
    assert h_poly(VOID).is_zero()
    assert h_poly(EMPTY) == P.one()
    assert h_vector(VOID) == ()
    assert h_vector(EMPTY) == (1,)


def test_h_known_values():
    assert h_poly(simplex("abcd")) == P.one()
    assert h_poly(boundary_simplex("abcd")) == P((1, 1, 1, 1))
    assert h_poly(octahedron()) == P((1, 3, 3, 1))
    for k in (3, 4, 5, 9):
        assert h_poly(cycle(k)) == P((1, k - 2, 1))
    assert h_poly(path(4)) == P((1, 3))
    assert h_vector(path(4)) == (1, 3, 0)


def _h_from_f_vector(c):
    """The reference route: sum_i f_(i-1) x^i (1-x)^(n-i) over c.f_vector()."""
    f = c.f_vector()
    n = len(f) - 1
    acc = P.zero()
    for i, count in enumerate(f):
        acc = acc + (P((1, -1)) ** (n - i)).shift(i) * count
    return acc


@pytest.mark.parametrize("name", [name for name, _ in corpus()])
def test_h_matches_f_vector_route_on_corpus_triangulations(name):
    base = dict(corpus())[name]
    for c in [base] + [make(base).total for _, make in subdivision_kinds()]:
        assert h_poly(c) == _h_from_f_vector(c)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.frozensets(st.integers(0, 6), max_size=5), max_size=8))
def test_h_matches_f_vector_route_on_random_complexes(facets):
    c = SimplicialComplex.from_facets([sorted(f"v{i}" for i in f) for f in facets])
    assert h_poly(c) == _h_from_f_vector(c)


def test_h_interior_reverses_h_for_balls():
    for ball in (simplex("abc"), path(3), example_5_2_ball(), example_5_4_ball()):
        n = ball.dim + 1
        assert h_interior(ball) == reverse(h_poly(ball), n)
    assert h_interior(simplex("abc")) == P.monomial(3)
    assert h_interior(VOID).is_zero()


# --------------------------------------------------------------- theta


def test_theta_degenerate():
    assert theta(EMPTY) == P.one()
    with pytest.raises(PreconditionError):
        theta(VOID)


def test_theta_simplices():
    assert theta(simplex("a")).is_zero()
    assert theta(simplex("ab")) == P((0, -1))
    assert theta(simplex("abc")) == P((0, -1, -1))
    assert theta(simplex("abcd")) == P((0, -1, -1, -1))


def test_theta_example_balls():
    assert theta(example_5_2_ball()) == P((0, 1, 0, 1))
    assert theta(example_5_4_ball()) == P((0, 1, 0, 1))


def test_theta_vanishes_on_cones_over_spheres():
    assert theta(cycle(4).cone("c")).is_zero()
    assert theta(octahedron().cone("c")).is_zero()


def test_theta_accepts_explicit_boundary():
    c = example_5_2_ball()
    assert theta(c, boundary_subcomplex(c)) == theta(c)


def test_theta_rejects_boundaryless():
    with pytest.raises(PreconditionError):
        theta(octahedron())


def test_theta_routes_must_agree():
    # two triangles sharing one vertex: the top h-coefficient vanishes, but
    # the partial-sum route and the boundary subtraction disagree
    bowtie = SimplicialComplex.from_facets([("a", "b", "x"), ("x", "c", "d")])
    assert h_vector(bowtie)[-1] == 0
    with pytest.raises(ConsistencyError):
        theta(bowtie)


def test_theta_rejects_nonzero_top_h():
    with pytest.raises(PreconditionError):
        theta(SimplicialComplex.from_facets([("a", "b"), ("b", "c"), ("a", "c"),
                                             ("c", "d")]))


# -------------------------------------------------------------- local h


def test_local_h_degenerate():
    assert local_h(identity(EMPTY)) == P.one()
    assert local_h(identity(simplex("a"))).is_zero()
    assert local_h(identity(simplex("abcd"))).is_zero()


def test_local_h_barycentric_is_derangement():
    for n in range(5):
        base = simplex([f"v{i}" for i in range(n)]) if n else EMPTY
        assert local_h(barycentric(base)) == derangement_poly_by_excedance(n)


def test_local_h_stellar():
    assert local_h(stellar(simplex("abc"), ("a", "b", "c"))) == P((0, 1, 1))
    assert local_h(stellar(simplex("abc"), ("a", "b"))).is_zero()
    assert local_h(stellar(simplex("abcd"), ("a", "b", "c", "d"))) == P((0, 1, 1, 1))


def test_local_h_edgewise_is_symmetric_nonnegative():
    tri = edgewise(simplex("abcd"), 3)
    ell = local_h(tri)
    assert ell == reverse(ell, 4)
    assert all(v >= 0 for v in ell.coeffs)


def _local_h_by_inclusion_exclusion(tri):
    """Stanley's definition, kept as the reference route: the signed sum of
    h(Gamma_W) over the faces W of the base simplex, each restriction rebuilt."""
    n = len(tri.base.vertices)
    acc = P.zero()
    for face in tri.base.faces():
        sign = -1 if (n - len(face)) % 2 else 1
        acc = acc + h_poly(tri.restriction(face).total) * sign
    return acc


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("kind", [kind for kind, _ in subdivision_kinds()])
def test_local_h_matches_inclusion_exclusion(kind, n):
    # the kinds include sd.stellar: compose(barycentric(st.total), st) for st
    # the stellar subdivision of the simplex at its facet
    tri = dict(subdivision_kinds())[kind](simplex([f"v{i}" for i in range(n)]))
    assert local_h(tri) == _local_h_by_inclusion_exclusion(tri)


def test_local_h_needs_simplex_base():
    with pytest.raises(PreconditionError):
        local_h(identity(path(2)))
    with pytest.raises(PreconditionError):
        local_h(identity(VOID))


# ---------------------------------------------------------------- gamma


def test_sphere_gamma():
    assert sphere_gamma(octahedron()).gammas == (1, 0)
    assert sphere_gamma(cycle(4)).gammas == (1, 0)
    assert sphere_gamma(cycle(5)).gammas == (1, 1)
    assert sphere_gamma(cycle(6)).gammas == (1, 2)
    assert sphere_gamma(boundary_simplex("abc")).gammas == (1, -1)


def test_sphere_gamma_rejects_asymmetric():
    with pytest.raises(PreconditionError):
        sphere_gamma(path(3))
    with pytest.raises(PreconditionError):
        sphere_gamma(VOID)


# ----------------------------------------------------------- closed forms


SD_CORPUS = [
    simplex("ab"),
    simplex("abcd"),
    boundary_simplex("abcd"),
    octahedron(),
    path(3),
    cycle(5),
    example_5_2_ball(),
]


@pytest.mark.parametrize("idx", range(len(SD_CORPUS)))
def test_h_sd_via_pnk_matches_direct(idx):
    c = SD_CORPUS[idx]
    assert h_sd_via_pnk(c) == h_poly(barycentric(c).total)


def test_h_sd_via_pnk_void():
    assert h_sd_via_pnk(VOID).is_zero()
    assert h_sd_via_pnk(EMPTY) == P.one()


BALL_CORPUS = [
    simplex("ab"),
    simplex("abc"),
    simplex("abcd"),
    path(4),
    cycle(4).cone("c"),
    example_5_2_ball(),
    example_5_4_ball(),
]


@pytest.mark.parametrize("idx", range(len(BALL_CORPUS)))
def test_theta_sd_closed_form_matches_direct(idx):
    c = BALL_CORPUS[idx]
    sd = barycentric(c).total
    assert theta_sd_closed_form(c) == theta(sd, boundary_subcomplex(sd))


def test_theta_sd_closed_form_rejects_degenerate():
    with pytest.raises(PreconditionError):
        theta_sd_closed_form(EMPTY)
    with pytest.raises(PreconditionError):
        theta_sd_closed_form(octahedron())


# ------------------------------------------------- alternatingly increasing


def test_alternatingly_increasing():
    assert is_alternatingly_increasing(P((1, 2, 2)), 2)
    assert is_alternatingly_increasing(P((1, 3, 2)), 2)
    assert not is_alternatingly_increasing(P((2, 1, 1)), 2)
    # order for n=3 is c0, c3, c1, c2; here 1 <= 2 <= 3 but then 3 <= 2 fails
    assert not is_alternatingly_increasing(P((1, 3, 2, 2)), 3)
    assert is_alternatingly_increasing(P((1, 2, 3, 2)), 3)
    assert is_alternatingly_increasing(P.zero(), 4)
    with pytest.raises(PreconditionError):
        is_alternatingly_increasing(P((0, 0, 0, 1)), 2)
