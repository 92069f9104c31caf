"""Homology ranks, sphere/ball recognition, Cohen-Macaulay classification.

Betti numbers are cross-checked against an oracle implemented here from
scratch: dense boundary matrices reduced by Gaussian elimination over
Fraction (or over a prime field with modular inverses).
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from thetalab import (
    PreconditionError,
    SimplicialComplex,
    betti,
    boundary_subcomplex,
    boundary_simplex,
    cycle,
    edgewise,
    example_5_2_ball,
    example_5_4_ball,
    has_interior_vertex_property,
    interior_faces,
    is_cohen_macaulay,
    is_cohen_macaulay_star,
    is_homology_ball,
    is_homology_sphere,
    no_facet_on_union_boundaries,
    octahedron,
    path,
    simplex,
)

EMPTY = SimplicialComplex.from_facets([()])


# ----------------------------------------------------------- betti oracle


def _oracle_rank(rows, p=None):
    if not rows or not rows[0]:
        return 0
    if p is None:
        mat = [[Fraction(v) for v in row] for row in rows]
    else:
        mat = [[v % p for v in row] for row in rows]
    rank = 0
    cols = len(mat[0])
    for c in range(cols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = (1 / mat[rank][c]) if p is None else pow(mat[rank][c], -1, p)
        mat[rank] = [v * inv if p is None else (v * inv) % p for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][c]:
                f = mat[r][c]
                if p is None:
                    mat[r] = [v - f * w for v, w in zip(mat[r], mat[rank])]
                else:
                    mat[r] = [(v - f * w) % p for v, w in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _oracle_betti(c, p=None):
    """Reduced Betti numbers straight from the definition."""
    dim = c.dim
    faces = sorted(c.faces(), key=len)
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    index = {d: {f: i for i, f in enumerate(fs)} for d, fs in by_dim.items()}
    ranks = {}
    for d in range(0, dim + 1):
        cols = by_dim.get(d, [])
        rows_faces = by_dim.get(d - 1, [])
        rows = [[0] * len(cols) for _ in rows_faces]
        for j, face in enumerate(cols):
            for t in range(len(face)):
                rows[index[d - 1][face[:t] + face[t + 1:]]][j] = (-1) ** t
        ranks[d] = _oracle_rank(rows, p)
    out = []
    for d in range(-1, dim + 1):
        out.append(len(by_dim.get(d, [])) - ranks.get(d, 0) - ranks.get(d + 1, 0))
    return tuple(out)


def _projective_plane():
    """Six-vertex triangulation of the real projective plane."""
    facets = [
        (1, 2, 3), (1, 3, 4), (1, 2, 6), (1, 4, 5), (1, 5, 6),
        (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
    ]
    return SimplicialComplex.from_facets(
        [tuple(f"v{i}" for i in f) for f in facets])


ORACLE_CORPUS = [
    EMPTY,
    simplex(["a"]),
    simplex(["a", "b", "c", "d"]),
    path(4),
    cycle(5),
    octahedron(),
    boundary_simplex("abcde"),
    example_5_2_ball(),
    SimplicialComplex.from_facets([("a", "b"), ("c", "d")]),  # disconnected
    SimplicialComplex.from_facets([("a", "b", "c"), ("c", "d"), ("d", "e", "f")]),
    _projective_plane(),
    edgewise(example_5_2_ball(), 2).total,  # a subdivided 3-ball, 328 faces
]


@pytest.mark.parametrize("idx", range(len(ORACLE_CORPUS)))
def test_betti_matches_oracle(idx):
    c = ORACLE_CORPUS[idx]
    assert betti(c).betti == _oracle_betti(c)
    assert betti(c, 2).betti == _oracle_betti(c, 2)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.frozensets(st.integers(0, 6), max_size=7), min_size=1, max_size=8))
def test_betti_matches_oracle_on_random_complexes(facets):
    c = SimplicialComplex.from_facets(
        [sorted(f"v{i}" for i in f) for f in facets])
    for p in (None, 2, 3):
        assert betti(c, p).betti == _oracle_betti(c, p)


def test_betti_depends_on_field():
    rp2 = _projective_plane()
    assert rp2.f_vector() == (1, 6, 15, 10)
    assert betti(rp2).betti == (0, 0, 0, 0)  # rationally acyclic
    assert betti(rp2, 2).betti == (0, 0, 1, 1)
    assert betti(rp2, 3).betti == (0, 0, 0, 0)
    assert _oracle_betti(rp2, 2) == (0, 0, 1, 1)


def test_betti_torus_like_sphere():
    profile = betti(octahedron())
    assert profile.betti == (0, 0, 0, 1)
    assert profile.b(2) == 1
    assert profile.b(-1) == 0
    assert profile.euler() == octahedron().reduced_euler()


def test_betti_rejects_void_and_bad_field():
    with pytest.raises(PreconditionError):
        betti(SimplicialComplex.from_facets([]))
    with pytest.raises(PreconditionError):
        betti(EMPTY, 4)


def test_betti_rejects_huge_composite_field_exactly():
    # too large for a float square root; the primality check stays integral
    with pytest.raises(PreconditionError, match="is not prime"):
        betti(simplex("ab"), field=10**400)


# ------------------------------------------------------ spheres and balls


def test_sphere_recognition():
    assert is_homology_sphere(octahedron())
    assert is_homology_sphere(cycle(6))
    assert is_homology_sphere(boundary_simplex("abcd"))
    assert is_homology_sphere(EMPTY)  # the (-1)-sphere
    assert not is_homology_sphere(simplex(["a", "b"]))
    assert not is_homology_sphere(_projective_plane())
    assert not is_homology_sphere(path(3))


def test_boundary_subcomplex():
    assert boundary_subcomplex(simplex("abc")) == boundary_simplex("abc")
    bd = boundary_subcomplex(path(3))
    assert bd.facet_labelsets() == frozenset({frozenset({"v0"}), frozenset({"v3"})})
    assert boundary_subcomplex(simplex("a")).is_empty
    assert boundary_subcomplex(octahedron()).is_void
    with pytest.raises(PreconditionError):
        boundary_subcomplex(SimplicialComplex.from_facets([("a", "b"), ("c",)]))


def test_ball_recognition():
    bd = is_homology_ball(simplex("abcd"))
    assert bd == boundary_simplex("abcd")
    assert is_homology_ball(path(3)) is not None
    assert is_homology_ball(EMPTY) is not None
    assert is_homology_ball(EMPTY).is_void
    assert is_homology_ball(octahedron()) is None  # sphere, empty boundary
    assert is_homology_ball(cycle(4)) is None
    assert is_homology_ball(_projective_plane()) is None
    # two triangles sharing only a vertex: pure but pinched
    pinch = SimplicialComplex.from_facets([("a", "b", "x"), ("x", "c", "d")])
    assert is_homology_ball(pinch) is None


def test_ball_recognition_example_balls():
    for c in (example_5_2_ball(), example_5_4_ball()):
        bd = is_homology_ball(c)
        assert bd is not None
        assert bd.dim == c.dim - 1
        assert is_homology_sphere(bd)


def test_mod_two_ball():
    # cone over the projective plane: contractible, but its vertex link is
    # RP^2, which is not a homology sphere over Q or F_2
    c = _projective_plane().cone("apex")
    assert is_homology_ball(c) is None
    assert is_homology_ball(c, 2) is None


# -------------------------------------------------------- Cohen-Macaulay


def test_cohen_macaulay():
    assert is_cohen_macaulay(octahedron())
    assert is_cohen_macaulay(path(3))
    assert is_cohen_macaulay(simplex("abcd"))
    assert is_cohen_macaulay(EMPTY)
    # CM is not restricted to pure-looking geometry: RP^2 is CM over Q
    assert is_cohen_macaulay(_projective_plane())
    assert not is_cohen_macaulay(_projective_plane(), 2)
    bowtie = SimplicialComplex.from_facets([("a", "b", "x"), ("x", "c", "d")])
    assert not is_cohen_macaulay(bowtie)
    disconnected = SimplicialComplex.from_facets([("a", "b"), ("c", "d")])
    assert not is_cohen_macaulay(disconnected)


def test_cohen_macaulay_star():
    # removing a facet keeps its proper faces, so a path of length two
    # degenerates: the complex drops to dimension zero plus a bare edge
    assert not is_cohen_macaulay_star(path(2))
    assert is_cohen_macaulay_star(octahedron())
    assert is_cohen_macaulay_star(boundary_simplex("abc"))
    assert is_cohen_macaulay_star(boundary_simplex("abcde"))
    assert not is_cohen_macaulay_star(simplex("abc"))
    assert not is_cohen_macaulay_star(cycle(4).cone("c"))


def test_cohen_macaulay_star_keeps_proper_faces():
    # one triangle: deleting the facet leaves its full boundary, a circle,
    # which has dimension 1 == dim - 1, hence not CM of the same dimension
    assert not is_cohen_macaulay_star(simplex("abc"))
    # a single edge degenerates to two loose vertices, CM of dimension zero,
    # but the dimension dropped, so the verdict is still negative
    assert not is_cohen_macaulay_star(simplex("ab"))


# ------------------------------------------------------------- interiors


def test_interior_faces():
    c = simplex("abc")
    bd = boundary_subcomplex(c)
    inside = interior_faces(c, bd)
    assert inside == frozenset({c.face(("a", "b", "c"))})
    ex = example_5_2_ball()
    bd = boundary_subcomplex(ex)
    labels = {frozenset(ex.labels_of(f)) for f in interior_faces(ex, bd)}
    assert frozenset({"u"}) in labels and frozenset({"v"}) in labels
    assert frozenset() not in labels  # the empty face lies on the boundary


def test_interior_vertex_property():
    ex = example_5_2_ball()
    assert has_interior_vertex_property(ex, boundary_subcomplex(ex))
    tet = simplex("abcd")
    assert not has_interior_vertex_property(tet, boundary_subcomplex(tet))


def test_no_facet_on_union_boundaries():
    c = simplex("abc")
    bd = boundary_subcomplex(c)
    assert not no_facet_on_union_boundaries(c, bd, bd)
    ex = example_5_2_ball()
    small_bd = boundary_simplex("abc")
    assert no_facet_on_union_boundaries(ex, boundary_subcomplex(ex), small_bd)
