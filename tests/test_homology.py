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
    union,
)
from thetalab.harness import corpus, subdivision_kinds
from thetalab.homology import _links_pass

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


def _graph(edges, isolated=()):
    return SimplicialComplex.from_facets(
        [(f"v{a}", f"v{b}") for a, b in edges] + [(f"v{v}",) for v in isolated])


GRAPHS = [
    _graph([(0, 1), (1, 2), (2, 0)], isolated=[3, 4]),  # cycle and two points
    _graph([(0, 1), (2, 3), (3, 4), (4, 2), (4, 5)], isolated=[6]),
    _graph([(a, b) for a, b in itertools.combinations(range(5), 2)]),  # K5
    _graph([], isolated=[0, 1, 2]),
]


@pytest.mark.parametrize("idx", range(len(GRAPHS)))
def test_betti_of_graphs_matches_oracle(idx):
    c = GRAPHS[idx]
    for p in (None, 2, 3):
        assert betti(c, p).betti == _oracle_betti(c, p)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=14),
       st.sets(st.integers(10, 12)))
def test_betti_of_random_graphs_matches_oracle(pairs, isolated):
    edges = [(a, b) for a, b in pairs if a != b]
    c = _graph(edges, isolated)
    if c.is_void:
        return
    for p in (None, 2, 3):
        assert betti(c, p).betti == _oracle_betti(c, p)


# ------------------------------------------------------ spheres and balls


def _ref_sphere_profile(dim):
    return (0,) * (dim + 1) + (1,)


def _ref_is_sphere(c, p=None):
    """Every face's link, by the oracle, has sphere homology of its dimension."""
    for face in c.faces():
        lk = c.link(face)
        if _oracle_betti(lk, p) != _ref_sphere_profile(lk.dim):
            return False
    return True


def _ref_is_cm(c, p=None):
    """Every face's link, by the oracle, has no homology below its top."""
    return all(not any(_oracle_betti(c.link(face), p)[:-1]) for face in c.faces())


def _ref_ball_boundary(c, p=None):
    """The boundary facet label sets of a ball by the per-face definition,
    or None; the empty complex is the (-1)-ball with the void boundary."""
    if c.is_empty:
        return frozenset()
    if not c.is_pure():
        return None
    ridges = [r for r in c.faces_of_dim(c.dim - 1)
              if sum(set(r) <= set(f) for f in c.facets) == 1]
    if not ridges:
        return None
    bd = SimplicialComplex.from_facets([c.labels_of(r) for r in ridges])
    if not _ref_is_sphere(bd, p):
        return None
    on_bd = bd.face_labelsets()
    for face in c.faces():
        lk = c.link(face)
        b = _oracle_betti(lk, p)
        if frozenset(c.labels_of(face)) in on_bd:
            if any(b):
                return None
        elif b != _ref_sphere_profile(lk.dim):
            return None
    return bd.facet_labelsets()


def _assert_recognizers_match_reference(c, p=None):
    bd = is_homology_ball(c, p)
    assert (None if bd is None else bd.facet_labelsets()) == _ref_ball_boundary(c, p)
    assert is_homology_sphere(c, p) == _ref_is_sphere(c, p)
    assert is_cohen_macaulay(c, p) == _ref_is_cm(c, p)


CORPUS_TRIANGULATIONS = sorted(
    {t.total for _, base in corpus() for _, make in subdivision_kinds()
     for t in [make(base)]},
    key=lambda c: (len(c.faces()), sorted(sorted(s) for s in c.facet_labelsets())))
# those small enough for the dense oracle on every link
SMALL_TRIANGULATIONS = [c for c in CORPUS_TRIANGULATIONS if len(c.faces()) <= 120]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.frozensets(st.integers(0, 6), max_size=5), min_size=1, max_size=8),
       st.sampled_from([None, 2]))
def test_recognizers_match_per_face_reference_on_random_complexes(facets, p):
    c = SimplicialComplex.from_facets([sorted(f"v{i}" for i in f) for f in facets])
    _assert_recognizers_match_reference(c, p)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(SMALL_TRIANGULATIONS), st.sampled_from(["keep", "drop", "add"]),
       st.integers(0, 10 ** 6), st.sampled_from([None, 2]))
def test_recognizers_match_per_face_reference_on_perturbed_triangulations(c, how, pick, p):
    facets = [c.labels_of(f) for f in c.facets]
    if how == "drop" and len(facets) > 1:
        del facets[pick % len(facets)]
    elif how == "add" and c.dim >= 0:
        ridges = sorted(c.faces_of_dim(c.dim - 1))
        facets.append(c.labels_of(ridges[pick % len(ridges)]) + ("new",))
    _assert_recognizers_match_reference(SimplicialComplex.from_facets(facets), p)


def test_recognizers_on_small_hand_cases():
    one_point, two_points = simplex("a"), SimplicialComplex.from_facets([("a",), ("b",)])
    three_points = SimplicialComplex.from_facets([("a",), ("b",), ("c",)])
    book = SimplicialComplex.from_facets([("a", "b", "c"), ("a", "b", "d"), ("a", "b", "e")])
    assert is_homology_ball(EMPTY).is_void
    assert is_homology_sphere(EMPTY) and is_cohen_macaulay(EMPTY)
    assert is_homology_ball(one_point).is_empty
    assert not is_homology_sphere(one_point) and is_cohen_macaulay(one_point)
    assert is_homology_ball(two_points) is None
    assert is_homology_sphere(two_points) and is_cohen_macaulay(two_points)
    assert not is_homology_sphere(three_points) and is_cohen_macaulay(three_points)
    # three triangles on one edge: the edge's link is three points
    assert is_homology_ball(book) is None
    assert not is_homology_sphere(book)
    assert is_cohen_macaulay(book)
    for c in (EMPTY, one_point, two_points, three_points, book):
        _assert_recognizers_match_reference(c)


def test_recognizers_reject_non_pure_input():
    lollipop = SimplicialComplex.from_facets([("a", "b", "c"), ("c", "d")])
    assert is_homology_ball(lollipop) is None
    assert not is_homology_sphere(lollipop)
    assert not is_cohen_macaulay(lollipop)
    with pytest.raises(PreconditionError):
        is_homology_sphere(lollipop, 4)  # the field is checked first


def test_recognizers_check_vertex_links_of_surfaces():
    # RP^2 is acyclic over Q, so wedging it at a vertex keeps the rational
    # homology of a sphere or a disc and every edge in at most two
    # triangles; only the wedge vertex's link, two circles, is wrong
    def wedge(c):
        rename = {lab: "v1" if lab == "a" else "w" + lab for lab in c.vertex_labels}
        return union(_projective_plane(), SimplicialComplex.from_facets(
            [[rename[lab] for lab in c.labels_of(f)] for f in c.facets]))

    sphere = wedge(boundary_simplex("abcd"))
    assert betti(sphere).betti == (0, 0, 0, 1)
    assert not is_homology_sphere(sphere)
    assert not is_cohen_macaulay(sphere)
    disc = wedge(cycle(4).cone("a"))  # the cone point becomes the wedge point
    assert betti(disc).is_zero()
    assert is_homology_ball(disc) is None
    for c in (sphere, disc):
        _assert_recognizers_match_reference(c)


# ------------------------------------------------- graph links of codim-2


def _assert_graph_links_match_betti(c):
    """The links _links_pass reports for the faces of codimension 2, read
    off the facets as graphs, have the Betti numbers `betti` gives them."""
    for p in (None, 2):
        seen = {}
        assert _links_pass(c, p, {}, lambda k: True,
                           lambda face, b: seen.setdefault(face, b) is not None)
        codim2 = c.faces_of_dim(c.dim - 2) if c.dim >= 1 else ()
        assert set(codim2) <= set(seen)
        for face in codim2:
            assert seen[face] == betti(c._link_ids(face), p).betti, (face, p)


def test_graph_links_match_betti_on_corpus_triangulations():
    for c in CORPUS_TRIANGULATIONS:
        _assert_graph_links_match_betti(c)


def test_graph_links_match_betti_on_non_manifolds():
    cases = [
        # three triangles on one edge
        [("a", "b", "c"), ("a", "b", "d"), ("a", "b", "e")],
        # two triangles on one vertex: its link is two disjoint edges
        [("a", "b", "c"), ("a", "d", "e")],
        # two tetrahedra on one edge, and three on one vertex
        [("a", "b", "c", "d"), ("a", "b", "e", "f")],
        [("a", "b", "c", "d"), ("a", "e", "f", "g"), ("a", "h", "i", "j")],
        # graphs: the empty face's link is the whole complex
        [("a", "b"), ("c", "d"), ("d", "e"), ("e", "c")],
    ]
    for facets in cases:
        _assert_graph_links_match_betti(SimplicialComplex.from_facets(facets))
    for c in (octahedron(), _projective_plane(), example_5_4_ball()):
        _assert_graph_links_match_betti(c)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 4).flatmap(lambda k: st.lists(
    st.frozensets(st.integers(0, 7), min_size=k, max_size=k), min_size=1, max_size=10)))
def test_graph_links_match_betti_on_random_pure_complexes(facets):
    c = SimplicialComplex.from_facets([sorted(f"v{i}" for i in f) for f in facets])
    assert c.is_pure()
    _assert_graph_links_match_betti(c)


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
