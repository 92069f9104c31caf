"""Triangulations with carrier maps: constructors, composition, files.

Facet counts for the uniform constructions have closed forms (factorials
for barycentric, Fubini numbers for the antiprism, powers for edgewise),
which pin the combinatorics down independently of the carrier bookkeeping.
"""

import hashlib
import itertools
import math
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from thetalab import (
    FileFormatError,
    InvalidTriangulationError,
    MalformedFaceError,
    NotAFaceError,
    PreconditionError,
    SimplicialComplex,
    ThetaClass,
    Triangulation,
    antiprism,
    barycentric,
    boundary_simplex,
    compose,
    cycle,
    edgewise,
    example_5_2_ball,
    identity,
    octahedron,
    path,
    read_triangulation_file,
    simplex,
    stellar,
    theta_class,
    write_triangulation_file,
)
from thetalab.complexes import _maximal
from thetalab.harness import corpus, subdivision_kinds, triangulation_theta_flags
from thetalab.homology import (
    boundary_subcomplex,
    is_homology_ball,
    is_homology_sphere,
    shelled_boundary,
)
from thetalab.subdivisions import (
    _ids,
    _mask,
    _mask_labels,
    format_triangulation_text,
    parse_triangulation_text,
)

VOID = SimplicialComplex.from_facets([])
EMPTY = SimplicialComplex.from_facets([()])


def _fubini(n):
    """Ordered set partitions of an n-set."""
    if n == 0:
        return 1
    return sum(math.comb(n, k) * _fubini(n - k) for k in range(1, n + 1))


# ------------------------------------------------------------ constructors


def test_identity():
    tri = identity(octahedron())
    assert tri.base == tri.total
    assert tri.carrier_labels(("x1", "y2")) == ("x1", "y2")
    tri.validate()
    assert identity(VOID).total.is_void
    assert identity(EMPTY).total.is_empty


def test_barycentric_facet_counts():
    for d in range(4):
        base = simplex([f"v{i}" for i in range(d + 1)])
        tri = barycentric(base)
        assert len(tri.total.facets) == math.factorial(d + 1)
        tri.validate()
    assert len(barycentric(octahedron()).total.facets) == 8 * 6


def test_barycentric_carriers():
    tri = barycentric(simplex("abc"))
    assert tri.carrier_labels(("{a}",)) == ("a",)
    assert tri.carrier_labels(("{a,b,c}",)) == ("a", "b", "c")
    assert tri.carrier_labels(("{a}", "{a,b}")) == ("a", "b")


def test_barycentric_commutes_with_boundary():
    # label-identical, not merely isomorphic: barycenter labels depend only
    # on the underlying face
    base = simplex("abcd")
    outer = boundary_subcomplex(barycentric(base).total)
    inner = barycentric(boundary_simplex("abcd")).total
    assert outer == inner


def test_antiprism_facet_counts():
    for d in range(4):
        base = simplex([f"v{i}" for i in range(d + 1)])
        tri = antiprism(base)
        assert len(tri.total.facets) == _fubini(d + 1) == (1, 3, 13, 75)[d]
        tri.validate()
    assert len(antiprism(simplex("abcde")).total.facets) == 541


def test_antiprism_interior_vertex_count():
    # pointed faces (F, v): sum over faces of their sizes
    tri = antiprism(simplex("abc"))
    assert len(tri.total.vertices) == 3 * 1 + 3 * 2 + 1 * 3


def test_stellar():
    tri = stellar(simplex("abc"), ("a", "b", "c"))
    assert len(tri.total.facets) == 3
    new = [v for v in tri.total.vertex_labels if v not in "abc"]
    assert len(new) == 1
    assert tri.carrier_labels((new[0],)) == ("a", "b", "c")
    tri.validate()

    edge = stellar(simplex("abc"), ("a", "b"), "m")
    assert len(edge.total.facets) == 2
    assert edge.carrier_labels(("m",)) == ("a", "b")
    # faces away from the subdivided edge carry to themselves
    assert edge.carrier_labels(("c",)) == ("c",)
    edge.validate()


def test_stellar_off_star_facets_survive():
    two = SimplicialComplex.from_facets([("a", "b", "c"), ("b", "c", "d")])
    tri = stellar(two, ("a", "b", "c"), "z")
    assert frozenset({"b", "c", "d"}) in tri.total.facet_labelsets()
    assert len(tri.total.facets) == 4


def test_stellar_errors():
    with pytest.raises(PreconditionError):
        stellar(simplex("abc"), ())
    with pytest.raises(Exception):
        stellar(simplex("abc"), ("a", "b"), "c")  # label already used
    # the labels of test_label_validation: the total's table trusts its labels
    for bad in ["", "a b", "@", "%", "->", "#x", "a\u2003b"]:
        with pytest.raises(MalformedFaceError):
            stellar(simplex("abc"), ("a", "b"), bad)


def test_example_5_2_ball_is_two_stellar_subdivisions():
    glued = SimplicialComplex.from_facets([("a", "b", "c", "d"), ("b", "c", "d", "e")])
    once = stellar(glued, ("a", "b", "c", "d"), "u").total
    assert example_5_2_ball() == stellar(once, ("b", "c", "d", "e"), "v").total


def test_edgewise_facet_counts():
    for d in range(1, 4):
        base = simplex([f"v{i}" for i in range(d + 1)])
        for r in (2, 3):
            tri = edgewise(base, r)
            assert len(tri.total.facets) == r ** d
            tri.validate()
    assert edgewise(simplex("ab"), 1).total == simplex("ab")
    with pytest.raises(PreconditionError):
        edgewise(simplex("ab"), 0)


def test_edgewise_of_a_cycle():
    tri = edgewise(cycle(4), 3)
    assert len(tri.total.facets) == 12
    assert tri.total.f_vector() == (1, 12, 12)
    tri.validate()


def test_subdividers_fix_degenerate_inputs():
    for maker in (barycentric, antiprism, lambda c: edgewise(c, 2)):
        assert maker(EMPTY).total.is_empty
        assert maker(VOID).total.is_void


# ------------------------------------- second route: the pairwise relations


def _maximal_cliques(nodes, compatible):
    """Bron-Kerbosch with pivoting over a symmetric pairwise relation."""
    adjacency = {n: {m for m in nodes if m != n and compatible(n, m)} for n in nodes}
    cliques = []

    def expand(r, p, x):
        if not p and not x:
            cliques.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda u: len(adjacency[u] & p))
        for v in list(p - adjacency[pivot]):
            expand(r | {v}, p & adjacency[v], x & adjacency[v])
            p.remove(v)
            x.add(v)

    expand(set(), set(nodes), set())
    return cliques


def _clique_facets(base, nodes_of, compatible, label):
    """Facet label sets from the relation: over each base facet, the maximal
    cliques of its nodes, keeping those in no other base facet's clique."""
    cliques = {
        frozenset(map(label, clique))
        for facet in base.facets
        for clique in _maximal_cliques(nodes_of(sorted(base.labels_of(facet))), compatible)
    }
    return {c for c in cliques if not any(c < other for other in cliques)}


def _antiprism_by_cliques(base):
    def nodes_of(labels):
        return [(frozenset(sub), v) for k in range(1, len(labels) + 1)
                for sub in itertools.combinations(labels, k) for v in sub]

    def compatible(a, b):
        (fa, va), (fb, vb) = a, b
        return fa == fb or (fa < fb and vb not in fa) or (fb < fa and va not in fb)

    return _clique_facets(base, nodes_of, compatible,
                          lambda n: "({" + ",".join(sorted(n[0])) + "}," + n[1] + ")")


def _edgewise_by_cliques(base, r):
    order = sorted(base.vertex_labels)

    def nodes_of(labels):
        return [tuple(combo.count(v) for v in order)
                for combo in itertools.combinations_with_replacement(labels, r)]

    def compatible(u, w):
        diff = [a - b for a, b in zip(itertools.accumulate(u), itertools.accumulate(w))]
        return set(diff) <= {0, 1} or set(diff) <= {0, -1}

    return _clique_facets(base, nodes_of, compatible,
                          lambda u: "+".join(f"{v}:{k}" for v, k in zip(order, u) if k))


_CLIQUE_BASES = (
    [(name, c) for name, c in corpus() if c.dim <= 3]
    + [(f"{n}-vertex-simplex", simplex([f"v{i}" for i in range(n)])) for n in range(1, 6)]
    + [("abc+cd", SimplicialComplex.from_facets(["abc", "cd"]))]
)


@pytest.mark.parametrize("name,base", _CLIQUE_BASES, ids=[n for n, _ in _CLIQUE_BASES])
def test_closed_form_builders_list_the_maximal_cliques(name, base):
    assert antiprism(base).total.facet_labelsets() == _antiprism_by_cliques(base)
    for r in (2, 3, 4):
        facets = edgewise(base, r).total.facet_labelsets()
        assert facets == _edgewise_by_cliques(base, r), r


# ------------------------------------------------------------ triangulation


def test_carrier_map_must_cover_every_face():
    base = simplex("ab")
    with pytest.raises(InvalidTriangulationError):
        Triangulation(base, base, {("a",): ("a",)})


def test_carrier_map_rejects_conflicts():
    base = simplex("ab")
    carrier = {
        (): (), ("a",): ("a",), ("b",): ("b",), ("a", "b"): ("a", "b"),
    }
    tri = Triangulation(base, base, carrier)
    assert tri.carrier_of(("a", "b")) == base.face(("a", "b"))
    bad = dict(carrier)
    bad[("b", "a")] = ("a",)  # same face, different carrier
    with pytest.raises(InvalidTriangulationError):
        Triangulation(base, base, bad)


def test_carrier_map_rejects_a_vertex_given_by_label_and_by_id():
    # ("a",) and (0,) name the same vertex
    with pytest.raises(InvalidTriangulationError, match="conflicting carriers"):
        Triangulation(simplex("ab"), simplex("ab"),
                      {("a",): ("a",), (0,): ("b",), ("b",): ("b",)})


def test_validate_catches_non_ball_restriction():
    # map both endpoints of a 2-path onto one base edge: the restriction to
    # the base edge is the whole path, but the vertex restrictions break
    base = simplex("ab")
    total = path(2)
    carrier = {
        (): (), ("v0",): ("a",), ("v1",): ("a", "b"), ("v2",): ("a",),
        ("v0", "v1"): ("a", "b"), ("v1", "v2"): ("a", "b"),
    }
    with pytest.raises(InvalidTriangulationError):
        Triangulation(base, total, carrier)


def test_restriction_matches_fresh_builds():
    tri = barycentric(simplex("abcd"))
    sub = tri.restriction(("a", "b", "c"))
    assert sub.base == simplex("abc")
    assert sub.total == barycentric(simplex("abc")).total
    point = tri.restriction(("b",))
    assert point.total.facet_labelsets() == frozenset({frozenset({"{b}"})})

    ew = edgewise(simplex("abc"), 3)
    assert ew.restriction(("a", "b")).total == edgewise(simplex("ab"), 3).total


def test_restriction_keeps_base_label_order():
    backwards = SimplicialComplex.from_facets([(0, 1, 2)], labels=["c", "b", "a"])
    for maker in (identity, barycentric, antiprism, lambda c: edgewise(c, 3)):
        sub = maker(backwards).restriction(("a", "b"))
        assert sub == maker(simplex("ab"))
        assert sub.base.vertex_labels == ("a", "b")
        assert sub.carrier_map == maker(simplex("ab")).carrier_map


def test_restriction_to_empty_face():
    tri = barycentric(simplex("ab"))
    sub = tri.restriction(())
    assert sub.total.is_empty
    assert sub.base.is_empty


# ------------------------------------------------------ labels of new vertices


def test_ambiguous_subdivision_labels():
    # the barycentric vertex of the edge {a, b} prints as the vertex "a,b"
    with pytest.raises(PreconditionError, match=re.escape("'{a,b}'")):
        barycentric(SimplicialComplex.from_facets([("a", "b"), ("a,b",)]))
    # the pointed faces ({x}, x) and ({q, z}, q) print alike
    x, z = "q,r},q", "r},q},q,r"
    with pytest.raises(PreconditionError, match=re.escape(f"'({{{x}}},{x})'")):
        antiprism(SimplicialComplex.from_facets([("q", z), (x,)]))
    # the weightings a + "b:1+c" and "a:1+b" + c print alike
    with pytest.raises(PreconditionError, match=re.escape("'a:1+b:1+c:1'")):
        edgewise(SimplicialComplex.from_facets([("a", "b:1+c"), ("a:1+b", "c")]), 2)


# sha256 of the carrier maps of every corpus base under every suite kind
_CORPUS_CARRIERS_SHA256 = (
    "2fe99851f26d7895f50ba560f2e6fc68aae3561daf1c5cdb66eea920f334e6b8")


def test_builders_number_vertices_by_sorted_label():
    """Builders number new vertices as from_facets would from their labels,
    and keep every carrier; this pins the id order the suites rely on."""
    from thetalab import harness

    digest = hashlib.sha256()
    for bname, base in harness.corpus():
        for kname, maker in harness.subdivision_kinds():
            name, tri = f"{kname}({bname})", maker(base)
            labels = tri.total.table.labels
            assert list(labels) == sorted(labels), name
            rebuilt = SimplicialComplex.from_facets(
                tri.total.labels_of(f) for f in tri.total.facets)
            assert rebuilt.table == tri.total.table, name
            assert rebuilt.facets == tri.total.facets, name
            carriers = sorted((sorted(k), sorted(v)) for k, v in tri.carrier_map.items())
            digest.update(repr((name, carriers)).encode())
    assert digest.hexdigest() == _CORPUS_CARRIERS_SHA256


def test_builders_make_distinct_maximal_facets():
    # _subdivision takes each builder's facets as they come, with no _maximal
    non_pure = SimplicialComplex.from_facets([("a", "b", "c"), ("c", "d")])
    cases = [(f"{kname}({bname})", maker(base))
             for bname, base in corpus() + [("non-pure", non_pure)]
             for kname, maker in subdivision_kinds()]
    cases += [(f"stellar({f})", stellar(non_pure, f)) for f in non_pure.faces() if f]
    for name, tri in cases:
        assert sorted(_maximal(tri.total.facets)) == list(tri.total.facets), name


# ---------------------------------------------------------------- compose


def test_compose():
    st = stellar(simplex("abc"), ("a", "b", "c"))
    outer = barycentric(st.total)
    tri = compose(outer, st)
    assert tri.base == simplex("abc")
    assert tri.total == outer.total
    assert len(tri.total.facets) == 6 * 3
    tri.validate()
    # composite carrier factors through the middle complex
    mid_vertex = [v for v in st.total.vertex_labels if v not in "abc"][0]
    assert tri.carrier_labels(("{" + mid_vertex + "}",)) == ("a", "b", "c")


def test_compose_rejects_wrong_order():
    st = stellar(simplex("abc"), ("a", "b", "c"))
    outer = barycentric(st.total)
    with pytest.raises(PreconditionError):
        compose(st, outer)


# ------------------------------------------------------------- theta class


def test_theta_class_barycentric():
    assert theta_class(barycentric(simplex("abc"))) == ThetaClass(True, True, True)


def test_theta_class_identity_is_negative():
    assert theta_class(identity(simplex("abc"))) == ThetaClass(False, False, False)


def test_theta_class_edgewise():
    flags = theta_class(edgewise(simplex("abc"), 3))
    assert flags.positive


# ------------------------------------------------------------ file format


@pytest.mark.parametrize("make", [
    lambda: identity(simplex("ab")),
    lambda: barycentric(simplex("abc")),
    lambda: antiprism(simplex("abc")),
    lambda: stellar(simplex("abc"), ("a", "b")),
    lambda: edgewise(cycle(3), 2),
    # a point facet is also a vertex, and gets one carrier line
    lambda: barycentric(SimplicialComplex.from_facets([("a",), ("b", "c")])),
])
def test_triangulation_file_round_trip(make, tmp_path):
    tri = make()
    target = tmp_path / "tri.txt"
    write_triangulation_file(target, tri)
    lines = target.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(set(lines))
    back = read_triangulation_file(target)
    assert back == tri  # base, total, and every carrier assignment


def test_triangulation_text_round_trip_void():
    tri = identity(VOID)
    assert parse_triangulation_text(format_triangulation_text(tri)) == tri


def test_parse_triangulation_errors():
    with pytest.raises(FileFormatError):
        parse_triangulation_text("a b\n")  # no section
    with pytest.raises(FileFormatError):
        parse_triangulation_text("a b\n%\n%\na -> a\n")
    with pytest.raises(FileFormatError):
        parse_triangulation_text("a b\n%\na -> a\n")  # vertex b uncovered
    with pytest.raises(FileFormatError):
        parse_triangulation_text("a b\n%\na -> a\nb -> b\nc -> c\n")
    with pytest.raises(FileFormatError):
        parse_triangulation_text("a b\n%\na -> a a -> b\n")
    with pytest.raises(FileFormatError):
        parse_triangulation_text(
            "a b\n%\na -> a\nb -> b\na b -> a b\na b -> a\n")


# (text, message) for each carrier-section rejection of the parser
BAD_CARRIER_SECTIONS = [
    ("a b\n%\na ->\nb -> b\n", "carrier line needs both sides"),
    ("%\na -> a\n", "carrier lines given for a void total complex"),
    ("m a\n%\nm -> a @\na -> a\n", "bad carrier face"),
    ("a\n%\na -> a\n@ -> a\n", "the empty face must carry to the empty face"),
]


@pytest.mark.parametrize("text, message", BAD_CARRIER_SECTIONS)
def test_parse_triangulation_rejects_bad_carrier_lines(text, message):
    with pytest.raises(FileFormatError, match=message):
        parse_triangulation_text(text)


def test_parse_triangulation_skips_comments_and_blank_lines():
    tri = barycentric(simplex("ab"))
    lines = format_triangulation_text(tri).splitlines()
    commented = "# a barycentric edge\n\n" + "\n\n".join(
        f"{line}  # line {i}" for i, line in enumerate(lines)) + "\n"
    assert parse_triangulation_text(commented) == tri


def _counted_face_reads(monkeypatch):
    """A Counter of the faces() calls and the single membership tests (each a
    scan of the facets) that complexes make from now on."""
    reads = Counter()
    faces, contains = SimplicialComplex.faces, SimplicialComplex.__contains__

    def counted_faces(c):
        reads["faces"] += 1
        return faces(c)

    def counted_contains(c, face):
        reads["in"] += 1
        return contains(c, face)

    monkeypatch.setattr(SimplicialComplex, "faces", counted_faces)
    monkeypatch.setattr(SimplicialComplex, "__contains__", counted_contains)
    return reads


@pytest.mark.parametrize("labels", ["abcd", "abcde"])
def test_bulk_face_readers_read_each_complex_a_bounded_number_of_times(labels, monkeypatch):
    # a file round trip and the public constructor check a face per carrier
    # line; a faces() call or a facet scan per line would make them quadratic
    # in the facet count (75 facets for 4 vertices, 541 for 5), so the reads
    # are bounded by a constant whatever the size
    reads = _counted_face_reads(monkeypatch)
    tri = parse_triangulation_text(format_triangulation_text(antiprism(simplex(labels))))
    assert reads["in"] == 0 and 1 <= reads["faces"] <= 6, reads
    assert tri == antiprism(simplex(labels))
    carriers = tri.carrier_map
    reads.clear()
    assert Triangulation(tri.base, tri.total, carriers) == tri
    assert reads["in"] == 0 and 1 <= reads["faces"] <= 4, reads


def test_parse_triangulation_reconstructs_base():
    text = (
        "m a\nm b\n%\n"
        "a -> a\nb -> b\nm -> a b\n"
    )
    tri = parse_triangulation_text(text)
    assert tri.base == simplex("ab")
    assert tri.carrier_labels(("a", "m")) == ("a", "b")
    assert len(tri.total.facets) == 2


# ------------------------------------------------ carriers as vertex unions


def _kinds_on_small_bases():
    from thetalab import harness

    for bname, base in harness.corpus():
        if base.dim is not None and base.dim <= 2:
            for kname, maker in harness.subdivision_kinds():
                yield f"{kname}({bname})", kname, base, maker


_SMALL_CASES = list(_kinds_on_small_bases())
_FRESH = {
    "identity": identity,
    "sd": barycentric,
    "antiprism": antiprism,
    "esd2": lambda c: edgewise(c, 2),
    "esd3": lambda c: edgewise(c, 3),
}


def _union_carrier_map(tri):
    """Every face's carrier as the union of its vertices' carriers, by label."""
    vertex = {v: set(tri.carrier_labels((v,))) for v in tri.total.vertex_labels}
    out = {}
    for face in tri.total.faces():
        labels = tri.total.labels_of(face)
        out[frozenset(labels)] = frozenset().union(*(vertex[v] for v in labels))
    return out


@pytest.mark.parametrize("name,kind,base,maker", _SMALL_CASES,
                         ids=[case[0] for case in _SMALL_CASES])
def test_carriers_are_vertex_unions(name, kind, base, maker):
    tri = maker(base)
    full = tri.carrier_map
    assert full == _union_carrier_map(tri)
    assert Triangulation(tri.base, tri.total, full) == tri
    for face in tri.base.faces():
        labels = tri.base.labels_of(face)
        sub = tri.restriction(labels)
        assert sub.base == simplex(labels)
        assert sub.carrier_map == {
            k: v for k, v in full.items() if v <= frozenset(labels)}
        if kind in _FRESH:
            assert sub == _FRESH[kind](simplex(labels))


def test_equality_ignores_label_table_order():
    # the id-built complex takes the sorted numbering, so it and every builder
    # over it equal the label-built ones down to their ids
    backwards = SimplicialComplex.from_facets([(0, 1, 2)], labels=["c", "b", "a"])
    forwards = simplex("abc")
    assert (backwards.table, backwards.facets) == (forwards.table, forwards.facets)
    for maker in (identity, barycentric, antiprism,
                  lambda c: stellar(c, ("a", "b"), "m"), lambda c: edgewise(c, 3)):
        built, expected = maker(backwards), maker(forwards)
        assert built == expected
        for side in ("base", "total"):
            got, want = getattr(built, side), getattr(expected, side)
            assert (got.table, got.facets) == (want.table, want.facets)
        assert built._vmask == expected._vmask
        assert built.carrier_map == expected.carrier_map
    assert backwards.face(("a",)) == forwards.face(("a",)) == (0,)
    assert identity(backwards).carrier_of(("a",)) == (0,)


def test_equality_compares_carriers():
    base, total = simplex("ab"), path(2)
    one = Triangulation(base, total, {("v0",): "a", ("v1",): "ab", ("v2",): "b"})
    two = Triangulation(base, total, {("v0",): "b", ("v1",): "ab", ("v2",): "a"})
    assert one != two
    assert one.carrier_labels(("v0", "v1")) == ("a", "b")


# ------------------------------------------------- the constructor contract


def test_vertex_carriers_suffice():
    tri = barycentric(simplex("abc"))
    vertex_only = {(v,): tri.carrier_labels((v,)) for v in tri.total.vertex_labels}
    built = Triangulation(tri.base, tri.total, vertex_only)
    assert built == Triangulation(tri.base, tri.total, tri.carrier_map) == tri
    assert built.carrier_map == tri.carrier_map


@pytest.mark.parametrize("validate", [True, False])
def test_higher_carrier_must_equal_vertex_union(validate):
    base = simplex("abc")
    vertices = {("a",): ("a",), ("b",): ("b",), ("c",): ("c",)}
    Triangulation(base, base, {**vertices, ("a", "b"): ("a", "b")}, validate=validate)
    with pytest.raises(InvalidTriangulationError, match="union"):
        Triangulation(base, base, {**vertices, ("a", "b"): ("a", "b", "c")},
                      validate=validate)
    with pytest.raises(InvalidTriangulationError):
        Triangulation(base, base, {**vertices, (): ("a",)}, validate=validate)


def test_vertex_union_must_be_a_base_face():
    base = SimplicialComplex.from_facets([("a", "b"), ("b", "c")])
    total = simplex("xy")
    with pytest.raises(InvalidTriangulationError, match="not a face of the base"):
        Triangulation(base, total, {("x",): ("a",), ("y",): ("c",)})


def test_validate_rejects_empty_and_non_pure_restrictions():
    with pytest.raises(InvalidTriangulationError, match="empty carrier"):
        Triangulation(simplex("a"), simplex("xy"), {("x",): ("a",), ("y",): ()})
    # a triangle with a dangling edge zw over the triangle abc: every
    # restriction is a ball by Euler characteristic, but abc's is not pure
    total = SimplicialComplex.from_facets([("x", "y", "z"), ("z", "w")])
    carrier = {("x",): ("a",), ("y",): ("b",), ("z",): ("c",), ("w",): ("a", "b", "c")}
    Triangulation(simplex("abc"), total, carrier, validate=False)
    with pytest.raises(InvalidTriangulationError, match="not pure"):
        Triangulation(simplex("abc"), total, carrier)


def test_carrier_keys_must_be_faces():
    base = path(2)
    carrier = {(v,): (v,) for v in base.vertex_labels}
    with pytest.raises(NotAFaceError):
        Triangulation(base, base, {**carrier, ("v0", "v2"): ("v0", "v2")})


# ------------------------------------- validate against the per-restriction rule


def _per_restriction_validate(tri):
    """The earlier validate, kept as the reference route: every restriction's
    members enumerated and checked one base face at a time."""
    base, total = tri.base, tri.total
    if base.is_void != total.is_void:
        raise InvalidTriangulationError("exactly one of base and total is void")
    if total.is_void:
        return
    if 0 in tri._vmask:
        raise InvalidTriangulationError("only the empty face may have an empty carrier")
    base_masks = {_mask(f) for f in base.faces()}
    buckets = {}
    up = {}
    for face in total.faces():
        mask = tri._carrier_mask(face)
        buckets.setdefault(mask, []).append(face)
        for i in range(len(face)):
            up.setdefault(face[:i] + face[i + 1:], set()).add(mask)
    for mask, faces in buckets.items():
        if mask not in base_masks:
            raise InvalidTriangulationError("carrier is not a face of the base")
    for fmask in base_masks:
        if not fmask:
            continue
        labels = _mask_labels(base, fmask)
        size = len(labels)
        members = []
        sub = fmask
        while sub:
            members.extend(buckets.get(sub, ()))
            sub = (sub - 1) & fmask
        has_top = False
        euler = 0
        for m in members:
            euler += 1 if len(m) % 2 else -1
            if len(m) == size:
                has_top = True
            elif len(m) > size:
                raise InvalidTriangulationError("face of dimension above")
            elif all(e & ~fmask for e in up.get(m, ())):
                raise InvalidTriangulationError("not pure")
        if not has_top:
            raise InvalidTriangulationError("no face of full dimension")
        if euler != 1:
            raise InvalidTriangulationError("reduced Euler characteristic")
        if size == 1 and len(members) != 1:
            raise InvalidTriangulationError("single point")


def _rejects(check, tri):
    try:
        check(tri)
    except InvalidTriangulationError:
        return True
    return False


_SMALL_TRIANGULATIONS = [
    maker(base)
    for base in (simplex("a"), simplex("ab"), simplex("abc"), path(2), cycle(4),
                 SimplicialComplex.from_facets([("a", "b", "c"), ("c", "d")]))
    for maker in (identity, barycentric, antiprism, lambda c: edgewise(c, 2),
                  lambda c: stellar(c, c.labels_of(c.facets[0])))
]


def _vertex_carriers(tri):
    return {(v,): tri.carrier_labels((v,)) for v in tri.total.vertex_labels}


def _draw_candidate(data):
    """One small triangulation with one vertex carrier moved to any base face,
    or with one total facet dropped; not validated."""
    tri = data.draw(st.sampled_from(_SMALL_TRIANGULATIONS))
    carriers = _vertex_carriers(tri)
    total = tri.total
    if data.draw(st.booleans(), label="change a vertex carrier"):
        vertex = data.draw(st.sampled_from(sorted(carriers)))
        faces = sorted(tuple(sorted(tri.base.labels_of(f))) for f in tri.base.faces())
        carriers[vertex] = data.draw(st.sampled_from(faces))
    else:
        facets = sorted(tuple(sorted(total.labels_of(f))) for f in total.facets)
        dropped = data.draw(st.sampled_from(facets))
        total = SimplicialComplex.from_facets([f for f in facets if f != dropped])
        carriers = {(v,): carriers[(v,)] for v in total.vertex_labels}
    return Triangulation(tri.base, total, carriers, validate=False)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validate_agrees_with_per_restriction_rule(data):
    candidate = _draw_candidate(data)
    assert _rejects(Triangulation.validate, candidate) == _rejects(
        _per_restriction_validate, candidate)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_euler_characteristic_from_the_faces_carried_at_one_mask(data):
    # validate's Euler argument: once every proper part V of a base face W
    # has the reduced Euler characteristic of a ball (-1 for V empty, the
    # empty face alone), that of Gamma_W is (-1)^|W| plus the signed count
    # of the faces carried at W itself
    candidate = _draw_candidate(data)
    index = candidate._carrier_index()
    euler = {}
    for fmask in sorted({_mask(f) for f in candidate.base.faces()}, key=int.bit_count):
        euler[fmask] = candidate.restriction(_ids(fmask)).total.reduced_euler()
        ball_below = all(euler[sub] == (-1 if sub == 0 else 0)
                         for sub in euler if sub & fmask == sub != fmask)
        if fmask and ball_below:
            counts = index[fmask][0] if fmask in index else ()
            assert euler[fmask] == (-1) ** fmask.bit_count() + sum(
                (-1) ** (k + 1) * c for k, c in enumerate(counts))
    # the characteristic validate names is that of the restriction it names
    try:
        candidate.validate()
    except InvalidTriangulationError as exc:
        named = re.fullmatch(r"restriction to \[(.*)\] has reduced Euler"
                             r" characteristic (-?\d+), expected 0", str(exc))
        if named:
            labels = tuple(re.findall(r"'([^']*)'", named[1]))
            assert int(named[2]) == euler[_mask(candidate.base._face_arg(labels))] != 0


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_shelling_matches_the_reference_on_perturbed_triangulations(data):
    # a shelled total or restriction is a sphere, with a void boundary, or a
    # ball with is_homology_ball's boundary, ids and table included
    candidate = _draw_candidate(data)
    for face in candidate.base.faces():
        c = candidate.restriction(face).total if face else candidate.total
        bd = None if c.is_void else shelled_boundary(c)
        if bd is not None:
            expected = is_homology_ball(c)
            assert is_homology_sphere(c) == bd.is_void == (expected is None)
            assert bd.is_void or (bd.table, bd.facets) == (expected.table, expected.facets)


# One hand-built triangulation per validate message; the base, the total
# facets and the vertex carriers.
_INVALID = {
    "exactly one of base and total is void": (
        simplex("a"), [], {}),
    "only the empty face may have an empty carrier": (
        simplex("a"), [("x", "y")], {"x": "a", "y": ""}),
    "is not a face of the base": (
        SimplicialComplex.from_facets([("a", "b"), ("b", "c")]), [("x", "y")],
        {"x": "a", "y": "c"}),
    "has a face of dimension above dim 1": (
        simplex("ab"), [("x", "y", "z")], {"x": "a", "y": "b", "z": "ab"}),
    # zw hangs off the triangle xyz: |zw| < |sigma(zw)| and no coface is
    # carried to abc
    "restriction to ['a', 'b', 'c'] is not pure: ['w', 'z'] is maximal": (
        simplex("abc"), [("x", "y", "z"), ("z", "w")],
        {"x": "a", "y": "b", "z": "c", "w": "abc"}),
    # x is carried to the vertex a and has no coface at all, so only the
    # sigma(m) + w rule sees that it is maximal in the restriction to ab;
    # every Euler characteristic is that of a ball
    "restriction to ['a', 'b'] is not pure: ['x'] is maximal": (
        simplex("ab"), [("x",), ("y", "u"), ("u", "v"), ("v", "t"), ("t", "u")],
        {"x": "a", "y": "b", "u": "ab", "v": "ab", "t": "ab"}),
    "restriction to ['a'] has no face of full dimension": (
        simplex("ab"), [("x", "y")], {"x": "ab", "y": "ab"}),
    # nothing is carried at c and Gamma_ab has two components; base faces are
    # checked by size, so the smaller one is named
    "restriction to ['c'] has no face of full dimension": (
        SimplicialComplex.from_facets([("a", "b"), ("b", "c")]),
        [("x", "m"), ("n", "y"), ("y", "p")],
        {"x": "a", "y": "b", "m": "ab", "n": "ab", "p": "bc"}),
    # a path from a to b plus a separate edge: pure, but two components
    "restriction to ['a', 'b'] has reduced Euler characteristic 1, expected 0": (
        simplex("ab"), [("x", "u"), ("u", "y"), ("v", "w")],
        {"x": "a", "y": "b", "u": "ab", "v": "ab", "w": "ab"}),
}


@pytest.mark.parametrize("message", sorted(_INVALID))
def test_validate_message(message):
    base, facets, carriers = _INVALID[message]
    total = SimplicialComplex.from_facets(facets)
    candidate = Triangulation(
        base, total, {(v,): tuple(c) for v, c in carriers.items()}, validate=False)
    with pytest.raises(InvalidTriangulationError) as info:
        candidate.validate()
    assert message in str(info.value)
    assert _rejects(_per_restriction_validate, candidate)


# ----------------------------------------------------------- the carrier index


def _check_carrier_index(tri):
    """The index equals a brute-force grouping of the total's faces by
    carrier mask: per mask, the face counts by size up to the largest size
    carried there, the vertex ids in id order, and the faces of that size."""
    grouped = {}
    for face in tri.total.faces():
        grouped.setdefault(tri._carrier_mask(face), []).append(face)
    index = tri._carrier_index()
    assert set(index) == set(grouped)
    for mask, faces in grouped.items():
        counts, vertices, top = index[mask]
        largest = max(map(len, faces))
        assert counts == tuple(sum(len(f) == k for f in faces) for k in range(largest + 1))
        assert vertices == tuple(sorted(v for f in faces if len(f) == 1 for v in f))
        assert sorted(top) == sorted(f for f in faces if len(f) == largest)


@pytest.mark.parametrize("name", [name for name, _ in corpus()])
def test_carrier_index_lists_every_face_once(name):
    base = dict(corpus())[name]
    for _kind, maker in subdivision_kinds():
        _check_carrier_index(maker(base))


def _perturbations(tri):
    """Every candidate that test_validate_agrees_with_per_restriction_rule can
    draw from tri, unvalidated: one vertex carrier moved to any base face, or
    one total facet dropped."""
    carriers = _vertex_carriers(tri)
    faces = sorted(tuple(sorted(tri.base.labels_of(f))) for f in tri.base.faces())
    for vertex in sorted(carriers):
        for face in faces:
            yield Triangulation(tri.base, tri.total, {**carriers, vertex: face},
                                validate=False)
    facets = sorted(tuple(sorted(tri.total.labels_of(f))) for f in tri.total.facets)
    for dropped in facets:
        total = SimplicialComplex.from_facets([f for f in facets if f != dropped])
        yield Triangulation(tri.base, total,
                            {(v,): carriers[(v,)] for v in total.vertex_labels},
                            validate=False)


@pytest.mark.parametrize("tri", _SMALL_TRIANGULATIONS)
def test_carrier_index_of_perturbed_triangulations(tri):
    for candidate in _perturbations(tri):
        _check_carrier_index(candidate)


@pytest.mark.parametrize("tri", _SMALL_TRIANGULATIONS)
def test_validate_agrees_with_per_restriction_rule_on_every_perturbation(tri):
    # the deterministic complement of the Hypothesis test above: every
    # candidate _draw_candidate can draw from tri
    for candidate in _perturbations(tri):
        assert _rejects(Triangulation.validate, candidate) == _rejects(
            _per_restriction_validate, candidate)


def _labels(text):
    return tuple(re.findall(r"'([^']*)'", text))


def _named_violation_holds(tri, message):
    """Whether the violation a validate message names holds, checked by brute
    force on the triangulation or on the restriction the message names."""
    base, total = tri.base, tri.total
    if message == "exactly one of base and total is void":
        return base.is_void != total.is_void
    if message == "only the empty face may have an empty carrier":
        return any(tri.carrier_labels((v,)) == () for v in total.vertex_labels)
    named = re.fullmatch(r"carrier (\[.*?\]) of (\[.*?\]) is not a face of the base",
                         message)
    if named:
        carrier, face = map(_labels, named.groups())
        return (tri.carrier_labels(face) == carrier
                and frozenset(carrier) not in base.face_labelsets())
    named = re.fullmatch(r"restriction to (\[.*?\]) (.*)", message)
    where = base.face(_labels(named[1]))
    sub = tri.restriction(where).total
    faces = {frozenset(sub.labels_of(f)) for f in sub.faces()}
    if named[2] == f"has a face of dimension above dim {len(where) - 1}":
        return max(map(len, faces)) > len(where)
    if named[2] == "has no face of full dimension":
        return all(len(f) < len(where) for f in faces)
    euler = re.fullmatch(r"has reduced Euler characteristic (-?\d+), expected 0", named[2])
    if euler:
        return sub.reduced_euler() == int(euler[1]) != 0
    maximal = re.fullmatch(r"is not pure: (\[.*?\]) is maximal", named[2])
    face = frozenset(_labels(maximal[1]))
    return face in sub.facet_labelsets() and len(face) < len(where)


@pytest.mark.parametrize("tri", _SMALL_TRIANGULATIONS)
def test_every_rejection_names_a_violation_that_holds(tri):
    for candidate in _perturbations(tri):
        try:
            candidate.validate()
        except InvalidTriangulationError as exc:
            assert _named_violation_holds(candidate, str(exc)), str(exc)


# ---------------------------------------------- a non-subdivision validate accepts


def _path_plus_triangle():
    """The edge ab triangulated by the path a-m-b plus a disjoint 3-cycle xyz
    carried by ab: pure, with the Euler characteristic of a ball in every
    restriction, but not a subdivision (its local h comes out as 4x)."""
    total = SimplicialComplex.from_facets(
        [("a", "m"), ("m", "b"), ("x", "y"), ("y", "z"), ("x", "z")])
    carriers = {("a",): ("a",), ("b",): ("b",),
                **{(v,): ("a", "b") for v in "mxyz"}}
    return Triangulation(simplex("ab"), total, carriers, validate=False)


def test_non_subdivision_is_refused_by_the_theta_routes():
    tri = _path_plus_triangle()
    with pytest.raises(PreconditionError):
        theta_class(tri)
    with pytest.raises(PreconditionError):
        triangulation_theta_flags(tri)


@pytest.mark.xfail(strict=True, reason="validate checks Euler characteristics,"
                   " not that each restriction is a homology ball")
def test_non_subdivision_is_rejected_at_construction():
    tri = _path_plus_triangle()
    with pytest.raises(InvalidTriangulationError):
        Triangulation(tri.base, tri.total, _vertex_carriers(tri))
