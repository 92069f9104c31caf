"""Complex construction, face queries, operations, and the facet file format."""

import itertools
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from thetalab import (
    FileFormatError,
    MalformedFaceError,
    NotAFaceError,
    PreconditionError,
    SimplicialComplex,
    barycentric,
    boundary_simplex,
    cross_polytope_boundary,
    cycle,
    example_5_2_ball,
    example_5_4_ball,
    fresh_label,
    is_induced_subcomplex,
    is_subcomplex,
    octahedron,
    parse_facet_text,
    path,
    read_facet_file,
    simplex,
    union,
    write_facet_file,
)
from thetalab.complexes import LabelTable, format_facet_text
from thetalab.homology import betti

VOID = SimplicialComplex.from_facets([])
EMPTY = SimplicialComplex.from_facets([()])


def test_void_versus_empty():
    assert VOID.is_void and not VOID.is_empty
    assert EMPTY.is_empty and not EMPTY.is_void
    assert VOID.dim is None
    assert EMPTY.dim == -1
    assert VOID.f_vector() == ()
    assert EMPTY.f_vector() == (1,)
    assert VOID != EMPTY


def test_from_facets_absorbs_non_maximal():
    c = SimplicialComplex.from_facets([("a", "b"), ("b",), ("a", "b"), ()])
    assert c.facet_labelsets() == frozenset({frozenset({"a", "b"})})
    assert len(c.facets) == 1


def test_from_facets_drops_unused_labels_with_table():
    c = SimplicialComplex.from_facets([(0, 2)], labels=["a", "b", "c"])
    assert c.vertex_labels == ("a", "c")
    # a LabelTable is read like a label sequence, and the ids are renumbered
    d = SimplicialComplex.from_facets([(0, 2)], labels=LabelTable(["c", "b", "a"]))
    assert (d.table, d.facets) == (c.table, c.facets)
    with pytest.raises(MalformedFaceError):
        SimplicialComplex.from_facets([(0, 5)], labels=["a", "b"])


def test_label_validation():
    for bad in ["", "a b", "@", "%", "->", "#x", "a\u2003b"]:
        with pytest.raises(MalformedFaceError):
            SimplicialComplex.from_facets([(bad,)])


def test_label_errors_name_the_first_bad_occurrence():
    # each distinct label is checked once, yet the error is the one a check
    # of every occurrence in order raises first; unhashable labels included
    cases = [
        ([("a", "b"), ("b", "x y", "@")], "'x y' contains whitespace"),
        ([("a", "@"), ("", "b")], "'@' collides with facet file syntax"),
        ([("a",), ("b", ""), ("@",)], "nonempty string, got ''"),
        ([("a", 7), ("b", "#c")], "nonempty string, got 7"),
        ([("a", ["b"])], r"got \['b'\]"),
        ([("a", "a b"), ({"c": 1},)], "'a b' contains whitespace"),
        ([(set(),), ("a",)], r"got set\(\)"),
    ]
    for facets, message in cases:
        with pytest.raises(MalformedFaceError, match=message):
            SimplicialComplex.from_facets(facets)


def test_face_counts():
    oct_ = octahedron()
    assert oct_.f_vector() == (1, 6, 12, 8)
    assert oct_.dim == 2
    assert oct_.reduced_euler() == 1  # 2-sphere
    assert cycle(5).f_vector() == (1, 5, 5)
    assert simplex("abc").f_vector() == (1, 3, 3, 1)
    assert path(3).f_vector() == (1, 4, 3)


def test_faces_of_dim_and_membership():
    c = simplex(["a", "b", "c"])
    assert len(c.faces_of_dim(1)) == 3
    assert c.faces_of_dim(5) == ()
    assert c.face(("a", "b")) in c
    assert () in c.faces()


def test_face_arg_errors():
    c = cycle(4)
    with pytest.raises(NotAFaceError):
        c.link(("v0", "v2"))  # diagonal is not an edge
    with pytest.raises(NotAFaceError):
        c.face(("v0", "nope"))


def test_link():
    oct_ = octahedron()
    lk = oct_.link(("x1",))
    # a 4-cycle on the two remaining antipodal pairs
    assert lk.f_vector() == (1, 4, 4)
    assert lk.vertex_labels == ("x2", "x3", "y2", "y3")
    assert frozenset({"x2", "y2"}) not in lk.facet_labelsets()
    assert oct_.link(()) == oct_
    edge = oct_.link(("x1", "x2"))
    assert edge.f_vector() == (1, 2)


def _reversed_table(c):
    """c again, built from ids into its label table reversed."""
    n = len(c.vertex_labels)
    return SimplicialComplex.from_facets(
        [[n - 1 - v for v in f] for f in c.facets],
        labels=list(reversed(c.vertex_labels)))


def _link_by_labels(c, labels):
    """The link straight from its definition, built from labels."""
    sigma = set(labels)
    return SimplicialComplex.from_facets(
        [[lab for lab in c.labels_of(f) if lab not in sigma]
         for f in c.facets if sigma <= set(c.labels_of(f))])


LINK_CASES = [
    EMPTY,
    cycle(5),
    octahedron(),
    example_5_2_ball(),
    example_5_4_ball(),
    SimplicialComplex.from_facets([("a", "b", "c"), ("c", "d"), ("e",)]),
    _reversed_table(example_5_4_ball()),
    _reversed_table(SimplicialComplex.from_facets([("a", "b", "c"), ("c", "d"), ("e",)])),
]


@pytest.mark.parametrize("idx", range(len(LINK_CASES)))
def test_link_matches_label_definition(idx):
    c = LINK_CASES[idx]
    for face in c.faces():
        labels = c.labels_of(face)
        lk = c.link(face)
        assert lk == _link_by_labels(c, labels)
        assert lk == c.link(labels)
        # the link keeps the complex's id order on the labels it uses
        assert lk.vertex_labels == tuple(
            lab for lab in c.vertex_labels if lab in lk.table)


def test_link_rejects_non_faces():
    c = _reversed_table(example_5_4_ball())
    for bad in [("a1", "b1"), ("u1", "u2"), ("nope",), (len(c.vertex_labels),)]:
        with pytest.raises(NotAFaceError):
            c.link(bad)
    with pytest.raises(MalformedFaceError):
        c.link((0, 0))


def test_mixed_id_and_label_faces_are_malformed():
    # every entry is checked before the face is sorted, so a label among ids
    # is a malformed face, not a failed comparison
    c = simplex("abc")
    tri = barycentric(c)
    for call in (lambda: c.link(("a", 0)), lambda: c.link((1, "b")),
                 lambda: tri.carrier_of(("{a}", 0)),
                 lambda: SimplicialComplex.from_facets([(0, "x")], labels=["a", "b"])):
        with pytest.raises(MalformedFaceError, match="nonnegative integers"):
            call()


def test_face_reads_its_argument_once():
    c = simplex("abc")
    with pytest.raises(MalformedFaceError, match=re.escape("face ('a', 'a') repeats")):
        c.face(x for x in "aa")
    assert c.face(x for x in "cb") == c.face(("b", "c")) == (1, 2)


def test_induced_and_delete_vertex():
    c = cycle(4)
    sub = c.induced(["v0", "v1", "v2"])
    assert sub == path(2)
    assert c.delete_vertex("v3") == sub
    with pytest.raises(NotAFaceError):
        c.delete_vertex("v9")



def test_induced_and_delete_vertex_reject_out_of_range_ids():
    c = simplex("abc")
    for bad in (3, -1):
        with pytest.raises(NotAFaceError, match="outside complex"):
            c.induced([0, bad])
        with pytest.raises(NotAFaceError, match="not in complex"):
            c.delete_vertex(bad)


def test_from_facets_rejects_duplicate_labels():
    with pytest.raises(MalformedFaceError, match="duplicate vertex labels"):
        SimplicialComplex.from_facets([(0, 1)], labels=["a", "a"])


def _induced_by_labels(c, labels):
    """The induced subcomplex straight from its definition, built from labels."""
    keep = set(labels)
    return SimplicialComplex.from_facets(
        [[lab for lab in c.labels_of(f) if lab in keep] for f in c.facets])


@pytest.mark.parametrize("idx", range(len(LINK_CASES)))
def test_induced_and_delete_vertex_match_label_definitions(idx):
    c = LINK_CASES[idx]
    labels = c.vertex_labels
    for keep in [labels[::2], labels[1::2]] + [labels[:i] + labels[i + 1:]
                                               for i in range(len(labels))]:
        sub = c.induced(keep)
        assert sub == _induced_by_labels(c, keep)
        # like the link, it keeps the complex's id order
        assert sub.vertex_labels == tuple(lab for lab in labels if lab in sub.table)
    for i, lab in enumerate(labels):
        assert c.delete_vertex(lab) == _induced_by_labels(c, labels[:i] + labels[i + 1:])


def test_cone():
    c = cycle(3).cone("apex")
    assert c.f_vector() == (1, 4, 6, 3)
    with pytest.raises(MalformedFaceError):
        cycle(3).cone("v0")
    with pytest.raises(PreconditionError):
        VOID.cone("apex")


def test_is_pure():
    assert octahedron().is_pure()
    assert VOID.is_pure()
    assert not SimplicialComplex.from_facets([("a", "b"), ("c",)]).is_pure()


def test_is_flag():
    assert cycle(4).is_flag()
    assert not cycle(3).is_flag()  # empty triangle
    assert octahedron().is_flag()
    assert not boundary_simplex("abcd").is_flag()
    assert simplex("ab").is_flag()
    assert EMPTY.is_flag()
    with pytest.raises(PreconditionError):
        VOID.is_flag()


def test_equality_is_label_based():
    a = SimplicialComplex.from_facets([("x", "y"), ("y", "z")])
    b = SimplicialComplex.from_facets([("y", "z"), ("x", "y")])
    assert a == b
    assert hash(a) == hash(b)
    assert a != SimplicialComplex.from_facets([("x", "y")])


_LABELS = ("a", "b", "c", "d", "e", "f")


@st.composite
def _built_twice(draw):
    """One random complex on up to 6 labels, void and empty included, built
    through from_facets on ids with two random label table orders.  Both
    copies number their vertices in sorted label order, so they are identical."""
    facets = draw(st.lists(st.sets(st.sampled_from(_LABELS), max_size=4), max_size=6))
    built = []
    for _ in range(2):
        table = draw(st.permutations(_LABELS))
        built.append(SimplicialComplex.from_facets(
            [[table.index(v) for v in f] for f in facets], labels=table))
    assert all(c.vertex_labels == tuple(sorted(c.vertex_labels)) for c in built)
    assert (built[0].table, built[0].facets) == (built[1].table, built[1].facets)
    return built


@settings(max_examples=300, deadline=None)
@given(_built_twice(), _built_twice())
def test_equality_and_hash_follow_facet_label_sets(first, second):
    complexes = first + second
    for x in complexes:
        for y in complexes:
            assert (x == y) == (x.facet_labelsets() == y.facet_labelsets())
            if x == y:
                assert hash(x) == hash(y)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sets(st.sampled_from(_LABELS), max_size=5), max_size=6))
def test_face_readers_agree_with_the_face_set(facets):
    # a random complex, void and empty included, and its reversed-table copy
    c = SimplicialComplex.from_facets(facets)
    reversed_ = _reversed_table(c)
    for x in (c, reversed_):
        # the f-vector is read before any faces() call and after it
        first = x.f_vector()
        faces = x.faces()
        assert faces == {s for f in x.facets for k in range(len(f) + 1)
                         for s in itertools.combinations(f, k)}
        top = -2 if x.is_void else x.dim
        for d in range(-1, top + 2):
            assert x.faces_of_dim(d) == tuple(sorted(f for f in faces if len(f) == d + 1))
        sizes = Counter(len(f) for f in faces)
        assert first == x.f_vector() == tuple(sizes[i] for i in range(top + 2))
        # membership reads the facets: it agrees with the face set on every
        # id tuple over one id past the table, and refuses unsorted, repeated,
        # negative, label and mixed tuples
        ids = range(len(x.vertex_labels) + 1)
        for s in (s for k in range(len(ids) + 1) for s in itertools.combinations(ids, k)):
            assert (s in x) == (s in faces)
        for f in filter(None, faces):
            assert f[::-1] not in x or len(f) == 1
            assert f + f[-1:] not in x and (-1,) + f not in x
            assert x.labels_of(f) not in x and (f[0], x.labels_of(f)[0]) not in x
        assert x.reduced_euler() == sum((-1) ** (i - 1) * n for i, n in sizes.items())
        for face in faces:
            assert x.link(face) == _link_by_labels(x, x.labels_of(face))
    if not c.is_void:
        for p in (None, 2):
            assert betti(c, p) == betti(reversed_, p)


@settings(max_examples=300, deadline=None)
@given(_built_twice(), st.data())
def test_is_subcomplex_follows_the_face_label_sets(outers, data):
    # inner takes faces of the first copy of outer, and sometimes other label
    # sets, "g" among them, which outer never has; the second copy orders its
    # table differently
    faces = sorted(outers[0].face_labelsets(), key=sorted)
    drawn = data.draw(st.lists(st.sampled_from(faces), max_size=4) if faces else st.just([]))
    extra = data.draw(st.lists(st.sets(st.sampled_from(_LABELS + ("g",)), max_size=3),
                               max_size=2))
    for facets in (drawn, drawn + extra):
        inner = SimplicialComplex.from_facets(facets)
        for outer in outers:
            expected = all(frozenset(inner.labels_of(f)) in outer.face_labelsets()
                           for f in inner.facets)
            assert is_subcomplex(inner, outer) == expected
    assert is_subcomplex(VOID, outers[0]) and is_subcomplex(EMPTY, outers[1]) == (
        not outers[1].is_void)


def test_union_and_subcomplex_predicates():
    left = simplex(["a", "b"])
    right = simplex(["b", "c"])
    both = union(left, right)
    assert both.f_vector() == (1, 3, 2)
    assert is_subcomplex(left, both)
    assert is_induced_subcomplex(left, both)
    # b-c path inside the triangle is a subcomplex but not induced
    tri = simplex(["a", "b", "c"])
    wedge = SimplicialComplex.from_facets([("a", "b"), ("b", "c")])
    assert is_subcomplex(wedge, tri)
    assert not is_induced_subcomplex(wedge, tri)
    assert is_subcomplex(VOID, tri)


def test_is_induced_subcomplex_needs_a_subcomplex():
    with pytest.raises(PreconditionError, match="not a subcomplex"):
        is_induced_subcomplex(simplex("abd"), simplex("abc"))


def test_fresh_label():
    c = simplex(["w", "w1"])
    lab = fresh_label(c)
    assert lab not in c.table
    assert fresh_label(c, "z") == "z"


# ------------------------------------------------------------- generators


def test_generators_reject_bad_parameters():
    with pytest.raises(PreconditionError):
        cycle(2)
    with pytest.raises(PreconditionError):
        path(-1)
    with pytest.raises(PreconditionError):
        cross_polytope_boundary(0)
    with pytest.raises(PreconditionError):
        boundary_simplex("")


def test_boundary_simplex():
    assert boundary_simplex("ab").f_vector() == (1, 2)
    assert boundary_simplex("abc").f_vector() == (1, 3, 3)
    # boundary of a point is the empty complex
    assert boundary_simplex("a").is_empty


def test_cross_polytope():
    c = cross_polytope_boundary(4)
    assert c.f_vector() == (1, 8, 24, 32, 16)
    assert c.is_flag()


def test_example_balls_shape():
    ex52 = example_5_2_ball()
    assert ex52.dim == 3
    assert len(ex52.vertices) == 7
    assert len(ex52.facets) == 8
    ex54 = example_5_4_ball()
    assert ex54.dim == 3
    assert len(ex54.vertices) == 11
    assert len(ex54.facets) == 16
    assert ex54.is_flag()
    assert not ex52.is_flag()


# ------------------------------------------------------------- file format


def test_parse_basics():
    c = parse_facet_text("a b c\n# comment\nb d  # trailing\n\n")
    assert c.facet_labelsets() == frozenset(
        {frozenset({"a", "b", "c"}), frozenset({"b", "d"})})


def test_parse_empty_face_and_void():
    assert parse_facet_text("@\n").is_empty
    assert parse_facet_text("").is_void
    assert parse_facet_text("# only comments\n").is_void


def test_parse_stops_at_section_marker():
    c = parse_facet_text("a b\n%\nthis is not parsed\n")
    assert c.facet_labelsets() == frozenset({frozenset({"a", "b"})})


def test_parse_errors():
    with pytest.raises(FileFormatError):
        parse_facet_text("a a\n")
    with pytest.raises(FileFormatError):
        parse_facet_text("a @\n")
    with pytest.raises(FileFormatError):
        parse_facet_text("a ->\n")


def test_parse_reports_a_bad_label_at_its_first_line():
    # each distinct label is checked once, where it first occurs
    with pytest.raises(FileFormatError, match="^line 2: label '->' collides"):
        parse_facet_text("a b\nb ->\nc d\n-> a\n")


def test_format_round_trip():
    for c in [octahedron(), EMPTY, path(4), example_5_2_ball()]:
        assert parse_facet_text(format_facet_text(c)) == c
    assert format_facet_text(VOID) == ""


def test_file_round_trip(tmp_path):
    target = tmp_path / "oct.facets"
    write_facet_file(octahedron(), target)
    assert read_facet_file(target) == octahedron()
