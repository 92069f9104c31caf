"""Finite abstract simplicial complexes with labeled vertices.

A complex is stored by its inclusion-maximal faces (facets).  Vertices carry
string labels; internally a face is a strictly increasing tuple of dense
integer ids so that subset tests stay cheap and all iteration orders are
deterministic.  Two degenerate complexes are kept distinct throughout the
library: the void complex, which has no faces at all, and the empty complex
whose single face is the empty face (dimension -1).  They behave differently
under every invariant downstream, so conflating them is always a bug.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .errors import (
    FileFormatError,
    MalformedFaceError,
    NotAFaceError,
    PreconditionError,
)

Face = tuple[int, ...]

_COMMENT = "#"
_EMPTY_FACE_TOKEN = "@"
_SECTION_TOKEN = "%"
_ARROW = "->"


def _validate_label(label: str) -> str:
    if not isinstance(label, str) or not label:
        raise MalformedFaceError(f"vertex label must be a nonempty string, got {label!r}")
    if label in (_EMPTY_FACE_TOKEN, _SECTION_TOKEN, _ARROW) or label.startswith(_COMMENT):
        raise MalformedFaceError(f"label {label!r} collides with facet file syntax")
    if any(ch.isspace() for ch in label):
        raise MalformedFaceError(f"label {label!r} contains whitespace")
    return label


class LabelTable:
    """Bijection between vertex labels and the dense ids 0..len-1."""

    __slots__ = ("_labels", "_index")

    def __init__(self, labels: Iterable[str]):
        self._labels = tuple(_validate_label(lab) for lab in labels)
        self._index = {lab: i for i, lab in enumerate(self._labels)}
        if len(self._index) != len(self._labels):
            raise MalformedFaceError("duplicate vertex labels")

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    def id(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise NotAFaceError(f"unknown vertex label {label!r}") from None

    def label(self, vid: int) -> str:
        return self._labels[vid]

    def face(self, labels: Iterable[str]) -> Face:
        ids = sorted(self.id(lab) for lab in labels)
        face = tuple(ids)
        if any(a == b for a, b in zip(face, face[1:])):
            raise MalformedFaceError(f"face {tuple(labels)!r} repeats a vertex")
        return face

    def labels_of(self, face: Face) -> tuple[str, ...]:
        return tuple(self._labels[v] for v in face)

    def _restricted(self, vids: Iterable[int]) -> "LabelTable":
        """The table of the given ids' labels, in the order given; they are
        valid and distinct already, so they are not validated again."""
        table = LabelTable.__new__(LabelTable)
        table._labels = self.labels_of(vids)
        table._index = {lab: i for i, lab in enumerate(table._labels)}
        return table

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def __iter__(self):
        return iter(self._labels)

    def __eq__(self, other) -> bool:
        return isinstance(other, LabelTable) and self._labels == other._labels

    def __hash__(self) -> int:
        return hash(self._labels)

    def __repr__(self) -> str:
        return f"LabelTable({list(self._labels)!r})"


def _as_id_face(face: Iterable[int]) -> Face:
    ids = sorted(face)
    if any(not isinstance(v, int) or v < 0 for v in ids):
        raise MalformedFaceError(f"vertex ids must be nonnegative integers, got {ids!r}")
    out = tuple(ids)
    if any(a == b for a, b in zip(out, out[1:])):
        raise MalformedFaceError(f"face {out!r} repeats a vertex")
    return out


def _maximal(faces: Iterable[Face]) -> list[Face]:
    # distinct faces of equal size never contain one another, so domination
    # is only tested against the strictly larger faces already kept, whose
    # sets are built when the size changes (never, for faces of one size)
    ordered = sorted(set(faces), key=lambda f: (-len(f), f))
    kept: list[Face] = []
    kept_sets: list[frozenset[int]] = []
    cur_len: int | None = None
    for f in ordered:
        if len(f) != cur_len:
            kept_sets = list(map(frozenset, kept))
            cur_len = len(f)
        if not any(s.issuperset(f) for s in kept_sets):
            kept.append(f)
    return kept


class SimplicialComplex:
    """An abstract simplicial complex given by its facets.

    Instances are immutable; every derived complex is a new object.  Equality
    and hashing compare one canonical value: the labels in sorted order and
    the facets as sorted tuples of ids into that order.  It is the label
    table and the facets themselves when the table is sorted, and equal for
    two complexes exactly when their sets of facet label sets are, so
    complexes built along different routes agree whenever their faces agree.
    """

    __slots__ = ("_table", "_facets", "_dim", "_all_faces", "_hash")

    def __init__(self, table: LabelTable, facets: tuple[Face, ...]):
        # Internal constructor: `from_facets` is the validated entry point.
        self._table = table
        self._facets = facets
        self._dim = max(map(len, facets)) - 1 if facets else None
        self._all_faces: frozenset[Face] | None = None
        self._hash: int | None = None

    @classmethod
    def from_facets(cls, facets: Iterable[Iterable], labels=None) -> "SimplicialComplex":
        """Build a complex from candidate facets.

        Without `labels`, facets are iterables of string labels and the label
        table is the sorted set of labels that occur.  With `labels` (a
        LabelTable or a sequence of labels fixing the id order), facets are
        iterables of integer ids.  Non-maximal entries are absorbed; ids are
        re-densified so only vertices that actually occur remain.
        """
        raw = [tuple(f) for f in facets]
        if labels is None:
            seen: set[str] = set()
            for f in raw:
                for lab in f:
                    seen.add(_validate_label(lab))
            table = LabelTable(sorted(seen))
            id_faces = [table.face(f) for f in raw]
        else:
            table = labels if isinstance(labels, LabelTable) else LabelTable(labels)
            id_faces = [_as_id_face(f) for f in raw]
            for f in id_faces:
                if f and f[-1] >= len(table):
                    raise MalformedFaceError(f"vertex id {f[-1]} outside label table")
        return cls._on_ids(table, _maximal(id_faces))

    @classmethod
    def _on_ids(cls, table: LabelTable, facets: list[Face]) -> "SimplicialComplex":
        """The complex with these distinct, maximal id facets of a validated
        table, keeping only the vertices that occur, in the table's id order."""
        used = sorted({v for f in facets for v in f})
        if len(used) != len(table):
            remap = {old: new for new, old in enumerate(used)}
            table = table._restricted(used)
            facets = [tuple(remap[v] for v in f) for f in facets]
        return cls(table, tuple(sorted(facets)))

    # ---------------------------------------------------------------- basics

    @property
    def table(self) -> LabelTable:
        return self._table

    @property
    def facets(self) -> tuple[Face, ...]:
        return self._facets

    @property
    def is_void(self) -> bool:
        return not self._facets

    @property
    def is_empty(self) -> bool:
        return self._facets == ((),)

    @property
    def dim(self) -> int | None:
        """Dimension, or None for the void complex."""
        return self._dim

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(range(len(self._table)))

    @property
    def vertex_labels(self) -> tuple[str, ...]:
        return self._table.labels

    def face(self, labels: Iterable[str]) -> Face:
        return self._table.face(labels)

    def labels_of(self, face: Face) -> tuple[str, ...]:
        return self._table.labels_of(face)

    def faces(self) -> frozenset[Face]:
        """All faces, including the empty face for non-void complexes."""
        if self._all_faces is None:
            self._all_faces = self._face_set()
        return self._all_faces

    def _face_set(self) -> frozenset[Face]:
        """faces(), read from the cache when it is filled; never fills it."""
        if self._all_faces is not None:
            return self._all_faces
        acc: set[Face] = set()
        if self._facets:
            acc.add(())
        for facet in self._facets:
            for k in range(1, len(facet) + 1):
                acc.update(itertools.combinations(facet, k))
        return frozenset(acc)

    def faces_of_dim(self, d: int) -> tuple[Face, ...]:
        """The faces of dimension d, sorted."""
        return tuple(sorted(f for f in self.faces() if len(f) == d + 1))

    def f_vector(self) -> tuple[int, ...]:
        """(f_{-1}, f_0, ..., f_{dim}); the void complex has the empty f-vector."""
        if self.is_void:
            return ()
        counts = [0] * (self._dim + 2)
        for f in self.faces():
            counts[len(f)] += 1
        return tuple(counts)

    def reduced_euler(self) -> int:
        """Alternating face count, with the empty face contributing -1."""
        return -sum((-1) ** i * n for i, n in enumerate(self.f_vector()))

    def __contains__(self, face: Face) -> bool:
        return tuple(face) in self.faces()

    def _face_arg(self, face) -> Face:
        """Accept a face as ids or as labels and return the id form."""
        face = tuple(face)
        if face and all(isinstance(v, str) for v in face):
            face = self._table.face(face)
        else:
            face = _as_id_face(face)
        if face not in self.faces():
            known = face and face[-1] < len(self._table)
            raise NotAFaceError(f"{self.labels_of(face) if known else face} is not a face")
        return face

    # ------------------------------------------------------------ operations

    def link(self, face) -> "SimplicialComplex":
        """The link of a face, given as ids or as labels."""
        return self._link_ids(self._face_arg(face))

    def _link_ids(self, face: Face) -> "SimplicialComplex":
        """The link of an id face of this complex.

        Its facets are F minus the face for the facets F containing the face,
        found by one scan of the facets, and distinct and maximal because the
        F are; its label table keeps this complex's id order.  The empty
        face's link is this complex itself, with its cached faces.  The face
        is not validated again.
        """
        if not face:
            return self
        star = [f for f in self._facets if all(v in f for v in face)]
        return SimplicialComplex._on_ids(
            self._table, [tuple(v for v in f if v not in face) for f in star])

    def induced(self, vertices) -> "SimplicialComplex":
        """Induced subcomplex on a vertex subset (ids or labels)."""
        vs = set()
        for v in vertices:
            vs.add(self._table.id(v) if isinstance(v, str) else v)
        for v in vs:
            if not (0 <= v < len(self._table)):
                raise NotAFaceError(f"vertex id {v} outside complex")
        cut = [tuple(v for v in facet if v in vs) for facet in self._facets]
        return SimplicialComplex.from_facets([self._table.labels_of(f) for f in cut])

    def delete_vertex(self, vertex) -> "SimplicialComplex":
        """All faces not containing the vertex (the antistar)."""
        v = self._table.id(vertex) if isinstance(vertex, str) else vertex
        if not 0 <= v < len(self._table):
            raise NotAFaceError(f"vertex {vertex!r} not in complex")
        cut = [tuple(u for u in facet if u != v) for facet in self._facets]
        return SimplicialComplex.from_facets([self._table.labels_of(f) for f in cut])

    def cone(self, apex_label: str) -> "SimplicialComplex":
        if self.is_void:
            raise PreconditionError("cannot cone the void complex")
        _validate_label(apex_label)
        if apex_label in self._table:
            raise MalformedFaceError(f"apex label {apex_label!r} already used")
        new_facets = [self._table.labels_of(f) + (apex_label,) for f in self._facets]
        return SimplicialComplex.from_facets(new_facets)

    def is_pure(self) -> bool:
        if self.is_void:
            return True
        sizes = {len(f) for f in self._facets}
        return len(sizes) == 1

    def is_flag(self) -> bool:
        """True when every pairwise-connected vertex set is a face.

        Walks cliques of the 1-skeleton in id order and stops at the first
        clique that is not a face, so the cost is bounded by the face count
        on flag inputs.
        """
        if self.is_void:
            raise PreconditionError("flagness is undefined for the void complex")
        faces = self.faces()
        nbr: dict[int, set[int]] = {v: set() for v in self.vertices}
        for (a, b) in self.faces_of_dim(1):
            nbr[a].add(b)
            nbr[b].add(a)

        def extend(clique: Face, candidates: set[int]) -> bool:
            for v in sorted(candidates):
                new = clique + (v,)
                if new not in faces:
                    return False
                if not extend(new, candidates & {u for u in nbr[v] if u > v}):
                    return False
            return True

        return extend((), {v for v in self.vertices})

    # ------------------------------------------------------------- identity

    def facet_labelsets(self) -> frozenset[frozenset[str]]:
        return frozenset(frozenset(self._table.labels_of(f)) for f in self._facets)

    def face_labelsets(self) -> frozenset[frozenset[str]]:
        return frozenset(frozenset(self._table.labels_of(f)) for f in self._face_set())

    def _canonical(self) -> tuple[tuple[str, ...], tuple[Face, ...]]:
        """The sorted labels and the sorted facets on their ids.  The table
        holds just the vertices that occur and the facets are sorted and
        distinct (see _on_ids), so only an unsorted table needs re-sorting."""
        labels = self._table.labels
        if all(a < b for a, b in zip(labels, labels[1:])):
            return labels, self._facets
        order = sorted(range(len(labels)), key=labels.__getitem__)
        rank = {old: new for new, old in enumerate(order)}
        return (tuple(labels[v] for v in order),
                tuple(sorted(tuple(sorted(rank[v] for v in f)) for f in self._facets)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self is other or (
            hash(self) == hash(other) and self._canonical() == other._canonical())

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._canonical())
        return self._hash

    def __repr__(self) -> str:
        if self.is_void:
            return "<SimplicialComplex VOID>"
        return f"<SimplicialComplex dim={self.dim} f={self.f_vector()}>"


# -------------------------------------------------------------- module level


def union(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """Union of two complexes, matching vertices by label."""
    facets = [a.labels_of(f) for f in a.facets] + [b.labels_of(f) for f in b.facets]
    return SimplicialComplex.from_facets(facets)


def is_subcomplex(inner: SimplicialComplex, outer: SimplicialComplex) -> bool:
    """Whether every face of inner is a face of outer, matched by label."""
    if inner.is_void:
        return True
    if not all(map(outer.table.__contains__, inner.vertex_labels)):
        return False
    to_outer = [outer.table.id(lab) for lab in inner.vertex_labels]
    outer_faces = outer._face_set()
    return all(tuple(sorted(map(to_outer.__getitem__, f))) in outer_faces
               for f in inner.facets)


def is_induced_subcomplex(inner: SimplicialComplex, outer: SimplicialComplex) -> bool:
    """Whether `inner` equals the induced subcomplex of `outer` on its vertices."""
    if not is_subcomplex(inner, outer):
        raise PreconditionError("first argument is not a subcomplex of the second")
    if inner.is_void:
        return False
    return outer.induced(inner.vertex_labels) == inner


def fresh_label(complex_: SimplicialComplex, stem: str = "w") -> str:
    if stem not in complex_.table:
        return stem
    i = 0
    while f"{stem}{i}" in complex_.table:
        i += 1
    return f"{stem}{i}"


# -------------------------------------------------------------- generators


def simplex(labels: Iterable[str]) -> SimplicialComplex:
    """The full simplex on the given vertex labels; the empty complex for none."""
    return SimplicialComplex.from_facets([tuple(labels)])


def boundary_simplex(labels: Iterable[str]) -> SimplicialComplex:
    labs = tuple(labels)
    if not labs:
        raise PreconditionError("boundary of the empty simplex is void; not representable")
    return SimplicialComplex.from_facets(itertools.combinations(labs, len(labs) - 1))


def cross_polytope_boundary(n: int) -> SimplicialComplex:
    """Boundary of the n-dimensional cross-polytope: an (n-1)-sphere on 2n vertices."""
    if n < 1:
        raise PreconditionError("need at least one antipodal pair")
    pairs = [(f"x{i}", f"y{i}") for i in range(1, n + 1)]
    facets = [tuple(choice) for choice in itertools.product(*pairs)]
    return SimplicialComplex.from_facets(facets)


def octahedron() -> SimplicialComplex:
    return cross_polytope_boundary(3)


def path(k: int) -> SimplicialComplex:
    """Path with k edges on vertices v0..vk; a single point for k = 0."""
    if k < 0:
        raise PreconditionError("edge count must be nonnegative")
    if k == 0:
        return simplex(["v0"])
    return SimplicialComplex.from_facets(
        [(f"v{i}", f"v{i+1}") for i in range(k)])


def cycle(k: int) -> SimplicialComplex:
    if k < 3:
        raise PreconditionError("cycles need at least three vertices")
    return SimplicialComplex.from_facets(
        [(f"v{i}", f"v{(i+1) % k}") for i in range(k)])


def _glued_tetrahedra() -> SimplicialComplex:
    return SimplicialComplex.from_facets([("a", "b", "c", "d"), ("b", "c", "d", "e")])


def example_5_2_ball() -> SimplicialComplex:
    """Two glued tetrahedra with both original facets stellarly subdivided.

    A 3-ball on 7 vertices and 8 facets whose boundary is not an induced
    subcomplex, yet every facet contains one of the two interior vertices.
    """
    from .subdivisions import stellar

    start = _glued_tetrahedra()
    once = stellar(start, ("a", "b", "c", "d"), "u").total
    return stellar(once, ("b", "c", "d", "e"), "v").total


def example_5_4_ball() -> SimplicialComplex:
    """Union of cones over two octahedral spheres glued along a triangle.

    A flag 3-ball on 11 vertices and 16 facets whose theta polynomial is
    symmetric but not gamma-positive; its boundary is not induced (the glue
    triangle is interior).
    """
    shared = ("f1", "f2", "f3")

    def octa(others):
        pairs = list(zip(shared, others))
        return SimplicialComplex.from_facets(
            tuple(choice) for choice in itertools.product(*pairs))

    s1 = octa(("a1", "a2", "a3"))
    s2 = octa(("b1", "b2", "b3"))
    return union(s1.cone("u1"), s2.cone("u2"))


# ------------------------------------------------------------- facet files


def parse_facet_text(text: str) -> SimplicialComplex:
    """Parse the facet file format.

    One facet per line as whitespace-separated labels; '#' starts a comment;
    a lone '@' denotes the empty face.  A file with no facet lines at all is
    the void complex.  Parsing stops at a '%' line so the leading section of
    a triangulation file reads as a facet file.
    """
    facets: list[tuple[str, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(_COMMENT, 1)[0].strip()
        if not line:
            continue
        if line == _SECTION_TOKEN:
            break
        tokens = line.split()
        if tokens == [_EMPTY_FACE_TOKEN]:
            facets.append(())
            continue
        if _EMPTY_FACE_TOKEN in tokens:
            raise FileFormatError(f"line {lineno}: '@' cannot appear inside a facet")
        if len(set(tokens)) != len(tokens):
            raise FileFormatError(f"line {lineno}: facet repeats a vertex")
        for tok in tokens:
            try:
                _validate_label(tok)
            except MalformedFaceError as exc:
                raise FileFormatError(f"line {lineno}: {exc}") from None
        facets.append(tuple(tokens))
    return SimplicialComplex.from_facets(facets)


def format_facet_text(complex_: SimplicialComplex) -> str:
    if complex_.is_void:
        return ""
    lines = []
    for facet in complex_.facets:
        lines.append(" ".join(complex_.labels_of(facet)) if facet else _EMPTY_FACE_TOKEN)
    return "\n".join(sorted(lines)) + "\n"


def _read_text_file(path) -> str:
    """The contents of a facet or triangulation file, which must be UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def read_facet_file(path) -> SimplicialComplex:
    return parse_facet_text(_read_text_file(path))


def write_facet_file(complex_: SimplicialComplex, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_facet_text(complex_))
