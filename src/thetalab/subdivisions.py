"""Triangulations of simplicial complexes with explicit carrier maps.

A Triangulation records a base complex, a total complex refining it, and the
carrier of every face of the total complex: the base face it lives in.  The
carrier of a face always equals the union of the carriers of its vertices,
so only vertex carriers are stored, each as a bitmask of base vertex ids; a
face's carrier is the OR of its vertices' masks.  The constructor takes the
same mapping as the file format: every vertex of the total complex needs a
carrier, and a higher face may be given one only if it equals the union.

Each Triangulation caches one carrier index: for every carrier mask, the
faces carried there, listed by size.  validate checks it mask by mask, local
h of any restriction is a sum over its list lengths (see invariants), and the
harness reads the largest faces of restrictions from it.

Constructors: identity, barycentric, antiprism, stellar, edgewise, compose.
They work on ids and masks: each new vertex gets its label and carrier mask
once, the total complex is built on a label table validated once, and a
private constructor takes the masks without re-checking carrier keys.  The
public constructor and the file parser keep every check.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterable, Mapping

from .complexes import (
    Face,
    SimplicialComplex,
    _SECTION_TOKEN,
    _ARROW,
    _COMMENT,
    _EMPTY_FACE_TOKEN,
    LabelTable,
    _maximal,
    _read_text_file,
    fresh_label,
    parse_facet_text,
)
from .errors import (
    FileFormatError,
    InvalidTriangulationError,
    MalformedFaceError,
    NotAFaceError,
    PreconditionError,
)
from .polynomials import IntPoly, is_gamma_positive, is_nonnegative, is_unimodal

LabelSet = frozenset[str]


def _mask(face: Face) -> int:
    mask = 0
    for v in face:
        mask |= 1 << v
    return mask


def _ids(mask: int) -> Face:
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def _mask_labels(complex_: SimplicialComplex, mask: int) -> list[str]:
    return sorted(complex_.labels_of(_ids(mask)))


class Triangulation:
    """A total complex refining a base complex, with face carriers."""

    __slots__ = ("_base", "_total", "_vmask", "_index")

    @classmethod
    def _on_masks(cls, base: SimplicialComplex, total: SimplicialComplex,
                  vmask: Iterable[int], *, validate: bool = True) -> "Triangulation":
        """The triangulation with these vertex-carrier masks, one per total
        vertex id; masks and complexes are trusted, not checked again."""
        tri = cls.__new__(cls)
        tri._base, tri._total, tri._vmask = base, total, tuple(vmask)
        tri._index = None
        if validate:
            tri.validate()
        return tri

    def __init__(
        self,
        base: SimplicialComplex,
        total: SimplicialComplex,
        carrier: Mapping[Iterable[str] | Face, Iterable[str] | Face],
        *,
        validate: bool = True,
    ):
        self._base = base
        self._total = total
        self._index: dict[int, list[list[Face]]] | None = None
        vmask: list[int | None] = [None] * len(total.table)
        higher: list[tuple[Face, int]] = []
        for key, value in carrier.items():
            kface = total._face_arg(tuple(key))
            mask = _mask(base._face_arg(tuple(value)))
            if len(kface) != 1:
                higher.append((kface, mask))
            elif vmask[kface[0]] is None:
                vmask[kface[0]] = mask
            elif vmask[kface[0]] != mask:
                raise InvalidTriangulationError(
                    f"conflicting carriers for face {sorted(total.labels_of(kface))}"
                )
        missing = vmask.count(None)
        if missing:
            raise InvalidTriangulationError(
                "carrier map must give the carrier of every vertex of the total"
                f" complex ({missing} missing)"
            )
        self._vmask: tuple[int, ...] = tuple(vmask)
        for kface, mask in higher:
            union = self._carrier_mask(kface)
            if union != mask:
                raise InvalidTriangulationError(
                    f"carrier of {sorted(total.labels_of(kface))} is"
                    f" {_mask_labels(base, mask)} but its vertex carriers union"
                    f" to {_mask_labels(base, union)}"
                )
        if validate:
            self.validate()

    @property
    def base(self) -> SimplicialComplex:
        return self._base

    @property
    def total(self) -> SimplicialComplex:
        return self._total

    def _carrier_mask(self, face: Face) -> int:
        vmask = self._vmask
        mask = 0
        for v in face:
            mask |= vmask[v]
        return mask

    def _carrier_index(self) -> dict[int, list[list[Face]]]:
        """The faces of the total complex by carrier mask and size (cached).

        List k at mask m holds the faces with k vertices and carrier mask m;
        the empty face is at mask 0.  Every mask has dim + 2 lists, for the
        face sizes of the total complex, and its vertex list is in id order.
        """
        if self._index is None:
            width = 0 if self._total.is_void else self._total.dim + 2
            index: dict[int, list[list[Face]]] = {}
            for face in self._total.faces():
                mask = self._carrier_mask(face)
                lists = index.get(mask)
                if lists is None:
                    lists = index[mask] = [[] for _ in range(width)]
                lists[len(face)].append(face)
            if width > 1:
                for lists in index.values():
                    lists[1].sort()
            self._index = index
        return self._index

    def _counts_in(self, face: Face) -> list[int]:
        """Face counts by size of the restriction to a base face (ids): the
        faces carried in any part of it, the empty face included."""
        index, subs = self._carrier_index(), [0]
        for v in face:
            subs += [sub | 1 << v for sub in subs]
        within = [index[sub] for sub in subs if sub in index]
        return [sum(map(len, faces)) for faces in zip(*within)]

    def carrier_of(self, face) -> Face:
        """Carrier of a total face, as a face (id tuple) of the base."""
        kface = self._total._face_arg(face if isinstance(face, tuple) else tuple(face))
        return _ids(self._carrier_mask(kface))

    def carrier_labels(self, face) -> tuple[str, ...]:
        kface = self._total._face_arg(face if isinstance(face, tuple) else tuple(face))
        return tuple(_mask_labels(self._base, self._carrier_mask(kface)))

    @property
    def carrier_map(self) -> dict[LabelSet, LabelSet]:
        """Carrier assignments of every face, keyed by label sets (a new dict)."""
        total, base = self._total, self._base
        return {
            frozenset(total.labels_of(f)): frozenset(base.labels_of(_ids(m)))
            for m, lists in self._carrier_index().items()
            for faces in lists for f in faces
        }

    def validate(self) -> None:
        """Check the triangulation axioms, raising on any violation.

        Besides bookkeeping (carriers are base faces, only the empty face has
        the empty carrier), this checks that the restriction to every base
        face is pure of the right dimension and has the Euler characteristic
        of a ball, with vertices restricting to single points.  Carriers and
        dimensions are checked once per carrier mask, purity face by face,
        and Euler characteristics and full dimension from face counts.
        """
        base, total = self._base, self._total
        if base.is_void != total.is_void:
            raise InvalidTriangulationError("exactly one of base and total is void")
        if total.is_void:
            return
        if 0 in self._vmask:
            raise InvalidTriangulationError(
                "only the empty face may have an empty carrier"
            )
        base_masks = {_mask(f) for f in base.faces()}
        index = self._carrier_index()
        # carriers of the faces one vertex larger: a face of a restriction is
        # maximal there exactly when none of these lies inside the base face
        up: dict[Face, list[int]] = {}
        for mask, lists in index.items():
            if mask not in base_masks:
                face = next(itertools.chain.from_iterable(lists))
                raise InvalidTriangulationError(
                    f"carrier {_mask_labels(base, mask)} of"
                    f" {sorted(total.labels_of(face))} is not a face of the base"
                )
            for face in itertools.chain.from_iterable(lists[2:]):
                for sub in itertools.combinations(face, len(face) - 1):
                    up.setdefault(sub, []).append(mask)
        # the base faces one vertex larger than each base face
        wider: dict[int, list[int]] = {}
        for fmask in base_masks:
            rest = fmask
            while rest:
                bit = rest & -rest
                wider.setdefault(fmask ^ bit, []).append(fmask)
                rest ^= bit
        # a face m lies in the restriction to every base face containing
        # sigma(m); it is maximal in some restriction of higher dimension
        # exactly when it is maximal (no coface carried inside) in the
        # restriction to sigma(m) (when |m| < |sigma(m)|) or to some
        # sigma(m) + w (when |m| = |sigma(m)|)
        for mask, lists in index.items():
            size = mask.bit_count()
            if any(lists[size + 1:]):
                raise InvalidTriangulationError(
                    f"restriction to {_mask_labels(base, mask)} has a face of"
                    f" dimension above dim {size - 1}"
                )
            for k, faces in enumerate(lists[1:size + 1], 1):
                targets = (mask,) if k < size else wider.get(mask, ())
                for face in faces:
                    cofaces = up.get(face, ())
                    if mask in cofaces:  # that coface is wherever face is
                        continue
                    for w in targets:
                        if all(e & ~w for e in cofaces):
                            raise InvalidTriangulationError(
                                f"restriction to {_mask_labels(base, w)} is not"
                                f" pure: {sorted(total.labels_of(face))} is maximal"
                            )
        for fmask in base_masks:
            if not fmask:
                continue
            size = fmask.bit_count()
            counts = self._counts_in(_ids(fmask))
            if size >= len(counts) or not counts[size]:
                raise InvalidTriangulationError(
                    f"restriction to {_mask_labels(base, fmask)} has no face of"
                    " full dimension"
                )
            # a vertex's restriction has only points by the dimension check,
            # so reduced Euler characteristic 0 makes it a single point
            euler = sum(c if k % 2 else -c for k, c in enumerate(counts))
            if euler:
                raise InvalidTriangulationError(
                    f"restriction to {_mask_labels(base, fmask)} has reduced Euler"
                    f" characteristic {euler}, expected 0"
                )

    def restriction(self, face) -> "Triangulation":
        """The induced triangulation of a base face (a simplex).

        It keeps the faces whose carrier lies inside the face.  Carriers are
        vertex unions, so that is the subcomplex induced on the vertices
        carried into the face.
        """
        base, total = self._base, self._total
        bface = base._face_arg(face if isinstance(face, tuple) else tuple(face))
        outside = ~_mask(bface)
        kept = [v for v, m in enumerate(self._vmask) if not m & outside]
        inside = set(kept)
        sub_total = SimplicialComplex._on_ids(total.table, _maximal(
            tuple(filter(inside.__contains__, facet)) for facet in total.facets))
        # _on_ids keeps the order of the kept ids when it renumbers
        sub_base = SimplicialComplex._on_ids(base.table, [bface])
        to_sub = {b: i for i, b in enumerate(bface)}
        vmask = [_mask(to_sub[b] for b in _ids(self._vmask[v])) for v in kept]
        return Triangulation._on_masks(sub_base, sub_total, vmask, validate=False)

    def __eq__(self, other) -> bool:
        # total equality fixes the vertex labels, and vertex carriers fix the
        # rest; both sides are compared by label, not by id
        return (
            isinstance(other, Triangulation)
            and self._base == other._base
            and self._total == other._total
            and self._vertex_carriers() == other._vertex_carriers()
        )

    def _vertex_carriers(self) -> dict[str, LabelSet]:
        base = self._base
        return {
            lab: frozenset(base.labels_of(_ids(m)))
            for lab, m in zip(self._total.vertex_labels, self._vmask)
        }

    def __hash__(self) -> int:
        return hash((self._base, self._total))

    def __repr__(self) -> str:
        b = len(self._base.facets) if not self._base.is_void else 0
        t = len(self._total.facets) if not self._total.is_void else 0
        return f"Triangulation({b} base facets -> {t} total facets)"


# ------------------------------------------------------------- constructors


def identity(complex_: SimplicialComplex) -> Triangulation:
    """The trivial triangulation: every face is its own carrier."""
    vmask = [1 << v for v in complex_.vertices]
    return Triangulation._on_masks(complex_, complex_, vmask, validate=False)


def _subdivision(base: SimplicialComplex, node_facets: list, label, mask) -> Triangulation:
    """The validated triangulation of base whose total has these facets of nodes.

    label(node) and mask(node) give a new vertex's label and carrier mask; each
    is called once per distinct node.  Vertex ids follow the sorted labels, as
    from_facets would number them.
    """
    carriers: dict[str, int] = {}
    names = {}
    for node in dict.fromkeys(itertools.chain.from_iterable(node_facets)):
        lab, m = label(node), mask(node)
        if carriers.setdefault(lab, m) != m:
            raise PreconditionError(
                f"base labels make the subdivision label {lab!r} ambiguous"
            )
        names[node] = lab
    table = LabelTable(sorted(carriers))
    ids = {node: table.id(lab) for node, lab in names.items()}
    total = SimplicialComplex._on_ids(table, _maximal(
        tuple(sorted(map(ids.__getitem__, f))) for f in node_facets))
    return Triangulation._on_masks(base, total, map(carriers.__getitem__, table))


def barycentric(complex_: SimplicialComplex) -> Triangulation:
    """The barycentric subdivision: vertices are nonempty faces, faces are chains."""
    if complex_.is_void or complex_.is_empty:
        return identity(complex_)
    # a chain is the masks of the growing prefixes of a facet's permutation
    chains = [
        tuple(itertools.accumulate((1 << v for v in perm), int.__or__))
        for facet in complex_.facets
        for perm in itertools.permutations(facet)
    ]
    return _subdivision(
        complex_, chains,
        lambda m: "{" + ",".join(_mask_labels(complex_, m)) + "}", lambda m: m)


def _maximal_cliques(nodes: list, adjacency: dict) -> list[frozenset]:
    """Bron-Kerbosch with pivoting; adjacency maps node -> set of neighbours."""
    cliques: list[frozenset] = []

    def expand(r: set, p: set, x: set) -> None:
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


def antiprism(complex_: SimplicialComplex) -> Triangulation:
    """The antiprism triangulation.

    Vertices are pointed faces (F, v) with v in F; a set of them is a face
    when the F's form a chain and, for F properly inside G, the point of G
    lies outside F.  Facets are collected per base facet as the maximal
    cliques of that pairwise relation.
    """
    if complex_.is_void or complex_.is_empty:
        return identity(complex_)

    def node_label(node: tuple[frozenset[int], int]) -> str:
        fset, point = node
        return ("({" + ",".join(_mask_labels(complex_, _mask(fset))) + "},"
                + complex_.table.label(point) + ")")

    def compatible(a: tuple[frozenset[int], int], b: tuple[frozenset[int], int]) -> bool:
        fa, va = a
        fb, vb = b
        if fa == fb:
            return True
        if fa < fb:
            return vb not in fa
        if fb < fa:
            return va not in fb
        return False

    cliques: list[frozenset] = []
    for facet in complex_.facets:
        nodes = [
            (frozenset(sub), v)
            for k in range(1, len(facet) + 1)
            for sub in itertools.combinations(facet, k)
            for v in sub
        ]
        adjacency = {
            n: {m for m in nodes if m != n and compatible(n, m)} for n in nodes
        }
        cliques.extend(_maximal_cliques(nodes, adjacency))
    return _subdivision(complex_, cliques, node_label, lambda node: _mask(node[0]))


def stellar(
    complex_: SimplicialComplex, face, new_label: str | None = None
) -> Triangulation:
    """Stellar subdivision: cone a new vertex over the star of a face."""
    fids = complex_._face_arg(face if isinstance(face, tuple) else tuple(face))
    if not fids:
        raise PreconditionError("stellar subdivision needs a nonempty face")
    if new_label is None:
        new_label = fresh_label(complex_)
    elif new_label in complex_.table:
        raise MalformedFaceError(f"label {new_label!r} already names a base vertex")
    # nodes are base vertex ids, and -1 for the new vertex
    fset, fmask = set(fids), _mask(fids)
    facets: list[Face] = []
    for facet in complex_.facets:
        if fset <= set(facet):
            facets.extend(tuple(v for v in facet if v != w) + (-1,) for w in fids)
        else:
            facets.append(facet)
    return _subdivision(
        complex_, facets,
        lambda v: new_label if v < 0 else complex_.table.label(v),
        lambda v: fmask if v < 0 else 1 << v)


def edgewise(complex_: SimplicialComplex, r: int) -> Triangulation:
    """The r-fold edgewise subdivision.

    Vertices are integer weightings of base vertices with total weight r and
    support in a face.  Two weightings are compatible when the difference of
    their partial-sum vectors, taken in the sorted order of the base's vertex
    labels, has entries all in {0,1} or all in {0,-1}; so equal bases give
    equal subdivisions, whatever their id order.
    """
    if int(r) != r or r < 1:
        raise PreconditionError(f"edgewise subdivision needs an integer r >= 1, got {r}")
    r = int(r)
    if complex_.is_void or complex_.is_empty or r == 1:
        return identity(complex_)
    order = sorted(complex_.vertices, key=complex_.table.label)
    pos = {v: i for i, v in enumerate(order)}
    m = len(order)

    def node_label(u: tuple[int, ...]) -> str:
        return "+".join(
            f"{complex_.table.label(order[i])}:{u[i]}" for i in range(m) if u[i]
        )

    def iota(u: tuple[int, ...]) -> tuple[int, ...]:
        acc = 0
        out = []
        for value in u:
            acc += value
            out.append(acc)
        return tuple(out)

    def compatible(iu: tuple[int, ...], iw: tuple[int, ...]) -> bool:
        diff = [a - b for a, b in zip(iu, iw)]
        return all(d in (0, 1) for d in diff) or all(d in (0, -1) for d in diff)

    cliques: list[frozenset] = []
    for facet in complex_.facets:
        slots = sorted(pos[v] for v in facet)
        nodes: list[tuple[int, ...]] = []
        for combo in itertools.combinations_with_replacement(slots, r):
            u = [0] * m
            for i in combo:
                u[i] += 1
            nodes.append(tuple(u))
        iotas = {u: iota(u) for u in nodes}
        adjacency = {
            u: {w for w in nodes if w != u and compatible(iotas[u], iotas[w])}
            for u in nodes
        }
        cliques.extend(_maximal_cliques(nodes, adjacency))
    return _subdivision(complex_, cliques, node_label,
                        lambda u: _mask(order[i] for i in range(m) if u[i]))


def compose(outer: Triangulation, inner: Triangulation) -> Triangulation:
    """Compose refinements: outer triangulates inner's total complex.

    The result triangulates inner's base by outer's total; the carrier of a
    face is the inner carrier of its outer carrier.
    """
    if outer.base != inner.total:
        raise PreconditionError(
            "compose needs outer.base equal to inner.total (same labels)"
        )
    # outer's base ids and inner's total ids may order the labels differently
    to_inner = [inner.total.table.id(lab) for lab in outer.base.vertex_labels]
    vmask = [inner._carrier_mask([to_inner[b] for b in _ids(mask)])
             for mask in outer._vmask]
    return Triangulation._on_masks(inner.base, outer.total, vmask)


@dataclasses.dataclass(frozen=True)
class ThetaClass:
    """Which sign properties the theta polynomials of all restrictions share."""

    positive: bool
    unimodal: bool
    gamma_positive: bool


def _theta_class_of(pairs: Iterable[tuple[IntPoly, int]]) -> ThetaClass:
    """Fold (theta, carrier size) pairs of the nonempty restrictions; unimodal
    reads positive, which has already checked that t is nonnegative."""
    positive = unimodal = gamma_positive = True
    for t, size in pairs:
        positive = positive and is_nonnegative(t)
        unimodal = unimodal and positive and is_unimodal(t)
        gamma_positive = gamma_positive and is_gamma_positive(t, size)
    return ThetaClass(positive, unimodal, gamma_positive)


def theta_class(tri: Triangulation) -> ThetaClass:
    """Classify a triangulation by the theta polynomials of its restrictions.

    positive means every restriction has nonnegative theta, unimodal
    additionally requires unimodal coefficients, and gamma_positive asks for
    gamma-positivity with respect to half the carrier size.  Every nonempty
    restriction must be a verified homology ball (theta is undefined
    otherwise); a PreconditionError names the first offending base face.
    """
    from .homology import is_homology_ball
    from .invariants import theta

    def restriction_theta(face: Face) -> IntPoly:
        sub = tri.restriction(face)
        boundary = is_homology_ball(sub.total)
        if boundary is None:
            raise PreconditionError(
                "theta_class needs every nonempty restriction to be a homology"
                f" ball; the restriction to {sorted(tri.base.labels_of(face))}"
                " is not"
            )
        return theta(sub.total, boundary)

    faces = [f for f in sorted(tri.base.faces(), key=len) if f]
    return _theta_class_of((restriction_theta(f), len(f)) for f in faces)


# --------------------------------------------------------------- file format


def format_triangulation_text(tri: Triangulation) -> str:
    """Render: total facet lines, a '%' separator, then carrier lines.

    Carrier lines are written for every facet and every vertex of the total
    complex; all other carriers are recovered as unions of vertex carriers.
    """
    from .complexes import format_facet_text

    lines = [format_facet_text(tri.total).rstrip("\n")]
    lines.append(_SECTION_TOKEN)
    total = tri.total
    written: set[frozenset[str]] = set()

    def carrier_line(labels: tuple[str, ...]) -> str:
        lhs = " ".join(labels) if labels else _EMPTY_FACE_TOKEN
        rhs_labels = tri.carrier_labels(labels if labels else ())
        rhs = " ".join(rhs_labels) if rhs_labels else _EMPTY_FACE_TOKEN
        return f"{lhs} {_ARROW} {rhs}"

    if not total.is_void:
        entries = []
        for f in total.facets:
            entries.append(tuple(sorted(total.labels_of(f))))
        for v in sorted(total.vertex_labels):
            entries.append((v,))
        for labels in entries:
            key = frozenset(labels)
            if key in written or not labels:
                continue
            written.add(key)
            lines.append(carrier_line(labels))
    return "\n".join(line for line in lines if line != "") + "\n"


def parse_triangulation_text(text: str) -> Triangulation:
    """Parse the triangulation format written by format_triangulation_text."""
    total = parse_facet_text(text)
    carrier_lines: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
    seen_section = False
    for raw in text.splitlines():
        line = raw.split(_COMMENT, 1)[0].strip()
        if not line:
            continue
        if line == _SECTION_TOKEN:
            if seen_section:
                raise FileFormatError("more than one '%' section separator")
            seen_section = True
            continue
        if not seen_section:
            continue
        parts = line.split()
        if parts.count(_ARROW) != 1:
            raise FileFormatError(f"carrier line needs exactly one '{_ARROW}': {line!r}")
        idx = parts.index(_ARROW)
        lhs_tokens, rhs_tokens = parts[:idx], parts[idx + 1 :]
        if not lhs_tokens or not rhs_tokens:
            raise FileFormatError(f"carrier line needs both sides: {line!r}")
        lhs = () if lhs_tokens == [_EMPTY_FACE_TOKEN] else tuple(sorted(lhs_tokens))
        rhs = () if rhs_tokens == [_EMPTY_FACE_TOKEN] else tuple(sorted(rhs_tokens))
        carrier_lines.append((lhs, rhs))
    if not seen_section:
        raise FileFormatError("triangulation text needs a '%' separator section")

    if total.is_void:
        if carrier_lines:
            raise FileFormatError("carrier lines given for a void total complex")
        return Triangulation(SimplicialComplex.from_facets([]), total, {}, validate=False)
    try:
        base = SimplicialComplex.from_facets([rhs for _, rhs in carrier_lines] or [()])
    except MalformedFaceError as exc:
        raise FileFormatError(f"bad carrier face: {exc}") from exc

    given: dict[tuple[str, ...], tuple[str, ...]] = {}
    for lhs, rhs in carrier_lines:
        try:
            total._face_arg(lhs)
        except (NotAFaceError, MalformedFaceError) as exc:
            raise FileFormatError(f"carrier line for a non-face: {' '.join(lhs)}") from exc
        if lhs in given and given[lhs] != rhs:
            raise FileFormatError(
                f"conflicting carrier lines for face {' '.join(lhs) or _EMPTY_FACE_TOKEN}"
            )
        given[lhs] = rhs

    for v in total.vertex_labels:
        if (v,) not in given:
            raise FileFormatError(
                f"missing carrier line for vertex {v!r}; vertex carriers are required"
            )
    if given.get((), ()) != ():
        raise FileFormatError("the empty face must carry to the empty face")
    return Triangulation(base, total, given)


def write_triangulation_file(path, tri: Triangulation) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_triangulation_text(tri))


def read_triangulation_file(path) -> Triangulation:
    return parse_triangulation_text(_read_text_file(path))
