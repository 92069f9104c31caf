"""Triangulations of simplicial complexes with explicit carrier maps.

A Triangulation records a base complex, a total complex refining it, and the
carrier of every face of the total complex: the base face it lives in.  The
carrier of a face always equals the union of the carriers of its vertices,
so only vertex carriers are stored, each as a bitmask of base vertex ids; a
face's carrier is the OR of its vertices' masks.  The constructor takes the
same mapping as the file format: every vertex of the total complex needs a
carrier, and a higher face may be given one only if it equals the union.

Each Triangulation caches one carrier index: per carrier mask, the counts by
size of the faces carried there, their vertices and their largest faces.
validate enumerates the faces once, level by level from the facets, grouped
by mask and size: each level's subfaces are both the next level and its
purity witnesses.  It names the first violation in a fixed order and keeps
the index.  Local h of a restriction sums its counts (see invariants), and
the harness reads h and restriction patterns from it, enumerating no faces.

Constructors: identity, barycentric, antiprism, stellar, edgewise, compose.
They work on ids and masks: each new vertex gets its label and carrier mask
once, the total complex is built straight from the builder's facets and
labels, which are distinct, maximal and valid by construction (see
_subdivision), and a private constructor takes the masks, without
re-checking carrier keys, and validates the result.  antiprism and edgewise
are defined by a pairwise relation on their vertices and list its maximal
sets in closed form (ordered set partitions, Freudenthal walks).  The public
constructor and the file parser keep every check.
"""

from __future__ import annotations

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
    _validate_label,
    format_facet_text,
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

LabelSet = frozenset[str]


def _mask(face: Face) -> int:
    mask = 0
    for v in face:
        mask |= 1 << v
    return mask


def _ids(mask: int) -> Face:
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def _mask_labels(complex_: SimplicialComplex, mask: int) -> list[str]:
    return list(complex_.labels_of(_ids(mask)))


def _slim(groups: dict[int, list[list[Face]]]) -> dict:
    """The carrier index of Triangulation._grouped's lists, which it trims."""
    for lists in groups.values():
        while not lists[-1]:
            lists.pop()
    return {m: (tuple(map(len, lists)), tuple(v for vs in lists[1:2] for (v,) in vs),
                tuple(lists[-1])) for m, lists in groups.items()}


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
        self._index: dict[int, tuple[tuple[Face, ...], ...]] | None = None
        vmask: list[int | None] = [None] * len(total.table)
        higher: list[tuple[Face, int]] = []
        total_faces, base_faces = total.faces(), base.faces()
        for key, value in carrier.items():
            kface = total._face_in(key, total_faces)
            mask = _mask(base._face_in(value, base_faces))
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

    def _grouped(self) -> tuple[dict[int, list[list[Face]]], dict]:
        """The total's faces by carrier mask and size, dim + 2 lists per mask,
        vertices in id order, and below[m, k]: the faces of size k in a face
        of size k + 1 carried at m.  Faces are enumerated once, from the
        facets down: each level is grouped by mask, and its below entries,
        with the facets one size smaller, make the next level."""
        total, vmask = self._total, self._vmask
        width = 0 if total.is_void else total.dim + 2
        groups: dict[int, list[list[Face]]] = {}
        below: dict[tuple[int, int], set[Face]] = {}
        level: set[Face] = set()
        for k in range(width - 1, -1, -1):
            level.update(f for f in total.facets if len(f) == k)
            for face in sorted(level) if k == 1 else level:
                mask = 0
                for v in face:
                    mask |= vmask[v]
                lists = groups.get(mask)
                if lists is None:
                    lists = groups[mask] = [[] for _ in range(width)]
                lists[k].append(face)
            level = set()
            for mask, lists in groups.items():
                if k and lists[k]:
                    below[mask, k - 1] = sub = set(itertools.chain.from_iterable(
                        map(itertools.combinations, lists[k], itertools.repeat(k - 1))))
                    level |= sub
        return groups, below

    def _carrier_index(self) -> dict[int, tuple]:
        """Per carrier mask m, (counts, vertices, top): counts[k] faces of size
        k carried at m, up to the top size (|m| once validated); the vertex
        ids in id order; the faces of the top size.  Kept by validate, or
        built on first use."""
        if self._index is None:
            self._index = _slim(self._grouped()[0])
        return self._index

    def carrier_of(self, face) -> Face:
        """Carrier of a total face, as a face (id tuple) of the base."""
        return _ids(self._carrier_mask(self._total._face_arg(face)))

    def carrier_labels(self, face) -> tuple[str, ...]:
        return self._base.labels_of(self.carrier_of(face))

    @property
    def carrier_map(self) -> dict[LabelSet, LabelSet]:
        """Carrier assignments of every face, keyed by label sets (a new dict)."""
        total, base = self._total, self._base
        return {
            frozenset(total.labels_of(f)):
                frozenset(base.labels_of(_ids(self._carrier_mask(f))))
            for f in total.faces()
        }

    def validate(self) -> None:
        """Check the triangulation axioms, raising on any violation.

        Besides bookkeeping (carriers are base faces, only the empty face has
        the empty carrier), this checks that the restriction to every base
        face is pure of the right dimension and has the Euler characteristic
        of a ball, with vertices restricting to single points.  On the
        grouping, a first pass checks carriers; a second checks dimensions and
        purity mask by mask against the below entries; a third checks full
        dimension and the Euler characteristic of each base face.  Masks go by
        size, then mask, and faces in id order.  The grouping gives the index.
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
        groups, below = self._grouped()
        stray = set(groups) - base_masks
        if stray:
            mask = min(stray, key=lambda m: (m.bit_count(), m))
            face = min(next(filter(None, groups[mask])))
            raise InvalidTriangulationError(
                f"carrier {_mask_labels(base, mask)} of"
                f" {sorted(total.labels_of(face))} is not a face of the base"
            )
        # the base faces one vertex larger than each base face, by mask
        wider: dict[int, list[int]] = {}
        for fmask in sorted(base_masks):
            for b in _ids(fmask):
                wider.setdefault(fmask ^ 1 << b, []).append(fmask)
        # a face m lies in the restriction to every base face containing
        # sigma(m); it is maximal in some restriction of higher dimension
        # exactly when it is maximal in the restriction to sigma(m) (when
        # |m| < |sigma(m)|) or to some W = sigma(m) + w (when |m| = |sigma(m)|).
        # Its cofaces are carried at sigma(m) or above, and none of them at
        # sigma(m) in the second case (the dimension check), so inside
        # sigma(m) they are below[sigma(m), |m|] and inside W below[W, |m|]
        for mask in sorted(groups, key=lambda m: (m.bit_count(), m)):
            lists = groups[mask]
            size = mask.bit_count()
            if any(lists[size + 1:]):
                raise InvalidTriangulationError(
                    f"restriction to {_mask_labels(base, mask)} has a face of"
                    f" dimension above dim {size - 1}"
                )
            for k, faces in enumerate(lists[1:size + 1], 1):
                targets = (mask,) if k < size else wider.get(mask, ())
                witnesses = [below.get((w, k), frozenset()) for w in targets]
                if all(got.issuperset(faces) for got in witnesses):
                    continue
                for face in sorted(faces):
                    for w, got in zip(targets, witnesses):
                        if face not in got:
                            raise InvalidTriangulationError(
                                f"restriction to {_mask_labels(base, w)} is not"
                                f" pure: {sorted(total.labels_of(face))} is maximal"
                            )
        # Let e(V) be the sum of (-1)^(|F|-1) over the faces F carried at V,
        # so that the reduced Euler characteristic of Gamma_V is the sum of
        # e(U) over U <= V.  When W is reached, every V < W has passed:
        # Gamma_V has reduced Euler characteristic 0, or -1 for V empty (the
        # empty face alone).  Moebius inversion over the subsets of W gives
        # e(U) = -(-1)^|U| for every U < W, so the faces carried in proper
        # parts of W sum to -(sum over U < W of (-1)^|U|) = (-1)^|W|, and
        # Gamma_W passes exactly when e(W) = (-1)^(|W|-1).  A vertex's
        # restriction has only points by the dimension check, so reduced
        # Euler characteristic 0 makes it a single point.
        for fmask in sorted(base_masks - {0}, key=lambda m: (m.bit_count(), m)):
            size = fmask.bit_count()
            lists = groups.get(fmask, ())
            if size >= len(lists) or not lists[size]:
                raise InvalidTriangulationError(
                    f"restriction to {_mask_labels(base, fmask)} has no face of"
                    " full dimension"
                )
            euler = (-1) ** size + sum(
                len(faces) if k % 2 else -len(faces) for k, faces in enumerate(lists))
            if euler:
                raise InvalidTriangulationError(
                    f"restriction to {_mask_labels(base, fmask)} has reduced Euler"
                    f" characteristic {euler}, expected 0"
                )
        self._index = _slim(groups)

    def restriction(self, face) -> "Triangulation":
        """The induced triangulation of a base face (a simplex).

        It keeps the faces whose carrier lies inside the face.  Carriers are
        vertex unions, so that is the subcomplex induced on the vertices
        carried into the face.
        """
        base, total = self._base, self._total
        bface = base._face_arg(face)
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
        # equal complexes have equal ids, so with equal bases and totals the
        # vertex carrier masks say the rest
        return (
            isinstance(other, Triangulation)
            and self._base == other._base
            and self._total == other._total
            and self._vmask == other._vmask
        )

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

    Facets and labels are trusted.  A builder's facet determines its base
    facet and how it was built on it, and a facet inside another lies over the
    same base facet, as base facets are maximal; so the facets are distinct
    and maximal:
    - sd: a chain ends at its own base facet;
    - antiprism: an ordered set partition can be read back from its nodes;
    - stellar: every new facet contains the new vertex and determines its old facet;
    - edgewise: a walk spans its base facet.
    Each label is built from validated base labels, starts with '{', '(' or a
    base label and has no whitespace; stellar checks a caller's new label.
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
    table = LabelTable._of_valid(sorted(carriers))
    ids = {node: table.id(lab) for node, lab in names.items()}
    total = SimplicialComplex(table, tuple(sorted(
        tuple(sorted(map(ids.__getitem__, f))) for f in node_facets)))
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


def antiprism(complex_: SimplicialComplex) -> Triangulation:
    """The antiprism triangulation.

    Vertices are pointed faces (F, v) with v in F; a set of them is a face
    when the F's form a chain and, for F properly inside G, the point of G
    lies outside F.  The facets, the maximal such sets, are listed in closed
    form: each ordered set partition B_1, ..., B_k of a base facet gives the
    facet of the (B_1 u ... u B_i, v) with v in B_i.
    """
    if complex_.is_void or complex_.is_empty:
        return identity(complex_)

    def facets(rest: int, union: int, nodes: tuple) -> Iterable[tuple]:
        # nodes holds the blocks so far, which cover union; rest is split next
        if not rest:
            yield nodes
        block = rest
        while block:
            grown = union | block
            yield from facets(rest ^ block, grown,
                              nodes + tuple((grown, v) for v in _ids(block)))
            block = (block - 1) & rest

    return _subdivision(
        complex_,
        [f for facet in complex_.facets for f in facets(_mask(facet), 0, ())],
        lambda node: ("({" + ",".join(_mask_labels(complex_, node[0])) + "},"
                      + complex_.table.label(node[1]) + ")"),
        lambda node: node[0])


def stellar(
    complex_: SimplicialComplex, face, new_label: str | None = None
) -> Triangulation:
    """Stellar subdivision: cone a new vertex over the star of a face."""
    fids = complex_._face_arg(face)
    if not fids:
        raise PreconditionError("stellar subdivision needs a nonempty face")
    if new_label is None:
        new_label = fresh_label(complex_)
    elif _validate_label(new_label) in complex_.table:
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
    their partial-sum vectors, taken in the base's id order (its sorted label
    order), has entries all in {0,1} or all in {0,-1}.  The facets over a base
    facet, the maximal compatible sets of the weightings supported in it, are
    listed in closed form as Freudenthal walks: with the facet's vertices
    w_0, ..., w_d in that order, a weighting is its vector z of partial sums
    at w_0, ..., w_(d-1), with 0 <= z_0 <= ... <= z_(d-1) <= r, and a facet
    starts at one such z and adds the d unit vectors in some order, keeping z
    monotone at every step.
    """
    if int(r) != r or r < 1:
        raise PreconditionError(f"edgewise subdivision needs an integer r >= 1, got {r}")
    r = int(r)
    if complex_.is_void or complex_.is_empty or r == 1:
        return identity(complex_)

    def walks(z: tuple[int, ...], free: tuple[int, ...]) -> Iterable[tuple]:
        # z ends with the fixed total r; step j keeps z monotone if z_j < z_(j+1)
        if not free:
            yield (z,)
        for j in free:
            if z[j] < z[j + 1]:
                step = z[:j] + (z[j] + 1,) + z[j + 1:]
                for walk in walks(step, tuple(i for i in free if i != j)):
                    yield (z,) + walk

    facets = []
    for facet in complex_.facets:
        d = len(facet) - 1
        for start in itertools.combinations_with_replacement(range(r + 1), d):
            for walk in walks(start + (r,), tuple(range(d))):
                # a node is the weighting, as (vertex id, weight) pairs
                facets.append([
                    tuple((v, b - a) for v, a, b in zip(facet, (0,) + z, z) if b > a)
                    for z in walk])
    return _subdivision(
        complex_, facets,
        lambda node: "+".join(f"{complex_.table.label(v)}:{w}" for v, w in node),
        lambda node: _mask(v for v, _ in node))


def compose(outer: Triangulation, inner: Triangulation) -> Triangulation:
    """Compose refinements: outer triangulates inner's total complex.

    The result triangulates inner's base by outer's total; the carrier of a
    face is the inner carrier of its outer carrier.
    """
    if outer.base != inner.total:
        raise PreconditionError(
            "compose needs outer.base equal to inner.total (same labels)"
        )
    # equal complexes have equal ids, so outer's base ids are inner's total ids
    vmask = [inner._carrier_mask(_ids(mask)) for mask in outer._vmask]
    return Triangulation._on_masks(inner.base, outer.total, vmask)


# --------------------------------------------------------------- file format


def format_triangulation_text(tri: Triangulation) -> str:
    """Render: total facet lines, a '%' separator, then carrier lines.

    Carrier lines are written for every facet and every vertex of the total
    complex, each face once (a point facet is also a vertex); all other
    carriers are recovered as unions of vertex carriers.
    """
    base, total = tri.base, tri.total
    lines = [format_facet_text(total).rstrip("\n"), _SECTION_TOKEN]
    for face in dict.fromkeys(itertools.chain(total.facets, ((v,) for v in total.vertices))):
        if face:
            rhs = " ".join(_mask_labels(base, tri._carrier_mask(face))) or _EMPTY_FACE_TOKEN
            lines.append(f"{' '.join(total.labels_of(face))} {_ARROW} {rhs}")
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
        return Triangulation(SimplicialComplex.from_facets([]), total, {})
    try:
        base = SimplicialComplex.from_facets([rhs for _, rhs in carrier_lines] or [()])
    except MalformedFaceError as exc:
        raise FileFormatError(f"bad carrier face: {exc}") from exc

    given: dict[tuple[str, ...], tuple[str, ...]] = {}
    total_faces = total.faces()
    for lhs, rhs in carrier_lines:
        try:
            total._face_in(lhs, total_faces)
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
