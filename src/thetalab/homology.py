"""Reduced simplicial homology over exact fields, and what it classifies.

Betti numbers are computed from ranks of boundary matrices.  The default
field is the rationals; a prime p selects the field Z/p instead.  Over every
field the augmentation has rank 1 and the edge map rank #vertices -
#components, found by union-find.  Higher ranks come from sparse column
reduction: each boundary column is a {row: +-1} dict, reduced against pivots
keyed by lowest row, fraction-free with gcd division over Q and with modular
inverses over Z/p, so no floating point or rounding ever enters.

Spheres, balls and Cohen-Macaulay complexes are recognized by face links.
On a pure complex a facet's link is the (-1)-sphere and a ridge in k facets
has k points as its link, so facets and ridges are decided by ridge counts;
only faces of codimension 2 or more have their links built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .complexes import Face, SimplicialComplex
from .errors import PreconditionError


def _validate_field(field: int | None) -> int | None:
    if field is None:
        return None
    if not isinstance(field, int) or field < 2:
        raise PreconditionError(f"field must be None (rationals) or a prime, got {field!r}")
    for q in range(2, math.isqrt(field) + 1):
        if field % q == 0:
            raise PreconditionError(f"{field} is not prime")
    return field


def _rank(columns: Iterable[dict[int, int]], p: int | None) -> int:
    """Rank over Q (p None) or Z/p of a matrix given by sparse integer columns.

    Each column is reduced against a pivot table keyed by the lowest (largest)
    row of the columns kept so far; a column that reaches a free lowest row
    becomes that row's pivot, and the pivots count the rank.  Over Q a step is
    the fraction-free v := b*v - a*w, with the gcd divided out, or v - (a/b)*w
    when b divides a; over Z/p pivots are scaled to a leading 1 by a modular
    inverse.  No fractions or floats arise.
    """
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                if p is not None:
                    inv = pow(col[low], -1, p)
                    col = {r: v * inv % p for r, v in col.items()}
                pivots[low] = col
                break
            a, b = col[low], piv[low]
            scaled = a % b != 0  # never over Z/p, where b == 1
            if scaled:
                col = {r: b * v for r, v in col.items()}
            q = a if scaled else a // b
            for r, w in piv.items():
                v = col.get(r, 0) - q * w
                if p is not None:
                    v %= p
                if v:
                    col[r] = v
                else:
                    del col[r]
            if scaled and col:
                g = math.gcd(*col.values())
                if g > 1:
                    col = {r: v // g for r, v in col.items()}
    return len(pivots)


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced Betti numbers b_{-1}, b_0, ..., b_dim."""

    betti: tuple[int, ...]

    def b(self, i: int) -> int:
        j = i + 1
        return self.betti[j] if 0 <= j < len(self.betti) else 0

    @property
    def top_dim(self) -> int:
        return len(self.betti) - 2

    def euler(self) -> int:
        return sum((-1) ** (j - 1) * v for j, v in enumerate(self.betti))

    def is_zero(self) -> bool:
        return not any(self.betti)


def _graph_rank(vertex_count: int, edges: Iterable[Face]) -> int:
    """Rank of the edge-to-vertex boundary map over any field: #vertices -
    #components, the number of edges that join two union-find classes."""
    parent = list(range(vertex_count))

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]  # path halving
        return v

    rank = 0
    for a, b in edges:
        a, b = root(a), root(b)
        if a != b:
            parent[a] = b
            rank += 1
    return rank


def betti(complex_: SimplicialComplex, field: int | None = None) -> HomologyProfile:
    """Reduced homology ranks of the augmented chain complex."""
    field = _validate_field(field)
    if complex_.is_void:
        raise PreconditionError("homology of the void complex is undefined")
    by_dim = [complex_.faces_of_dim(d) for d in range(-1, complex_.dim + 1)]
    # ranks[j] is the rank of the boundary map out of by_dim[j]; the
    # augmentation has rank 1 and the edge map's comes from union-find, over
    # every field, so only the maps out of triangles and up are eliminated
    ranks = [0, 1, _graph_rank(len(complex_.table), complex_.faces_of_dim(1))
             ][:len(by_dim)]
    for rows, cols in zip(by_dim[2:], by_dim[3:]):
        index = {f: i for i, f in enumerate(rows)}
        ranks.append(_rank(
            ({index[f[:t] + f[t + 1:]]: -1 if t % 2 else 1 for t in range(len(f))}
             for f in cols),
            field))
    ranks.append(0)
    return HomologyProfile(tuple(
        len(faces) - ranks[j] - ranks[j + 1] for j, faces in enumerate(by_dim)))


def _sphere_like(b: tuple[int, ...]) -> bool:
    """Whether reduced Betti numbers b_{-1}, ..., b_dim are a dim-sphere's."""
    return b[-1] == 1 and not any(b[:-1])


def _ridge_counts(complex_: SimplicialComplex) -> dict[Face, int]:
    """How many facets contain each ridge (a facet minus one vertex)."""
    counts: dict[Face, int] = {}
    for facet in complex_.facets:
        for t in range(len(facet)):
            ridge = facet[:t] + facet[t + 1:]
            counts[ridge] = counts.get(ridge, 0) + 1
    return counts


def _links_pass(complex_: SimplicialComplex, field: int | None, counts: dict[Face, int],
                ridge_ok: Callable[[int], bool],
                link_ok: Callable[[Face, tuple[int, ...]], bool]) -> bool:
    """Whether a complex is pure, ridge_ok(k) holds for each ridge count k in
    `counts`, and link_ok(face, reduced Betti numbers of its link) for each
    face of codimension 2 or more; facets and ridges need no link built."""
    field = _validate_field(field)
    if not complex_.is_pure() or not all(ridge_ok(k) for k in counts.values()):
        return False
    for d in range(-1, complex_.dim - 1):
        for face in complex_.faces_of_dim(d):
            if not link_ok(face, betti(complex_._link_ids(face), field).betti):
                return False
    return True


def is_homology_sphere(complex_: SimplicialComplex, field: int | None = None) -> bool:
    """Every face link has the reduced homology of a sphere of its dimension.

    Such complexes are pure, so non-pure input is not a homology sphere.
    """
    if complex_.is_void:
        raise PreconditionError("the void complex is not classifiable")
    return _links_pass(complex_, field, _ridge_counts(complex_), lambda k: k == 2,
                       lambda face, b: _sphere_like(b))


def is_cohen_macaulay(complex_: SimplicialComplex, field: int | None = None) -> bool:
    """Reisner's criterion: links have vanishing homology below top dimension.

    Cohen-Macaulay complexes are pure, so non-pure input is not one.
    """
    if complex_.is_void:
        raise PreconditionError("the void complex is not classifiable")
    return _links_pass(complex_, field, _ridge_counts(complex_), lambda k: True,
                       lambda face, b: not any(b[:-1]))


def is_cohen_macaulay_star(complex_: SimplicialComplex, field: int | None = None) -> bool:
    """Whether removing any single facet leaves a CM complex of the same dimension.

    Removal deletes only the facet as a face; its proper faces stay, whether
    or not other facets contain them.  Defined only on Cohen-Macaulay input.
    """
    if not is_cohen_macaulay(complex_, field):
        raise PreconditionError("CM* is only defined for Cohen-Macaulay complexes")
    dim = complex_.dim
    labels = [tuple(sorted(complex_.labels_of(f))) for f in complex_.facets]
    for skip, facet in enumerate(labels):
        rest = labels[:skip] + labels[skip + 1:]
        rest += [facet[:t] + facet[t + 1:] for t in range(len(facet))]
        reduced = SimplicialComplex.from_facets(rest)
        if reduced.is_void or reduced.dim != dim:
            return False
        if not is_cohen_macaulay(reduced, field):
            return False
    return True


def boundary_subcomplex(complex_: SimplicialComplex) -> SimplicialComplex:
    """Subcomplex generated by the codimension-one faces lying in one facet.

    For a single point this yields the empty complex (the empty face lies in
    exactly one facet); with no such faces the result is void.
    """
    if complex_.is_void or not complex_.is_pure() or complex_.dim < 0:
        raise PreconditionError("boundary extraction needs a pure complex of dim >= 0")
    ridges = [r for r, k in _ridge_counts(complex_).items() if k == 1]
    return SimplicialComplex._on_ids(complex_.table, ridges)


def is_homology_ball(
    complex_: SimplicialComplex, field: int | None = None
) -> SimplicialComplex | None:
    """Return the verified boundary sphere, or None when not a ball.

    Checks that the combinatorial boundary is a homology sphere of one lower
    dimension, and that every face link looks like a sphere exactly for
    interior faces and is acyclic for boundary faces; for a ridge, that is
    lying in at most two facets.  The empty complex is the (-1)-ball by
    convention; its boundary is void.
    """
    if complex_.is_void:
        raise PreconditionError("the void complex is not classifiable")
    if complex_.is_empty:
        return SimplicialComplex.from_facets([])
    if not complex_.is_pure():
        return None
    counts = _ridge_counts(complex_)
    ridges = [r for r, k in counts.items() if k == 1]
    bd = SimplicialComplex._on_ids(complex_.table, ridges)  # one dimension lower, or void
    if bd.is_void or not is_homology_sphere(bd, field):
        return None
    # the boundary's faces below its ridges, in this complex's ids
    on_bd = {f for r in ridges for i in range(len(r)) for f in itertools.combinations(r, i)}
    ok = _links_pass(complex_, field, counts, lambda k: k <= 2,
                     lambda face, b: not any(b) if face in on_bd else _sphere_like(b))
    return bd if ok else None


def interior_faces(
    complex_: SimplicialComplex, boundary: SimplicialComplex
) -> frozenset[Face]:
    """Faces of the complex not lying on the given boundary subcomplex."""
    bd_faces = boundary.face_labelsets() if not boundary.is_void else frozenset()
    return frozenset(
        f for f in complex_.faces()
        if frozenset(complex_.labels_of(f)) not in bd_faces)


def has_interior_vertex_property(
    complex_: SimplicialComplex, boundary: SimplicialComplex
) -> bool:
    """Whether every facet contains a vertex missing from the boundary."""
    bd_vertices = set(boundary.vertex_labels) if not boundary.is_void else set()
    for facet in complex_.facets:
        if all(lab in bd_vertices for lab in complex_.labels_of(facet)):
            return False
    return True


def no_facet_on_union_boundaries(
    big: SimplicialComplex,
    big_boundary: SimplicialComplex,
    small_boundary: SimplicialComplex,
) -> bool:
    """Whether no facet of `big` has all its vertices on either boundary."""
    banned = set(big_boundary.vertex_labels) | set(small_boundary.vertex_labels)
    for facet in big.facets:
        if all(lab in banned for lab in big.labels_of(facet)):
            return False
    return True
