"""Reduced simplicial homology over exact fields, and what it classifies.

Betti numbers are computed from ranks of boundary matrices.  The default
field is the rationals; a prime p selects the field Z/p instead.  Ranks come
from sparse column reduction: each boundary column is a {row: +-1} dict,
reduced against pivots keyed by lowest row, fraction-free with gcd division
over Q and with modular inverses over Z/p, so no floating point or rounding
ever enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

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


def betti(complex_: SimplicialComplex, field: int | None = None) -> HomologyProfile:
    """Reduced homology ranks of the augmented chain complex."""
    field = _validate_field(field)
    if complex_.is_void:
        raise PreconditionError("homology of the void complex is undefined")
    by_dim = [complex_.faces_of_dim(d) for d in range(-1, complex_.dim + 1)]
    # ranks[j] is the rank of the boundary map out of by_dim[j]
    ranks = [0]
    for rows, cols in zip(by_dim, by_dim[1:]):
        index = {f: i for i, f in enumerate(rows)}
        ranks.append(_rank(
            ({index[f[:t] + f[t + 1:]]: -1 if t % 2 else 1 for t in range(len(f))}
             for f in cols),
            field))
    ranks.append(0)
    return HomologyProfile(tuple(
        len(faces) - ranks[j] - ranks[j + 1] for j, faces in enumerate(by_dim)))


def _sphere_profile(dim: int) -> tuple[int, ...]:
    out = [0] * (dim + 2)
    out[-1] = 1
    return tuple(out)


def is_homology_sphere(complex_: SimplicialComplex, field: int | None = None) -> bool:
    """Every face link has the reduced homology of a sphere of its dimension."""
    if complex_.is_void:
        raise PreconditionError("the void complex is not classifiable")
    for face in sorted(complex_.faces(), key=lambda f: (len(f), f)):
        lk = complex_.link(face)
        if betti(lk, field).betti != _sphere_profile(lk.dim):
            return False
    return True


def is_cohen_macaulay(complex_: SimplicialComplex, field: int | None = None) -> bool:
    """Reisner's criterion: links have vanishing homology below top dimension."""
    if complex_.is_void:
        raise PreconditionError("the void complex is not classifiable")
    for face in sorted(complex_.faces(), key=lambda f: (len(f), f)):
        lk = complex_.link(face)
        profile = betti(lk, field)
        if any(profile.b(i) for i in range(-1, lk.dim)):
            return False
    return True


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
    ridge_dim = complex_.dim - 1
    counts: dict[Face, int] = {}
    for facet in complex_.facets:
        for t in range(len(facet)):
            ridge = facet[:t] + facet[t + 1:]
            counts[ridge] = counts.get(ridge, 0) + 1
    boundary = [r for r in complex_.faces_of_dim(ridge_dim) if counts.get(r, 0) == 1]
    return SimplicialComplex.from_facets([complex_.labels_of(r) for r in boundary])


def is_homology_ball(
    complex_: SimplicialComplex, field: int | None = None
) -> SimplicialComplex | None:
    """Return the verified boundary sphere, or None when not a ball.

    Checks that the combinatorial boundary is a homology sphere of one lower
    dimension, and that every face link looks like a sphere exactly for
    interior faces and is acyclic for boundary faces.  The empty complex is
    the (-1)-ball by convention; its boundary is void.
    """
    if complex_.is_void:
        raise PreconditionError("the void complex is not classifiable")
    if complex_.is_empty:
        return SimplicialComplex.from_facets([])
    if not complex_.is_pure():
        return None
    bd = boundary_subcomplex(complex_)
    if bd.is_void:
        return None
    if bd.dim != complex_.dim - 1 and not (bd.is_empty and complex_.dim == 0):
        return None
    if not is_homology_sphere(bd, field):
        return None
    bd_faces = bd.face_labelsets()
    for face in sorted(complex_.faces(), key=lambda f: (len(f), f)):
        lk = complex_.link(face)
        profile = betti(lk, field)
        on_boundary = frozenset(complex_.labels_of(face)) in bd_faces
        expected = (0,) * (lk.dim + 2) if on_boundary else _sphere_profile(lk.dim)
        if profile.betti != expected:
            return None
    return bd


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
