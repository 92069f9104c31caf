"""Reduced simplicial homology over exact fields, and what it classifies.

Betti numbers are computed from ranks of boundary matrices.  The default
field is the rationals; a prime p selects the field Z/p instead.  Over every
field the augmentation has rank 1 and the edge map rank #vertices -
#components, found by union-find.  Higher ranks come from sparse column
reduction: each boundary column is a {row: +-1} dict, reduced against pivots
keyed by lowest row, fraction-free with gcd division over Q and with modular
inverses over Z/p, so no floating point or rounding ever enters.  Maps are
reduced from the top dimension down, and a face that is a pivot row of the
map above has its own column skipped, as it would reduce to zero (clearing:
Chen and Kerber, "Persistent homology computation with a twist", 2011).

Spheres, balls and Cohen-Macaulay complexes are recognized by face links.
On a pure complex a facet's link is the (-1)-sphere and a ridge in k facets
has k points as its link, so facets and ridges are decided by ridge counts.
The link of a codimension-2 face G is a graph, read off the facets through
G: its V vertices are the ridges G+v, its E edges the facets G+{u,v}, and
with c components (by union-find) its reduced Betti numbers are
(0, c - 1, E - V + c).  The link of a codimension-3 face G is generated by
the triangles facet - G.  When each of its edges lies in at most two of
them it is a surface, possibly with boundary and pinched at vertices, and
its Betti numbers follow from counting: b0 = c - 1; b2 is the number of
strong components (triangles joined across shared edges) with no free edge
whose +-1 orientations agree, any orientation counting over Z/2 (the top
homology of a pseudomanifold, Munkres, Elements of Algebraic Topology,
sections 3 and 43); and b1 comes from the reduced Euler characteristic
-1 + V - E + T.  An edge in three or more triangles, which only the
Cohen-Macaulay test lets through, has the link built and passed to betti,
as have the links of faces of codimension 4 or more.

A pure complex in which every ridge lies in at most two facets is also
certified by a shelling (shelled_boundary): shellable, it is a PL ball whose
boundary is its ridges in one facet, or a PL sphere when there are none
(Danaraj and Klee, "Shellings of spheres and polytopes", Duke Math. J. 41,
1974; Ziegler, Lectures on Polytopes, ch. 8), so a homology ball or sphere
over every field.  A greedy search finds a shelling or stalls; a stall
proves nothing, so is_homology_ball and is_homology_sphere stay the
reference.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .complexes import Face, SimplicialComplex, _maximal
from .errors import PreconditionError


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _validate_field(field: int | None) -> int | None:
    """field, a prime p for Z/p or None for the rationals.  Trial division by
    the primes up to 41, then Miller-Rabin to those bases, exact below
    _PRIME_BOUND (Sorenson and Webster, 2015); a larger field is refused."""
    if field is None:
        return None
    if not isinstance(field, int) or field < 2:
        raise PreconditionError(f"field must be None (rationals) or a prime, got {field!r}")
    if field in _SMALL_PRIMES:
        return field
    if any(field % q == 0 for q in _SMALL_PRIMES):
        raise PreconditionError(f"{field} is not prime")
    if field >= _PRIME_BOUND:
        raise PreconditionError(f"{field} is not below {_PRIME_BOUND}, too large to certify")
    s = ((field - 1) & (1 - field)).bit_length() - 1  # 2**s exactly divides field - 1
    for q in _SMALL_PRIMES:
        x = pow(q, (field - 1) >> s, field)
        if x != 1 and all(pow(x, 1 << i, field) != field - 1 for i in range(s)):
            raise PreconditionError(f"{field} is not prime")
    return field


def _rank(columns: Iterable[dict[int, int]], p: int | None) -> set[int]:
    """Pivot rows over Q (p None) or Z/p of a matrix of sparse integer columns.

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
    return set(pivots)


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced Betti numbers b_{-1}, b_0, ..., b_dim."""

    betti: tuple[int, ...]

    def b(self, i: int) -> int:
        j = i + 1
        return self.betti[j] if 0 <= j < len(self.betti) else 0

    def euler(self) -> int:
        return sum((-1) ** (j - 1) * v for j, v in enumerate(self.betti))

    def is_zero(self) -> bool:
        return not any(self.betti)


def _graph_rank(edges: Iterable[Face]) -> int:
    """Rank of the edge-to-vertex boundary map over any field: #vertices -
    #components, the number of edges that join two union-find classes."""
    parent: dict[int, int] = {}
    rank = 0
    for a, b in edges:
        while (up := parent.get(a, a)) != a:
            parent[a] = a = parent.get(up, up)  # path halving
        while (up := parent.get(b, b)) != b:
            parent[b] = b = parent.get(up, up)
        if a != b:
            parent[a] = b
            rank += 1
    return rank


def betti(complex_: SimplicialComplex, field: int | None = None) -> HomologyProfile:
    """Reduced homology ranks of the augmented chain complex, reduced from
    the top dimension down with clearing (Chen and Kerber, 2011): a face that
    was a pivot row of the map above is left out, since with rows and columns
    in one sorted order its column would reduce to zero."""
    field = _validate_field(field)
    if complex_.is_void:
        raise PreconditionError("homology of the void complex is undefined")
    # by_dim[j]: the faces of size j, sorted, grouped in one pass
    by_dim: list[list[Face]] = [[] for _ in range(complex_.dim + 2)]
    for f in complex_.faces():
        by_dim[len(f)].append(f)
    for faces in by_dim:
        faces.sort()
    # ranks[j] is the rank of the boundary map out of by_dim[j]; the
    # augmentation has rank 1 and the edge map's comes from union-find, over
    # every field, so only the maps out of triangles and up are eliminated
    ranks = [0, 1, _graph_rank(by_dim[2]) if complex_.dim >= 1 else 0][:len(by_dim)]
    ranks += [0] * (len(by_dim) + 1 - len(ranks))
    cleared: set[int] = set()
    for j in range(len(by_dim) - 1, 2, -1):
        index = {f: i for i, f in enumerate(by_dim[j - 1])}.__getitem__
        # combinations(f, j - 1) drops f[j - 1], ..., f[0]; f[t] has sign (-1)^t
        signs = [(-1) ** t for t in range(j - 1, -1, -1)]
        cleared = _rank(
            (dict(zip(map(index, itertools.combinations(f, j - 1)), signs))
             for i, f in enumerate(by_dim[j]) if i not in cleared),
            field)
        ranks[j] = len(cleared)
    return HomologyProfile(tuple(
        len(faces) - ranks[j] - ranks[j + 1] for j, faces in enumerate(by_dim)))


def _sphere_like(b: tuple[int, ...]) -> bool:
    """Whether reduced Betti numbers b_{-1}, ..., b_dim are a dim-sphere's."""
    return b[-1] == 1 and not any(b[:-1])


def _ridge_counts(complex_: SimplicialComplex) -> dict[Face, int]:
    """How many facets contain each ridge (a facet minus one vertex); the
    empty facet has none."""
    return collections.Counter(itertools.chain.from_iterable(
        itertools.combinations(f, len(f) - 1) for f in complex_.facets if f))


def _surface_betti(triangles: list[Face], p: int | None) -> tuple[int, ...] | None:
    """Reduced Betti numbers over Q (p None) or Z/p of the 2-complex the
    triangles (sorted id triples) generate, or None when an edge lies in
    three or more of them.

    A 2-cycle takes one coefficient, up to the sign each shared edge
    imposes, on a strong component, and none on a component with a free
    edge; the signs must close up unless p == 2.
    """
    sides: dict[Face, list[tuple[int, int]]] = {}
    for t, (a, b, c) in enumerate(triangles):
        sides.setdefault((b, c), []).append((t, 1))
        sides.setdefault((a, c), []).append((t, -1))
        sides.setdefault((a, b), []).append((t, 1))
    # near[t]: (u, f) for each triangle u across an edge from t, where a
    # cycle's coefficient on u is f times its coefficient on t
    near: list[list[tuple[int, int]]] = [[] for _ in triangles]
    free = [False] * len(triangles)
    for pair in sides.values():
        if len(pair) > 2:
            return None
        if len(pair) == 1:
            free[pair[0][0]] = True
        else:
            (t, s), (u, r) = pair
            near[t].append((u, -s * r))
            near[u].append((t, -s * r))
    orient = [0] * len(triangles)
    closed = strong = 0
    for start in range(len(triangles)):
        if orient[start]:
            continue
        strong += 1
        orient[start], stack, cycle = 1, [start], True
        while stack:
            t = stack.pop()
            cycle = cycle and not free[t]
            for u, f in near[t]:
                if not orient[u]:
                    orient[u] = f * orient[t]
                    stack.append(u)
                elif orient[u] != f * orient[t] and p != 2:
                    cycle = False
        closed += cycle
    vertices = len(set(itertools.chain.from_iterable(triangles)))
    # triangles joined across edges join their vertices: one strong
    # component spans a connected graph, with no union-find to run
    components = 1 if strong == 1 else vertices - _graph_rank(sides)
    # the reduced Euler characteristic -1 + V - E + T is b0 - b1 + b2
    b1 = components + closed - vertices + len(sides) - len(triangles)
    return (0, components - 1, b1, closed)


def _links_pass(complex_: SimplicialComplex, field: int | None, counts: dict[Face, int],
                ridge_ok: Callable[[int], bool],
                link_ok: Callable[[Face, tuple[int, ...]], bool]) -> bool:
    """Whether a complex is pure, ridge_ok(k) holds for each ridge count k in
    `counts`, and link_ok(face, reduced Betti numbers of its link) for each
    face of codimension 2 or more.  Facets and ridges need no link.  One pass
    over the facets collects the graph link of each codimension-2 face and
    the triangles of each codimension-3 face's link; _surface_betti reads
    the latter's Betti numbers off the triangles when every edge lies in at
    most two of them, and otherwise the link is built and passed to betti,
    as are the links of faces of codimension 4 or more."""
    field = _validate_field(field)
    if not complex_.is_pure() or not all(ridge_ok(k) for k in counts.values()):
        return False
    graphs: dict[Face, list[Face]] = {}
    surfaces: dict[Face, list[Face]] = {}
    n = complex_.dim + 1
    # a sorted facet's k-subsets come in the reverse order of their complements
    for facet in complex_.facets if n >= 2 else ():
        for edge, face in zip(itertools.combinations(facet, 2),
                              reversed(tuple(itertools.combinations(facet, n - 2)))):
            graphs.setdefault(face, []).append(edge)
        for tri, face in zip(itertools.combinations(facet, 3),
                             reversed(tuple(itertools.combinations(facet, max(n - 3, 0))))):
            surfaces.setdefault(face, []).append(tri)
    for face, edges in graphs.items():
        vertices = len(set(itertools.chain.from_iterable(edges)))
        components = vertices - _graph_rank(edges)
        if not link_ok(face, (0, components - 1, len(edges) - vertices + components)):
            return False
    for face, triangles in surfaces.items():
        b = _surface_betti(triangles, field) or betti(complex_._link_ids(face), field).betti
        if not link_ok(face, b):
            return False
    # the faces of codimension 4 or more, from the facets, by size and then ids
    small = {f for k in range(n - 3) for f in complex_._of_size(k)}
    for face in sorted(small, key=lambda f: (len(f), f)):
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
    dim, facets = complex_.dim, list(complex_.facets)
    for skip, facet in enumerate(facets):
        rest = facets[:skip] + facets[skip + 1:]
        if facet:
            rest += itertools.combinations(facet, len(facet) - 1)
        reduced = SimplicialComplex._on_ids(complex_.table, _maximal(rest))
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


def shelled_boundary(complex_: SimplicialComplex) -> SimplicialComplex | None:
    """The boundary of a ball or sphere certified by a shelling: the complex
    of the ridges in one facet, void for a sphere.  None, which proves
    nothing, when the complex is empty or not pure, a ridge lies in three or
    more facets, or the search stalls.

    The search starts at the first facet and attaches a facet F across a
    ridge from the shelled ones when its restriction R, the vertices v whose
    ridge F - v lies in a shelled facet (the one across F - v), lies in
    none: F then meets the shelled facets in the ridges F - v, v in R, a
    pure complex of codimension 1.  Only a newly shelled neighbour changes
    R, so a facet that fails waits for one.
    """
    if complex_.is_void:
        raise PreconditionError("the void complex is not classifiable")
    if complex_.is_empty or not complex_.is_pure():
        return None
    facets = complex_.facets
    # near[F][t]: the facet across the ridge F minus its t-th vertex, or None
    near: dict[Face, list[Face | None]] = {f: [None] * len(f) for f in facets}
    first: dict[Face, tuple[Face, int]] = {}
    for f in facets:
        t = len(f)
        for ridge in itertools.combinations(f, t - 1):  # without f[t - 1], ..., f[0]
            t -= 1
            g, s = first.setdefault(ridge, (f, t))
            if g is not f:
                if near[g][s] is not None:
                    return None
                near[g][s], near[f][t] = f, g
    del first
    through: list[list[Face]] = [[] for _ in range(len(complex_.table))]
    done: set[Face] = set()
    queue = collections.deque([facets[0]])
    while queue:
        f = queue.popleft()
        if f is None or f in done:
            continue
        # R is empty for the first facet alone
        r = frozenset(v for v, g in zip(f, near[f]) if g in done)
        if r and any(map(r.issubset, through[min(r, key=lambda v: len(through[v]))])):
            continue
        done.add(f)
        for v in f:
            through[v].append(f)
        queue.extend(near[f])
    if len(done) < len(facets):
        return None
    return SimplicialComplex._on_ids(complex_.table, [
        f[:t] + f[t + 1:] for f in facets for t, g in enumerate(near[f]) if g is None])


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
    return no_facet_on_union_boundaries(complex_, boundary, boundary)


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
