"""Face-enumeration invariants: h, interior h, theta, and local h.

theta is always computed two independent ways (boundary subtraction and the
partial-sum formula) and a ConsistencyError is raised if they disagree, so a
successful call certifies its own arithmetic.

Local h is read from the carrier index of a triangulation (the counts of
the faces F of each size |F| with each carrier sigma(F)) in one pass, with
no restriction rebuilt: for a base simplex E,

    l_E(x) = sum over F with sigma(F) inside E of
             (-1)^(|E|-|sigma(F)|) x^(|E|-|sigma(F)|+|F|) (1-x)^(|sigma(F)|-|F|),

which is Stanley's inclusion-exclusion sum_W (-1)^(|E|-|W|) h(Gamma_W) over
the subsets W of E with the h-polynomials expanded face by face.  Like that
sum, it assumes a validated triangulation (each Gamma_W of dimension
|W| - 1); every triangulation the library builds with validate=False is one.
"""

from __future__ import annotations

from math import comb

from .complexes import Face, SimplicialComplex
from .errors import ConsistencyError, PreconditionError
from .homology import boundary_subcomplex, interior_faces
from .polynomials import GammaVector, IntPoly, gamma_vector, pnk
from .subdivisions import Triangulation, _mask


def _h_of_counts(counts: list[int]) -> IntPoly:
    """sum_i counts[i] x^i (1-x)^(n-i) with n = len(counts) - 1: the
    h-polynomial of faces counted by size (counts[i] faces of size i)."""
    n = len(counts) - 1
    coeffs = [0] * (n + 1)
    for i, f in enumerate(counts):
        for j in range(n - i + 1):
            coeffs[i + j] += (-1) ** j * comb(n - i, j) * f
    return IntPoly(coeffs)


def h_poly(complex_: SimplicialComplex) -> IntPoly:
    """The h-polynomial; zero for the void complex, one for the empty complex."""
    if complex_.is_void:
        return IntPoly.zero()
    counts = [0] * (complex_.dim + 2)
    for face in complex_.faces():
        counts[len(face)] += 1
    return _h_of_counts(counts)


def h_vector(complex_: SimplicialComplex) -> tuple[int, ...]:
    """Coefficients h_0..h_n with n = dim + 1; () for the void complex."""
    if complex_.is_void:
        return ()
    return h_poly(complex_).padded(complex_.dim + 2)


def h_interior(
    complex_: SimplicialComplex, boundary: SimplicialComplex | None = None
) -> IntPoly:
    """h-polynomial of the interior faces (those not in the boundary)."""
    if complex_.is_void:
        return IntPoly.zero()
    if boundary is None:
        boundary = boundary_subcomplex(complex_)
    counts = [0] * (complex_.dim + 2)
    for labels in interior_faces(complex_, boundary):
        counts[len(labels)] += 1
    return _h_of_counts(counts)


def theta(
    complex_: SimplicialComplex, boundary: SimplicialComplex | None = None
) -> IntPoly:
    """theta = h(Delta) - h(boundary of Delta), for ball-like complexes.

    The same value is recomputed from the partial sums of the h-vector and
    the two must agree.  The empty complex has theta = 1; complexes with a
    void (missing) boundary other than the empty complex are rejected.
    """
    if complex_.is_void:
        raise PreconditionError("theta of the void complex is undefined")
    if complex_.is_empty:
        return IntPoly.one()
    if boundary is None:
        boundary = boundary_subcomplex(complex_)
    if boundary.is_void:
        raise PreconditionError(
            "theta needs a complex with nonempty boundary (a triangulated ball)"
        )
    return _theta_of_h(h_poly(complex_), h_poly(boundary), complex_.dim + 1)


def _theta_of_h(h: IntPoly, h_bd: IntPoly, n: int) -> IntPoly:
    """theta = h - h_bd of an (n-1)-ball, checked against h's partial sums."""
    direct = h - h_bd
    hs = h.padded(n + 1)
    coeffs = [0] * n
    for i in range(1, n):
        top = sum(hs[n - j] for j in range(1, i + 1))
        bottom = sum(hs[j] for j in range(i))
        coeffs[i] = top - bottom
    partial = IntPoly(coeffs)
    if hs[n] == 0 and partial != direct:
        raise ConsistencyError(
            f"theta routes disagree: boundary subtraction gives {direct.text()},"
            f" partial sums give {partial.text()}"
        )
    if hs[n] != 0:
        raise PreconditionError(
            "theta needs the top h-coefficient to vanish (a ball-like complex)"
        )
    return direct


def local_h(tri: Triangulation) -> IntPoly:
    """Local h-polynomial of a triangulation of a simplex on n vertices.

    One sum over the carrier index, with sigma(F) the carrier of F:

        sum over faces F of (-1)^(n-|sigma(F)|) x^(n-|sigma(F)|+|F|)
                            (1-x)^(|sigma(F)|-|F|)

    It equals the inclusion-exclusion of the h-polynomials of the
    restrictions to all subsets of the vertex set, and like it assumes a
    validated triangulation (see the module docstring).
    """
    base = tri.base
    if base.is_void:
        raise PreconditionError("local h needs a triangulation of a simplex")
    if not base.is_empty and len(base.facets) != 1:
        raise PreconditionError(
            "local h is defined for triangulations of a single simplex"
        )
    return _local_h_at(tri, base.facets[0])


def _local_h_at(tri: Triangulation, face: Face) -> IntPoly:
    """Local h of the restriction of tri to a base face (ids), from the
    carrier index."""
    size, mask = len(face), _mask(face)
    index = tri._carrier_index()
    coeffs = [0] * (size + 1)
    sub = mask
    while True:
        s = sub.bit_count()
        for k, c in enumerate(index[sub][0] if sub in index else ()):
            # c (-1)^(size-s) x^(size-s+k) (1-x)^(s-k), expanded binomially
            for j in range(s - k + 1):
                coeffs[size - s + k + j] += (-1) ** (size - s + j) * c * comb(s - k, j)
        if not sub:
            break
        sub = (sub - 1) & mask
    return IntPoly(coeffs)


def sphere_gamma(complex_: SimplicialComplex) -> GammaVector:
    """Gamma vector of the (symmetric) h-polynomial of a homology sphere."""
    if complex_.is_void:
        raise PreconditionError("gamma of the void complex is undefined")
    return _sphere_gamma_of_h(h_poly(complex_), complex_.dim + 1)


def _sphere_gamma_of_h(h: IntPoly, n: int) -> GammaVector:
    """Gamma vector of a symmetric h-polynomial of degree at most n."""
    gv = gamma_vector(h, n)
    if gv is None:
        raise PreconditionError(
            "h-polynomial is not symmetric; gamma needs a homology sphere"
        )
    return gv


def h_sd_via_pnk(complex_: SimplicialComplex) -> IntPoly:
    """h-polynomial of the barycentric subdivision, via the p transform."""
    if complex_.is_void:
        return IntPoly.zero()
    n = complex_.dim + 1
    hs = h_vector(complex_)
    acc = IntPoly.zero()
    for k in range(n + 1):
        acc = acc + pnk(n, k) * hs[k]
    return acc


def theta_sd_closed_form(
    complex_: SimplicialComplex, boundary: SimplicialComplex | None = None
) -> IntPoly:
    """theta of the barycentric subdivision of a ball, from the ball's h-vector.

    theta(sd Delta) = sum_{i=0}^{n-1} (h_n+...+h_{n-i} + x*(h_n+...+h_{i+1}))
    * p_{n-1,i}.
    """
    if complex_.is_void or complex_.is_empty:
        raise PreconditionError("needs a ball of dimension at least 0")
    if boundary is None:
        boundary = boundary_subcomplex(complex_)
    if boundary.is_void:
        raise PreconditionError("needs a complex with nonempty boundary")
    n = complex_.dim + 1
    hs = h_vector(complex_)
    acc = IntPoly.zero()
    for i in range(n):
        const = sum(hs[j] for j in range(n - i, n + 1))
        lin = sum(hs[j] for j in range(i + 1, n + 1))
        acc = acc + IntPoly((const, lin)) * pnk(n - 1, i)
    return acc


def is_alternatingly_increasing(p: IntPoly, n: int) -> bool:
    """Whether c_0 <= c_n <= c_1 <= c_{n-1} <= ... for coefficients up to x^n."""
    if p.degree is not None and p.degree > n:
        raise PreconditionError(f"degree {p.degree} exceeds window {n}")
    c = p.padded(n + 1)
    order = []
    lo, hi = 0, n
    while lo <= hi:
        order.append(c[lo])
        if hi != lo:
            order.append(c[hi])
        lo, hi = lo + 1, hi - 1
    return all(a <= b for a, b in zip(order, order[1:]))
