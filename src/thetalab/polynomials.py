"""Integer polynomials in one variable and the shape predicates used here.

Everything is exact: coefficients are Python integers, and root counting
uses one Sturm chain kept in integers.  Polynomials are immutable; the zero
polynomial has degree None.  derangement_poly_by_excedance counts d_n over
permutations, the independent check of invariants.derangement_poly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import ConsistencyError, PreconditionError


class IntPoly:
    """Dense integer-coefficient polynomial."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[int] = ()):
        c = []
        for v in coeffs:
            iv = int(v)
            if iv != v:
                raise PreconditionError(f"non-integer coefficient {v!r}")
            c.append(iv)
        while c and c[-1] == 0:
            c.pop()
        self._c = tuple(c)

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls(())

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "IntPoly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, k: int, coeff: int = 1) -> "IntPoly":
        return cls((0,) * k + (coeff,))

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._c

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self._c) - 1 if self._c else None

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def __getitem__(self, i: int) -> int:
        return self._c[i] if 0 <= i < len(self._c) else 0

    def padded(self, length: int) -> tuple[int, ...]:
        return self._c + (0,) * max(0, length - len(self._c))

    def __add__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self._c), len(other._c))
        return IntPoly([self[i] + other[i] for i in range(n)])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self._c), len(other._c))
        return IntPoly([self[i] - other[i] for i in range(n)])

    def __neg__(self) -> "IntPoly":
        return IntPoly([-v for v in self._c])

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([other * v for v in self._c])
        if not isinstance(other, IntPoly):
            return NotImplemented
        if not self._c or not other._c:
            return IntPoly.zero()
        out = [0] * (len(self._c) + len(other._c) - 1)
        for i, a in enumerate(self._c):
            if a:
                for j, b in enumerate(other._c):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "IntPoly":
        if k < 0:
            raise PreconditionError("negative powers are not polynomials")
        out = IntPoly.one()
        for _ in range(k):
            out = out * self
        return out

    def shift(self, k: int) -> "IntPoly":
        """Multiply by x^k."""
        if not self._c:
            return self
        return IntPoly((0,) * k + self._c)

    def evaluate(self, point):
        acc = 0
        for v in reversed(self._c):
            acc = acc * point + v
        return acc

    def derivative(self) -> "IntPoly":
        return IntPoly([i * v for i, v in enumerate(self._c)][1:])

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self._c == other._c

    def __hash__(self) -> int:
        return hash(self._c)

    def text(self) -> str:
        """Render as 'a0 + a1*x + a2*x^2', skipping zero terms."""
        if not self._c:
            return "0"
        parts = []
        for i, v in enumerate(self._c):
            if v == 0:
                continue
            mag = abs(v)
            if i == 0:
                body = str(mag)
            elif i == 1:
                body = "x" if mag == 1 else f"{mag}*x"
            else:
                body = f"x^{i}" if mag == 1 else f"{mag}*x^{i}"
            if not parts:
                parts.append(body if v > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if v > 0 else f"- {body}")
        return " ".join(parts)

    def json_coeffs(self) -> list[str]:
        """Coefficients as decimal strings, constant term first."""
        return [str(v) for v in self._c]

    def __repr__(self) -> str:
        return f"IntPoly({self.text()})"


def poly_geq(a: IntPoly, b: IntPoly) -> bool:
    """Coefficientwise a >= b."""
    n = max(len(a.coeffs), len(b.coeffs))
    return all(a[i] >= b[i] for i in range(n))


def reverse(p: IntPoly, n: int) -> IntPoly:
    """x^n * p(1/x), for polynomials of degree at most n."""
    if p.degree is not None and p.degree > n:
        raise PreconditionError(f"degree {p.degree} exceeds reversal window {n}")
    c = p.padded(n + 1)
    return IntPoly(c[::-1])


def is_symmetric(p: IntPoly, n: int) -> bool:
    """Whether coefficients satisfy a_i = a_{n-i} (center n/2)."""
    if p.degree is not None and p.degree > n:
        return False
    return reverse(p, n) == p


def is_nonnegative(p: IntPoly) -> bool:
    return all(v >= 0 for v in p.coeffs)


def is_unimodal(p: IntPoly) -> bool:
    """Whether coefficients rise to some peak and then fall.

    The zero polynomial counts as unimodal.  Negative coefficients are
    allowed by the definition and simply participate in the comparisons.
    """
    c = p.coeffs
    if len(c) <= 1:
        return True
    k = 0
    while k + 1 < len(c) and c[k] <= c[k + 1]:
        k += 1
    return all(c[i] >= c[i + 1] for i in range(k, len(c) - 1))


@dataclass(frozen=True)
class GammaVector:
    """Coefficients gamma_0..gamma_{floor(n/2)} in the basis x^i (1+x)^(n-2i)."""

    gammas: tuple[int, ...]
    center: int

    def reconstruct(self) -> IntPoly:
        one_plus_x = IntPoly((1, 1))
        acc = IntPoly.zero()
        for i, g in enumerate(self.gammas):
            acc = acc + (one_plus_x ** (self.center - 2 * i)).shift(i) * g
        return acc


def gamma_vector(p: IntPoly, n: int) -> GammaVector | None:
    """Expand p in the basis x^i (1+x)^(n-2i); None when p is not symmetric.

    The expansion exists exactly for polynomials symmetric about n/2, and the
    basis is triangular with unit diagonal, so peeling from the bottom degree
    either terminates with a zero remainder or proves asymmetry.
    """
    if n < 0 or (p.degree is not None and p.degree > n):
        return None
    rem = p
    gammas = []
    one_plus_x = IntPoly((1, 1))
    for i in range(n // 2 + 1):
        g = rem[i]
        gammas.append(g)
        if g:
            rem = rem - (one_plus_x ** (n - 2 * i)).shift(i) * g
    if not rem.is_zero():
        return None
    return GammaVector(tuple(gammas), n)


def is_gamma_positive(p: IntPoly, n: int) -> bool:
    gv = gamma_vector(p, n)
    return gv is not None and all(g >= 0 for g in gv.gammas)


@dataclass(frozen=True)
class SymmetricDecomposition:
    """p = a + x*b with a symmetric about n/2 and b symmetric about (n-1)/2."""

    a: IntPoly
    b: IntPoly
    n: int


def _div_exact_one_minus_x(p: IntPoly) -> IntPoly:
    """Exact division by (1 - x); the callers guarantee divisibility."""
    # q_i = p_i + q_{i-1} when p = (1-x) q
    out = []
    acc = 0
    for v in p.coeffs:
        acc = v + acc
        out.append(acc)
    if out and out[-1] != 0:
        raise ConsistencyError("polynomial not divisible by 1 - x")
    return IntPoly(out[:-1] if out else out)


def symmetric_decomposition(p: IntPoly, n: int) -> SymmetricDecomposition:
    """The unique split p = a + x*b into symmetric parts for deg p <= n."""
    if p.degree is not None and p.degree > n:
        raise PreconditionError(f"degree {p.degree} exceeds decomposition window {n}")
    rev = reverse(p, n)
    a = _div_exact_one_minus_x(p - rev.shift(1))
    b = rev - a
    if a + b.shift(1) != p or reverse(a, n) != a or reverse(b, n - 1) != b:
        raise ConsistencyError("symmetric decomposition failed its defining identities")
    return SymmetricDecomposition(a, b, n)


# ------------------------------------------------------------- real roots


def _sturm_chain(c: list[int]) -> list[list[int]]:
    """The Sturm chain c, c', ... of an integer polynomial; its last term is a
    multiple of gcd(c, c').

    Each next term is a positive multiple of -(a mod b): every elimination
    step scales the remainder by |lead(b)| before it subtracts, and the
    content is divided out, so each term has its rational counterpart's signs.
    """
    chain = [c, [i * v for i, v in enumerate(c)][1:]]
    while True:
        rem, b = chain[-2][:], chain[-1]
        scale, sign = abs(b[-1]), 1 if b[-1] > 0 else -1
        while len(rem) >= len(b):
            q, k = sign * rem[-1], len(rem) - len(b)
            rem = [scale * v for v in rem]
            for i, d in enumerate(b):
                rem[k + i] -= q * d
            while rem and rem[-1] == 0:
                rem.pop()
        if not rem:
            return chain
        g = math.gcd(*rem)
        chain.append([-v // g for v in rem])


def is_real_rooted(p: IntPoly) -> bool:
    """Whether all complex roots are real; constants and zero count as such.

    The Sturm chain's sign changes at -inf and +inf differ by the number of
    distinct real roots, and its last term is gcd(p, p'), so p is real-rooted
    exactly when that number is deg p - deg gcd(p, p').
    """
    if p.degree is None or p.degree == 0:
        return True
    chain = _sturm_chain(list(p.coeffs))

    def variations(at: int) -> int:
        signs = [(1 if t[-1] > 0 else -1) * at ** (len(t) - 1) for t in chain]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(-1) - variations(1) == len(chain[0]) - len(chain[-1])


# ----------------------------------------------------- subdivision transform


@lru_cache(maxsize=None)
def pnk(n: int, k: int) -> IntPoly:
    """Transform polynomials p_{n,k}: h(sd Delta) = sum_k h_k(Delta) p_{n,k}.

    Defined by p_{0,0} = 1 and the recurrence
    p_{n,k} = x * sum_{i<k} p_{n-1,i} + sum_{i=k}^{n} p_{n-1,i},
    where the out-of-range term p_{n-1,n} is zero.
    """
    if n < 0 or not 0 <= k <= n:
        raise PreconditionError(f"pnk needs 0 <= k <= n, got ({n}, {k})")
    if n == 0:
        return IntPoly.one()
    low = IntPoly.zero()
    for i in range(k):
        low = low + pnk(n - 1, i)
    high = IntPoly.zero()
    for i in range(k, n):
        high = high + pnk(n - 1, i)
    return low.shift(1) + high


def derangement_poly_by_excedance(n: int) -> IntPoly:
    """Generating polynomial of excedances over derangements of {1..n}."""
    if n < 0:
        raise PreconditionError("derangement index must be nonnegative")
    counts = [0] * (n + 1)
    for perm in itertools.permutations(range(n)):
        if any(perm[i] == i for i in range(n)):
            continue
        counts[sum(1 for i in range(n) if perm[i] > i)] += 1
    if n == 0:
        counts[0] = 1
    return IntPoly(counts)
