"""Integer polynomial layer: arithmetic, symmetry tooling, root counting.

The symmetric decomposition and the derangement polynomials are checked
against independent oracles computed here with Fraction linear algebra and
brute-force permutation counting.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from thetalab import (
    ConsistencyError,
    GammaVector,
    IntPoly,
    PreconditionError,
    derangement_poly,
    derangement_poly_by_excedance,
    gamma_vector,
    is_gamma_positive,
    is_nonnegative,
    is_real_rooted,
    is_symmetric,
    is_unimodal,
    pnk,
    poly_geq,
    reverse,
    symmetric_decomposition,
)

P = IntPoly


# ------------------------------------------------------------ arithmetic


def test_construction_strips_trailing_zeros():
    assert P((1, 2, 0, 0)).coeffs == (1, 2)
    assert P(()).coeffs == ()
    assert P((0,)).coeffs == ()


def test_zero_one_x_monomial():
    assert P.zero().is_zero()
    assert not P.zero()
    assert P.one().coeffs == (1,)
    assert P.x().coeffs == (0, 1)
    assert P.monomial(3, -2).coeffs == (0, 0, 0, -2)


def test_degree():
    assert P.zero().degree is None
    assert P.one().degree == 0
    assert P((0, 0, 5)).degree == 2


def test_add_sub_neg():
    a = P((1, 2, 3))
    b = P((0, -2, -3, 4))
    assert (a + b).coeffs == (1, 0, 0, 4)
    assert (a - a).is_zero()
    assert (-a).coeffs == (-1, -2, -3)


def test_mul_scalar_and_poly():
    a = P((1, 1))
    assert (a * 3).coeffs == (3, 3)
    assert (a * a).coeffs == (1, 2, 1)
    assert (a * P.zero()).is_zero()


def test_pow():
    assert (P((1, 1)) ** 0) == P.one()
    assert (P((1, 1)) ** 3).coeffs == (1, 3, 3, 1)
    with pytest.raises(PreconditionError):
        P((1, 1)) ** -1


def test_shift_getitem_padded():
    p = P((1, 2)).shift(2)
    assert p.coeffs == (0, 0, 1, 2)
    assert p[3] == 2
    assert p[10] == 0
    assert p.padded(6) == (0, 0, 1, 2, 0, 0)


def test_evaluate():
    p = P((1, -3, 2))  # (1-x)(1-2x)
    assert p.evaluate(1) == 0
    assert p.evaluate(Fraction(1, 2)) == 0
    assert p.evaluate(0) == 1


def test_derivative():
    assert P((5, 3, 0, 2)).derivative().coeffs == (3, 0, 6)
    assert P.one().derivative().is_zero()


def test_equality_and_hash():
    assert P((1, 2)) == P((1, 2, 0))
    assert hash(P((1, 2))) == hash(P((1, 2, 0)))
    assert P((1, 2)) != P((2, 1))


def test_text():
    assert P.zero().text() == "0"
    assert P((1, 1, 0, 1)).text() == "1 + x + x^3"
    assert P((0, 1, 7, 1)).text() == "x + 7*x^2 + x^3"
    assert P((0, -1, -1)).text() == "-x - x^2"


def test_json_coeffs_are_decimal_strings():
    assert P((1, 0, -12)).json_coeffs() == ["1", "0", "-12"]


def test_poly_geq():
    assert poly_geq(P((1, 2, 3)), P((1, 2)))
    assert not poly_geq(P((1, 2)), P((1, 2, 3)))


# ------------------------------------------------- symmetry and reversal


def test_reverse():
    assert reverse(P((1, 4, 1)), 3).coeffs == (0, 1, 4, 1)
    assert reverse(P.zero(), 5).is_zero()
    with pytest.raises(PreconditionError):
        reverse(P((0, 0, 0, 1)), 2)


def test_is_symmetric():
    assert is_symmetric(P((1, 4, 1)), 2)
    assert not is_symmetric(P((1, 4, 1)), 3)
    assert is_symmetric(P((0, 1, 1)), 3)  # x + x^2 about 3/2
    assert not is_symmetric(P((0, 0, 0, 1)), 2)  # degree above the window


def test_nonnegative_unimodal():
    assert is_nonnegative(P((0, 1, 2)))
    assert not is_nonnegative(P((0, -1)))
    assert is_unimodal(P((1, 3, 3, 2)))
    assert is_unimodal(P.zero())
    assert not is_unimodal(P((1, 0, 1)))
    # negative entries take part in the comparisons
    assert is_unimodal(P((-1, 0, 1, 0, -2)))


# --------------------------------------------------------- gamma vectors


def test_gamma_vector_known_expansions():
    gv = gamma_vector(P((1, 4, 1)), 2)
    assert gv == GammaVector((1, 2), 2)
    assert gv.reconstruct() == P((1, 4, 1))
    # h-polynomial of the octahedron
    assert gamma_vector(P((1, 3, 3, 1)), 3).gammas == (1, 0)
    # theta = x + x^3 is symmetric about 2 but not gamma-positive
    assert gamma_vector(P((0, 1, 0, 1)), 4).gammas == (0, 1, -2)


def test_gamma_vector_rejects_asymmetric():
    assert gamma_vector(P((1, 2)), 2) is None
    assert gamma_vector(P((0, 0, 1)), 1) is None


def test_is_gamma_positive():
    assert is_gamma_positive(P((1, 4, 1)), 2)
    assert not is_gamma_positive(P((0, 1, 0, 1)), 4)
    assert is_gamma_positive(P.zero(), 3)


def _decompose_with_fractions(p, n):
    """Independent oracle: solve p = a + x b as a linear system.

    Symmetry folds the unknowns to a_0..a_{n//2} and b_0..b_{(n-1)//2};
    matching coefficients of x^0..x^n then gives a square system, solved
    here by plain Gaussian elimination over Fractions.
    """
    na = n // 2 + 1
    nb = (n + 1) // 2  # b is symmetric about (n-1)/2, so b_0..b_{(n-1)//2}
    rows = []
    for i in range(n + 1):
        row = [Fraction(0)] * (na + nb)
        row[min(i, n - i)] += 1
        if i >= 1 and nb:
            row[na + min(i - 1, n - i)] += 1
        rows.append(row + [Fraction(p[i])])
    m = len(rows[0]) - 1
    col = 0
    for r in range(len(rows)):
        piv = next((j for j in range(r, len(rows)) if col < m and rows[j][col]), None)
        while piv is None and col + 1 < m:
            col += 1
            piv = next((j for j in range(r, len(rows)) if rows[j][col]), None)
        if piv is None:
            break
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [v / rows[r][col] for v in rows[r]]
        for j in range(len(rows)):
            if j != r and rows[j][col]:
                factor = rows[j][col]
                rows[j] = [v - factor * w for v, w in zip(rows[j], rows[r])]
        col += 1
    sol = [Fraction(0)] * m
    for row in rows:
        lead = next((j for j in range(m) if row[j]), None)
        if lead is None:
            assert row[-1] == 0, "inconsistent system"
        else:
            sol[lead] = row[-1]
    a = [sol[min(i, n - i)] for i in range(n + 1)]
    b = [sol[na + min(i, n - 1 - i)] if n else Fraction(0) for i in range(n)]
    return a, b + [Fraction(0)]


def test_symmetric_decomposition_against_fraction_oracle():
    cases = [
        (P((1, 3, 2, 2)), 3),
        (P((1, 7, 6, 2)), 3),
        (P((1, 4, 1)), 2),
        (P((2, 5, 5, 2)), 3),
        (P((1,)), 4),
        (P.zero(), 3),
    ]
    for p, n in cases:
        dec = symmetric_decomposition(p, n)
        assert dec.a + dec.b.shift(1) == p
        assert reverse(dec.a, n) == dec.a
        assert reverse(dec.b, n - 1) == dec.b
        a, b = _decompose_with_fractions(p, n)
        assert [Fraction(v) for v in dec.a.padded(n + 1)] == a
        assert [Fraction(v) for v in dec.b.padded(n + 1)] == b


def test_symmetric_decomposition_known_split():
    # 1+3x+2x^2+2x^3 about 3: a = boundary part, b = theta/x
    dec = symmetric_decomposition(P((1, 3, 2, 2)), 3)
    assert dec.a == P((1, 2, 2, 1))
    assert dec.b == P((1, 0, 1))


def test_symmetric_decomposition_rejects_large_degree():
    with pytest.raises(PreconditionError):
        symmetric_decomposition(P((0, 0, 0, 1)), 2)


# ------------------------------------------------------------ real roots


def test_real_rooted_products_of_linear_factors():
    p = P((1, 1)) * P((2, 1)) * P((3, 2)) * 5
    assert is_real_rooted(p)
    assert is_real_rooted(P((0, 0, 1)))  # double root at the origin
    assert is_real_rooted(P((-2, 0, 1)))  # irrational roots
    assert is_real_rooted(P.zero())
    assert is_real_rooted(P((7,)))


def test_not_real_rooted():
    assert not is_real_rooted(P((1, 0, 1)))
    assert not is_real_rooted(P((1, 1, 1)))
    assert not is_real_rooted(P((0, 1, 0, 0, 1)))  # x(x^3+1) has two complex roots
    assert not is_real_rooted(P((0, 0, 1, 0, 1)))  # x^2 (x^2+1)
    assert not is_real_rooted(P((-1, 1)) ** 3 * P((1, 1, 1)))  # (x-1)^3 (x^2+x+1)


def test_real_rooted_with_repeated_factors():
    p = (P((1, 1)) ** 3) * (P((-4, 1)) ** 2)
    assert is_real_rooted(p)


# --------------------------------------------------- transform polynomials


def test_pnk_base_and_bounds():
    assert pnk(0, 0) == P.one()
    assert pnk(1, 0) == P.one()
    assert pnk(1, 1) == P.x()
    with pytest.raises(PreconditionError):
        pnk(2, 3)
    with pytest.raises(PreconditionError):
        pnk(-1, 0)


def test_pnk_row_two():
    assert pnk(2, 0) == P((1, 1))
    assert pnk(2, 1) == P((0, 2))
    assert pnk(2, 2) == P((0, 1, 1))


def test_pnk_reversal_symmetry():
    for n in range(8):
        for k in range(n + 1):
            assert reverse(pnk(n, k), n) == pnk(n, n - k)


def test_pnk_row_sum_is_h_of_sd_boundary():
    # all-ones h-vector belongs to the boundary of the n-simplex, whose
    # barycentric subdivision has the Eulerian h-polynomial A_{n+1}
    total = pnk(3, 0) + pnk(3, 1) + pnk(3, 2) + pnk(3, 3)
    assert total == P((1, 11, 11, 1))


def test_pnk_structure():
    for n in range(1, 8):
        assert pnk(n, 0)[0] == 1
        for k in range(1, n + 1):
            assert pnk(n, k)[0] == 0
        for k in range(1, n):
            assert pnk(n, k).degree <= n - 1
        assert pnk(n, n).degree == n
        for k in range(n + 1):
            assert is_nonnegative(pnk(n, k))
            assert is_unimodal(pnk(n, k))


# ------------------------------------------------- derangement polynomials


EXCEDANCE_TABLE = {
    0: P.one(),
    1: P.zero(),
    2: P((0, 1)),
    3: P((0, 1, 1)),
    4: P((0, 1, 7, 1)),
    5: P((0, 1, 21, 21, 1)),
    6: P((0, 1, 51, 161, 51, 1)),
    7: P((0, 1, 113, 813, 813, 113, 1)),
}


def test_excedance_polynomials_frozen_values():
    for n, expected in EXCEDANCE_TABLE.items():
        assert derangement_poly_by_excedance(n) == expected


def test_derangement_counts():
    # evaluation at 1 counts derangements: 1, 0, 1, 2, 9, 44, 265
    for n, expected in enumerate([1, 0, 1, 2, 9, 44, 265]):
        assert derangement_poly_by_excedance(n).evaluate(1) == expected


@pytest.mark.parametrize("n", range(6))
def test_derangement_poly_matches_excedance_model(n):
    assert derangement_poly(n) == EXCEDANCE_TABLE[n]


def test_derangement_gamma_positive():
    for n in range(8):
        assert is_gamma_positive(derangement_poly_by_excedance(n), n)


def test_derangement_rejects_negative():
    with pytest.raises(PreconditionError):
        derangement_poly_by_excedance(-1)


# ----------------------------------------------------------- properties


coeff_lists = st.lists(st.integers(-30, 30), max_size=7)


@settings(deadline=None, max_examples=200)
@given(coeff_lists, coeff_lists)
def test_property_ring_laws(a, b):
    pa, pb = P(a), P(b)
    assert pa + pb == pb + pa
    assert pa * pb == pb * pa
    assert (pa - pb) + pb == pa


@settings(deadline=None, max_examples=200)
@given(coeff_lists, st.integers(0, 9))
def test_property_reverse_is_an_involution(coeffs, extra):
    p = P(coeffs)
    n = (p.degree or 0) + extra
    assert reverse(reverse(p, n), n) == p


@settings(deadline=None, max_examples=200)
@given(coeff_lists, st.integers(0, 9))
def test_property_decomposition_reconstructs(coeffs, extra):
    p = P(coeffs)
    n = (p.degree or 0) + extra
    dec = symmetric_decomposition(p, n)
    assert dec.a + dec.b.shift(1) == p
    assert is_symmetric(dec.a, n)
    assert is_symmetric(dec.b, n - 1)


@settings(deadline=None, max_examples=150)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=4))
def test_property_gamma_positive_implies_symmetric_unimodal(gammas):
    n = 2 * (len(gammas) - 1) + 1
    p = GammaVector(tuple(gammas), n).reconstruct()
    assert is_gamma_positive(p, n)
    assert is_symmetric(p, n)
    assert is_unimodal(p)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=5))
def test_property_products_of_linear_factors_are_real_rooted(roots):
    p = P.one()
    for r in roots:
        p = p * P((r, 1))
    assert is_real_rooted(p)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 3)), max_size=5),
       st.integers(-4, 4), st.integers(1, 8))
def test_property_complex_pair_times_linear_factors_is_not_real_rooted(factors, b, c):
    """Repeated real roots do not hide a complex pair from the chain."""
    assume(b * b < 4 * c)
    p = P((c, b, 1))
    for r, s in factors:
        p = p * P((r, s))
    assert not is_real_rooted(p)
