"""Cyclotomic arithmetic, cyclotomic polynomials, and row echelon forms."""

import cmath
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from arrcover import catalog
from arrcover.cyclofield import (
    CycNum,
    IntPoly,
    cyc_reduce,
    cyclotomic_polynomial,
    euler_phi,
    factorize,
    reduced_row_echelon,
    tk_exponents,
    tk_product,
    zadjugate,
    zconj,
    zmul,
)
from arrcover.fileformat import parse_rational
from divisors import divisors
from mobius import mobius


# ---------------------------------------------------------------------------
# Oracles.
# ---------------------------------------------------------------------------

def phi_oracle(k):
    return sum(1 for j in range(1, k + 1) if gcd(j, k) == 1)


def det_oracle(rows):
    """Laplace-expansion determinant over Q(zeta_d), for small matrices."""
    n = len(rows)
    if n == 0:
        return CycNum.one(1)
    if n == 1:
        return rows[0][0]
    d = rows[0][0].order
    total = CycNum.zero(d)
    for j in range(n):
        if rows[0][j].is_zero:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = rows[0][j] * det_oracle(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def rank_oracle(rows):
    """Max size of a square submatrix with nonzero determinant."""
    if not rows:
        return 0
    nr, nc = len(rows), len(rows[0])
    for size in range(min(nr, nc), 0, -1):
        for ri in combinations(range(nr), size):
            for ci in combinations(range(nc), size):
                sub = [[rows[r][c] for c in ci] for r in ri]
                if not det_oracle(sub).is_zero:
                    return size
    return 0


def random_cyc(rng, d=3):
    return cyc_reduce([Fraction(rng.randint(-3, 3)) for _ in range(2)], d)


# ---------------------------------------------------------------------------
# euler_phi.
# ---------------------------------------------------------------------------

def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(12) == phi_oracle(12) == 4
    assert euler_phi(8) == phi_oracle(8) == 4


def test_euler_phi_matches_oracle():
    for k in range(1, 65):
        assert euler_phi(k) == phi_oracle(k)


def test_euler_phi_rejects_zero():
    with pytest.raises(ValueError):
        euler_phi(0)


# ---------------------------------------------------------------------------
# Factorisation, divisors, Mobius.
# ---------------------------------------------------------------------------

def test_factorize_examples():
    assert factorize(1) == ()
    assert factorize(97) == ((97, 1),)
    assert factorize(720720) == ((2, 4), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1))
    assert factorize(10**7) == ((2, 7), (5, 7))


def trial_division(m):
    factors, p = {}, 2
    while p * p <= m:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        factors[m] = 1
    return tuple(sorted(factors.items()))


def test_factorize_agrees_with_plain_trial_division():
    for m in [*range(1, 2000), 720720, 9699690, 10**7, 999983**2, 2**40 * 3**5]:
        assert factorize(m) == trial_division(m), m
    assert factorize(999983**2) == ((999983, 2),)
    assert factorize(9699690) == tuple((p, 1) for p in (2, 3, 5, 7, 11, 13, 17, 19))


def test_factorize_certifies_large_prime_cofactors():
    assert factorize(10**18 + 3) == ((10**18 + 3, 1),)
    assert factorize(2**61 - 1) == ((2**61 - 1, 1),)
    assert factorize(6 * (10**18 + 3)) == ((2, 1), (3, 1), (10**18 + 3, 1))


@pytest.mark.parametrize("m", [
    1000003 * 1000033,
    # a strong pseudoprime to the bases 2..37: only base 41 exposes it
    399165290221 * 798330580441,
    # the least strong pseudoprime to the bases 2..41, the bound itself
    1287836182261 * 2575672364521,
    (10**12 + 39) ** 2,
])
def test_factorize_rejects_cofactors_past_the_limit(m):
    with pytest.raises(ValueError, match="no prime factor up to 1000000"):
        factorize(m)


def test_divisors_and_mobius_examples():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert len(divisors(720720)) == 240
    assert [mobius(k) for k in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_number_theory_rejects_zero():
    for fn in (factorize, divisors):
        with pytest.raises(ValueError):
            fn(0)


# ---------------------------------------------------------------------------
# Cyclotomic polynomials.
# ---------------------------------------------------------------------------

def test_cyclotomic_small_cases():
    assert cyclotomic_polynomial(1).coeffs == (-1, 1)
    assert cyclotomic_polynomial(4).coeffs == (1, 0, 1)
    # derived by dividing t^12 - 1 by Phi_1 Phi_2 Phi_3 Phi_4 Phi_6
    assert cyclotomic_polynomial(12).coeffs == (1, 0, -1, 0, 1)


def test_cyclotomic_rejects_zero():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


def test_cyclotomic_product_identity_up_to_64():
    for k in range(1, 65):
        phi_k = cyclotomic_polynomial(k)
        assert phi_k.coeffs[-1] == 1
        assert phi_k.degree == euler_phi(k)
        product = IntPoly((1,))
        for d in range(1, k + 1):
            if k % d == 0:
                product = product * cyclotomic_polynomial(d)
        expected = IntPoly((-1,) + (0,) * (k - 1) + (1,))
        assert product == expected
    # 105 = 3 * 5 * 7 is the first k with a coefficient outside {-1, 0, 1}
    phi_105 = cyclotomic_polynomial(105)
    assert phi_105.degree == 48
    assert phi_105.coefficient(7) == -2
    assert cyclotomic_polynomial(2520).degree == euler_phi(2520) == 576


def test_tk_exponents_mobius_inversion():
    # Phi_6 = (t^6 - 1)(t - 1) / ((t^3 - 1)(t^2 - 1))
    assert tk_exponents({6: 1}) == {1: 1, 2: -1, 3: -1, 6: 1}
    # the Hessian X_12 degree-1 monodromy: Phi_1^11 Phi_2^2 Phi_4^2
    assert tk_exponents({1: 11, 2: 2, 4: 2, 3: 0}) == {1: 9, 4: 2}
    assert tk_exponents({}) == {}


def test_tk_product_expands_and_divides():
    assert tk_product({}) == IntPoly((1,))
    assert tk_product({1: 1, 2: -1, 3: -1, 6: 1}) == IntPoly((1, -1, 1))
    t_minus_1 = IntPoly((-1, 1))
    assert tk_product({1: 2, 2: 1}) == t_minus_1 * t_minus_1 * IntPoly((-1, 0, 1))
    # (t^2 - 1)^(-1) is not a polynomial: the exact division refuses it
    with pytest.raises(ValueError, match="inexact"):
        tk_product({2: -1})


def test_pow_refuses_a_negative_exponent():
    t_plus_1 = IntPoly((1, 1))
    assert t_plus_1.pow(0) == IntPoly((1,))
    assert t_plus_1.pow(2) == IntPoly((1, 2, 1))
    with pytest.raises(ValueError, match="exponent -2 is negative"):
        t_plus_1.pow(-2)


# ---------------------------------------------------------------------------
# cyc_reduce / field arithmetic.
# ---------------------------------------------------------------------------

def test_cyc_reduce_examples():
    # zeta_3^2 = -1 - zeta_3
    assert cyc_reduce([0, 0, 1], 3).coeffs == (Fraction(-1), Fraction(-1))
    # zeta_4^2 = -1
    assert cyc_reduce([0, 0, 1], 4).coeffs == (Fraction(-1), Fraction(0))
    # degenerate field
    assert cyc_reduce([Fraction(5, 2)], 1).coeffs == (Fraction(5, 2),)


def test_cyc_reduce_empty_is_zero():
    assert cyc_reduce([], 3).is_zero


def test_cyc_reduce_idempotent():
    rng = random.Random(7)
    for _ in range(50):
        x = random_cyc(rng)
        assert cyc_reduce(x.coeffs, 3) == x


def test_cyc_arithmetic_examples():
    z4 = cyc_reduce([0, 1], 4)
    minus_one = cyc_reduce([-1], 4)
    assert z4 * z4 == minus_one
    assert CycNum.one(4) * z4.inverse() == -z4
    z3 = cyc_reduce([0, 1], 3)
    z3sq = z3 * z3
    assert (CycNum.one(3) + z3 + z3sq).is_zero
    assert (z3sq - z3sq).is_zero


def test_cyc_arithmetic_errors():
    with pytest.raises(ZeroDivisionError):
        CycNum.zero(3).inverse()
    for op in (CycNum.__add__, CycNum.__sub__, CycNum.__mul__):
        with pytest.raises(ValueError):
            op(CycNum.one(3), CycNum.one(4))


def test_cyc_field_axioms_sampled():
    rng = random.Random(11)
    for _ in range(40):
        a, b, c = (random_cyc(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not b.is_zero:
            assert (a * b) * b.inverse() == a


def test_public_constructor_keeps_its_checks():
    with pytest.raises(ValueError):
        CycNum(3, (1,))
    with pytest.raises(ValueError):
        CycNum(0, ())
    x = CycNum(3, (1, 2))
    assert all(type(c) is Fraction for c in x.coeffs)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 7, 8, 12, 23, 31])
def test_arithmetic_results_equal_validated_constructions(d):
    # results of + - neg * inverse skip the constructor's checks; the
    # inverse goes through the norm, whose adjugate chain differs with d
    rng = random.Random(f"canonical-{d}")

    def number():
        return cyc_reduce(
            [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(euler_phi(d))], d
        )

    fractional = 0
    for _ in range(20):
        a, b = number(), number()
        results = [a + b, a - b, -a, a * b]
        if not b.is_zero:
            inverse = b.inverse()
            assert b * inverse == CycNum.one(d)
            fractional += any(c.denominator > 1 for c in b.coeffs)
            results += [inverse, a * inverse]
        for r in results:
            validated = CycNum(d, r.coeffs)
            assert r == validated
            assert hash(r) == hash(validated)
            assert all(type(c) is Fraction for c in r.coeffs)
    assert fractional > 0


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 7, 8, 12])
def test_integer_ring_product_conjugates_and_norm(d):
    rng = random.Random(f"zring-{d}")
    units = [j for j in range(1, d + 1) if gcd(j, d) == 1]
    roots = [cmath.exp(2j * cmath.pi * u / d) for u in units]
    for _ in range(15):
        a, b = (tuple(rng.randint(-3, 3) for _ in range(euler_phi(d))) for _ in range(2))
        product = zmul(a, b, d)
        assert all(type(c) is int for c in product)
        assert cyc_reduce(product, d) == cyc_reduce(a, d) * cyc_reduce(b, d)
        assert zconj(a, 1, d) == a
        for j in units:
            # each sigma_j is a ring homomorphism
            assert zconj(product, j, d) == zmul(zconj(a, j, d), zconj(b, j, d), d)
        if any(a):
            # a * adj(a) is the norm: a rational integer, the product of the
            # complex embeddings of a
            norm = zmul(a, zadjugate(a, d), d)
            assert not any(norm[1:])
            embedded = 1
            for z in roots:
                embedded *= sum(c * z**i for i, c in enumerate(a))
            assert norm[0] == round(embedded.real) != 0


@pytest.mark.parametrize("d", [5, 8, 12, 23, 31])
def test_adjugate_is_the_product_of_the_other_conjugates(d):
    # zadjugate doubles along a chain of cyclic quotients of the units;
    # the plain product runs over the units one at a time
    rng = random.Random(f"adjugate-{d}")
    others = [j for j in range(2, d) if gcd(j, d) == 1]
    for _ in range(6):
        a = tuple(rng.randint(-3, 3) for _ in range(euler_phi(d)))
        if not any(a):
            continue
        plain = (1,) + (0,) * (len(a) - 1)
        for j in others:
            plain = zmul(plain, zconj(a, j, d), d)
        assert zadjugate(a, d) == plain
        norm = zmul(a, plain, d)
        assert not any(norm[1:]) and norm[0] != 0


def test_zeta_power_order():
    for d in (3, 4, 5, 12):
        z = cyc_reduce([0, 1], d)
        acc = CycNum.one(d)
        for _ in range(d):
            acc = acc * z
        assert acc == CycNum.one(d)


# ---------------------------------------------------------------------------
# reduced_row_echelon: the rank is the number of echelon rows.
# ---------------------------------------------------------------------------

def rank(rows):
    return len(reduced_row_echelon(rows)[0])


def test_rank_identity_and_zero():
    one, zero = CycNum.one(1), CycNum.zero(1)
    assert rank([[one, zero], [zero, one]]) == 2
    assert rank([[CycNum.zero(3)] * 5 for _ in range(3)]) == 0


def test_rank_rejects_ragged():
    one, zero = CycNum.one(1), CycNum.zero(1)
    with pytest.raises(ValueError, match="ragged"):
        rank([[one, one], [one]])
    # a short later row used to be truncated by zip, hiding its third column
    with pytest.raises(ValueError, match="ragged"):
        rank([[one, zero], [zero, zero, one]])
    with pytest.raises(ValueError, match="ragged"):
        rank([[zero, one], [one]])


def test_rank_rejects_mixed_orders():
    with pytest.raises(ValueError, match="mixed cyclotomic orders"):
        rank([[CycNum.one(3)], [CycNum.one(4)]])


def test_rank_hessian_linear_forms():
    central = catalog.hessian_central()
    rows = [list(h.coeffs) for h in central.hyperplanes]
    assert len(rows) == 12
    assert rank(rows) == rank_oracle(rows) == 3


def test_rank_matches_minor_oracle_random():
    rng = random.Random(23)
    for _ in range(25):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[random_cyc(rng) for _ in range(nc)] for _ in range(nr)]
        assert rank(rows) == rank_oracle(rows)


# ---------------------------------------------------------------------------
# Rational strings.
# ---------------------------------------------------------------------------

def test_rational_round_trip():
    for text in ("0", "5", "-3", "5/2", "-7/3"):
        assert str(parse_rational(text)) == text


def test_rational_rejects_garbage():
    for text in ("", "1.5", "3/", "/2", "1/-2", "a"):
        with pytest.raises(ValueError):
            parse_rational(text)
