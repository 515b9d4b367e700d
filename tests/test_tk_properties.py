"""tk_exponents, tk_product and cyclotomic_polynomial against plain loops.

The oracles here share nothing with arrcover.cyclofield: mu by trial
division (tests/mobius.py), dense products of coefficient lists, and
schoolbook long division that reports its remainder.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, strategies as st  # noqa: E402

from arrcover.cyclofield import (  # noqa: E402
    IntPoly,
    cyclotomic_polynomial,
    tk_exponents,
    tk_product,
)
from mobius import mobius  # noqa: E402


def primes_of(n):
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + [n] if n > 1 else primes


def multiply(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def long_divide(a, b):
    """(quotient, remainder) of a by a monic b, low degree first."""
    rem = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = rem[i + len(b) - 1]
        for j, y in enumerate(b):
            rem[i + j] -= c * y
    return q, rem


def tk_minus_one(d):
    return [-1] + [0] * (d - 1) + [1]


_PHI = {}


def phi_oracle(k):
    """Phi_k as t^k - 1 long-divided by Phi_d for each proper divisor d."""
    if k not in _PHI:
        poly = tk_minus_one(k)
        for d in range(1, k):
            if k % d == 0:
                poly, rem = long_divide(poly, phi_oracle(d))
                assert not any(rem)
        _PHI[k] = poly
    return _PHI[k]


def stripped(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


exponent_maps = st.dictionaries(st.integers(1, 120), st.integers(-4, 4), max_size=6)


@given(exponent_maps)
@example({6: 1})
@example({1: 11, 2: 2, 4: 2, 3: 0})
@example({})
def test_tk_exponents_is_mobius_inversion(exps):
    expected = {}
    for d in range(1, 121):
        f = sum(mobius(k // d) * e for k, e in exps.items() if k % d == 0)
        if f:
            expected[d] = f
    assert tk_exponents(exps) == expected
    # the primes may be passed in, and extra primes change nothing
    keys = [k for k, e in exps.items() if e]
    primes = sorted({p for k in keys for p in primes_of(k)})
    assert tk_exponents(exps, primes) == expected
    assert tk_exponents(exps, sorted(set(primes) | {2, 3, 5, 7, 11, 13})) == expected
    assert list(tk_exponents(exps)) == sorted(expected)


@given(st.dictionaries(st.integers(1, 40), st.integers(0, 3), max_size=4))
@example({1: 11, 2: 2, 4: 2})
@example({105: 1})
def test_tk_product_expands_cyclotomic_products(exps):
    product = [1]
    for k, e in exps.items():
        for _ in range(e):
            product = multiply(product, phi_oracle(k))
    assert tk_product(tk_exponents(exps)) == IntPoly(product)


@given(st.dictionaries(st.integers(1, 12), st.integers(-3, 3), max_size=5))
@example({1: 1, 3: -1})  # dividend t - 1 has degree below 3
@example({2: -1})
@example({1: 1, 2: -1, 3: -1, 6: 1})
@example({4: 1, 2: -2})
@example({})
@example({1: 3, 3: 1, 600: 2})  # a block at an offset past the running list
@example({7: 70})  # binomial coefficients past 2^64
@example({2: 2, 6: 3, 1: -1, 3: -1})  # blocks, then two exact divisions
def test_tk_product_divides_exactly_or_raises(factors):
    dividend, divisor = [1], [1]
    for d, f in factors.items():
        for _ in range(abs(f)):
            if f > 0:
                dividend = multiply(dividend, tk_minus_one(d))
            else:
                divisor = multiply(divisor, tk_minus_one(d))
    quotient, rem = long_divide(dividend, divisor)
    if any(rem):
        with pytest.raises(ValueError, match="^inexact polynomial division$"):
            tk_product(factors)
    else:
        assert tk_product(factors).coeffs == stripped(quotient)


def test_cyclotomic_polynomials_up_to_120():
    for k in range(1, 121):
        assert cyclotomic_polynomial(k).coeffs == tuple(phi_oracle(k))
