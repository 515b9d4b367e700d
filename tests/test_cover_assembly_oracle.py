"""Cover assembly against the brute-force loops it replaced.

The divisors of m, the periodicity classes and the monodromy polynomials are
computed from factorisations, the divisors of the period and sparse t^d - 1
factors.  Each is checked here against the plain loop over 1..m, over every
residue mod lcm(1..n), or over dense products of cyclotomic polynomials.
"""

import random
from math import lcm

from arrcover import covers
from arrcover.arrangement import beta
from arrcover.covers import (
    PeriodicityClass,
    PeriodicityReport,
    _local_values,
    monodromy_charpoly,
    periodicity,
)
from arrcover.cyclofield import divisors, euler_phi
from bench_inputs import braid_decone
from mobius import mobius

CEVA3_K3 = {(3, 1): 2, (3, 2): 13, (3, 3): 11}


# ---------------------------------------------------------------------------
# Oracles.
# ---------------------------------------------------------------------------

def divisors_oracle(m):
    return [k for k in range(1, m + 1) if m % k == 0]


def dense_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            out[j:j + len(a)] = [o + x * y for o, x in zip(out[j:j + len(a)], a)]
    return out


def dense_divexact(a, b):
    """a / b for a monic divisor b, asserting a zero remainder."""
    rem = list(a)
    q = [0] * (len(rem) - len(b) + 1)
    for i in range(len(rem) - 1, len(b) - 2, -1):
        c = rem[i]
        q[i - len(b) + 1] = c
        for j, y in enumerate(b):
            rem[i - len(b) + 1 + j] -= c * y
    assert not any(rem)
    return q


_CYCLOTOMIC = {}


def cyclotomic_oracle(k):
    """Phi_k as t^k - 1 over the product of Phi_d for every proper divisor d."""
    if k not in _CYCLOTOMIC:
        proper = [1]
        for d in range(1, k):
            if k % d == 0:
                proper = dense_mul(proper, cyclotomic_oracle(d))
        _CYCLOTOMIC[k] = dense_divexact([-1] + [0] * (k - 1) + [1], proper)
    return _CYCLOTOMIC[k]


def charpoly_oracle(exponents):
    """prod Phi_k^(e_k) by one dense product per factor."""
    product = [1]
    for k, e in sorted(exponents.items()):
        for _ in range(e):
            product = dense_mul(product, cyclotomic_oracle(k))
    return tuple(product)


def greedy_tk_oracle(exponents):
    """Greedy re-expression of prod Phi_k^(e_k) as prod (t^j - 1)^(f_j), or None."""
    remaining = {k: e for k, e in exponents.items() if e}
    factors = []
    for j in sorted(remaining, reverse=True):
        divs = divisors_oracle(j)
        take = min((remaining.get(d, 0) for d in divs), default=0)
        if remaining.get(j, 0) and take:
            for d in divs:
                remaining[d] = remaining.get(d, 0) - take
            factors.append((j, take))
    if any(remaining.values()):
        return None
    return tuple(sorted(factors))


def periodicity_oracle(a, resolution=None):
    """periodicity() with the classes read off every residue 1..lcm(1..n)."""
    n, ell = a.n, a.ell
    period = lcm(*range(1, n + 1))
    values, exact = _local_values(a, range(1, n + 1), resolution)
    patterns = sorted(
        {tuple(k for k in range(1, n + 1) if i % k == 0) for i in range(1, period + 1)}
    )
    classes = []
    for pattern in patterns:
        constants = tuple(
            sum(euler_phi(k) * values[k][q] for k in pattern) for q in range(1, ell)
        )
        alternating = sum((-1) ** q * c for q, c in enumerate(constants, start=1))
        classes.append(PeriodicityClass(
            divisors=pattern,
            constants=constants,
            top_slope=beta(a),
            top_constant=(-1) ** (ell + 1) * (1 + alternating),
        ))
    return PeriodicityReport(period=period, ell=ell, classes=tuple(classes), exact=exact)


# ---------------------------------------------------------------------------
# Number theory.
# ---------------------------------------------------------------------------

def test_divisors_match_scan():
    for m in range(1, 2001):
        assert divisors(m) == divisors_oracle(m)
    # 2 * 3 * 5 * ... * 19: 256 divisors
    assert divisors(9699690) == divisors_oracle(9699690)


def test_mobius_sums_over_divisors():
    for n in range(1, 2001):
        assert sum(mobius(d) for d in divisors_oracle(n)) == (1 if n == 1 else 0)


# ---------------------------------------------------------------------------
# Periodicity classes.
# ---------------------------------------------------------------------------

def test_periodicity_matches_every_residue(selberg, maclane_decone, hessian_decone, ceva3):
    cases = [(selberg, None, 60), (maclane_decone, None, 420), (hessian_decone, None, 27720)]
    # resonant k with values below the top degree: Ceva(3) at k = 3 (the
    # README's assertions) and k = 9 (open too, asserted at its lower
    # bounds), and the braid A4 decone at k = 2 and 3 (resolved) and k = 6
    # (open, asserted at each value of its interval)
    cases.append((ceva3, {**CEVA3_K3, (9, 1): 0, (9, 2): 9, (9, 3): 9}, 2520))
    braid = braid_decone(5, 7)
    cases += [(braid, {(6, 2): b2, (6, 3): b2 + 6}, 2520) for b2 in (0, 1, 2)]
    for a, resolution, period in cases:
        report = periodicity(a, resolution)
        assert report.period == period
        assert report == periodicity_oracle(a, resolution)
        assert not report.exact or resolution is None
    # the last braid case: phi(k) * b_2(L_k) at k = 2, 3 and 6 is 2, 2 and 4
    assert report.betti(6)[2] - report.betti(1)[2] == 1 * 2 + 2 * 1 + 2 * 2
    # Ceva(3) at k = 3 adds phi(3) * (b_1, b_2)(L_3) = (4, 26)
    assert periodicity(ceva3, cases[3][1]).betti(3)[1:3] == (9 + 4, 24 + 26)


# ---------------------------------------------------------------------------
# Monodromy polynomials.
# ---------------------------------------------------------------------------

def _check_charpolys(a, ms, resolution_for=lambda m: None):
    for m in ms:
        for q in range(a.ell + 1):
            report = monodromy_charpoly(a, m, q, resolution_for(m))
            exps = dict(report.exponents)
            assert report.expanded.coeffs == charpoly_oracle(exps)
            assert report.tk_factors == greedy_tk_oracle(exps)


def test_charpoly_matches_dense_product(selberg, maclane_decone, hessian_decone):
    for a in (selberg, maclane_decone, hessian_decone):
        _check_charpolys(a, range(1, 61))


def test_charpoly_ceva3_asserted(ceva3):
    # m = 9 needs b_q(L_9), which stays open and has no asserted value; an
    # assertion at k = 3 is only accepted where 3 is a visited divisor
    _check_charpolys(ceva3, [m for m in range(1, 13) if m != 9],
                     lambda m: CEVA3_K3 if m % 3 == 0 else None)
    report = monodromy_charpoly(ceva3, 6, 1, CEVA3_K3)
    assert not report.exact
    assert report.exponents == ((1, 9), (3, 2))
    assert report.tk_factors == ((1, 7), (3, 2))
    assert report.expanded.coeffs == (-1, 7, -21, 37, -49, 63, -78, 78, -63, 49, -37, 21, -7, 1)


def test_charpoly_mixed_sign_tk_exponents(monkeypatch, selberg):
    """Exponent maps whose (t^d - 1) form needs negative powers.

    No catalog cover has one, so the local values are replaced by seeded
    maps on the divisors of 12 (degree 1 of two-degree values).
    """
    rng = random.Random(12)
    ks = divisors_oracle(12)
    seen_none = 0
    for _ in range(60):
        exps = {k: rng.randrange(4) for k in ks}
        fake = ({k: (0, e) for k, e in exps.items()}, True)
        monkeypatch.setattr(covers, "_local_values", lambda *args: fake)
        report = monodromy_charpoly(selberg, 12, 1)
        assert report.expanded.coeffs == charpoly_oracle(exps)
        assert report.tk_factors == greedy_tk_oracle(exps)
        seen_none += report.tk_factors is None
    assert seen_none > 0

