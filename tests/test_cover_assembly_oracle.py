"""Cover assembly against the brute-force loops and the constructions it replaced.

The divisors of m, the periodicity classes and the monodromy polynomials are
computed from factorisations, prime-power bitmasks and sparse t^d - 1
factors.  Each is checked here against the plain loop over 1..m, over every
residue mod lcm(1..n), or over dense products of cyclotomic polynomials, and
against the per-divisor constructions that the bulk ones replaced: the
divisors of the period with an n-way scan each, (k, phi) pairs sorted as
tuples, and local values read one resolve yield per k.
"""

import random
from math import lcm

import pytest

from arrcover import catalog, covers
from arrcover.arrangement import beta
from arrcover.covers import (
    CoverReport,
    PeriodicityClass,
    PeriodicityReport,
    UnresolvedBettiError,
    cover_betti,
    monodromy_charpoly,
    periodicity,
    resolve,
    zeta_coefficients,
)
from arrcover.cyclofield import divisor_phis, euler_phi, factorize
from bench_inputs import braid_decone, generic_lines
from divisors import divisors
from mobius import mobius

CEVA3_K3 = {(3, 1): 2, (3, 2): 13, (3, 3): 11}
# Ceva(3) with k = 9, open too, asserted at its lower bounds as well
CEVA3_ALL = {**CEVA3_K3, (9, 1): 0, (9, 2): 9, (9, 3): 9}


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


def local_values_oracle(a, ks, resolution=None, q=None):
    """The values of every k of ks and an exactness flag, one resolve yield
    per k: the first k with an open interval in degree q (any degree when q
    is None) raises UnresolvedBettiError."""
    values, exact = {}, True
    for k, intervals, k_exact in resolve(a, ks, resolution):
        open_intervals = [iv for iv in intervals if not iv.resolved]
        if any(q in (None, iv.degree) for iv in open_intervals):
            raise UnresolvedBettiError(k, open_intervals)
        values[k] = tuple(iv.lower for iv in intervals)
        exact = exact and k_exact
    return values, exact


def divisor_phis_by_pairs(m):
    """{k: phi(k)} for k | m from (k, phi) pairs, multiplied out per prime
    and sorted as tuples."""
    pairs = [(1, 1)]
    for p, e in factorize(m):
        powers = [(1, 1)] + [(p**i, p**i - p ** (i - 1)) for i in range(1, e + 1)]
        pairs = [(k * q, f * g) for k, f in pairs for q, g in powers]
    return dict(sorted(pairs))


def periodicity_by_divisors(a, resolution=None):
    """periodicity() with the classes read off the divisors g of lcm(1..n),
    each scanning every k <= n, and sorted as (pattern, g) pairs."""
    n, ell = a.n, a.ell
    period = lcm(*range(1, n + 1))
    values, exact = local_values_oracle(a, range(1, n + 1), resolution)
    b = beta(a)
    terms = {k: [euler_phi(k) * x for x in v[1:ell]]
             for k, v in values.items() if any(v[1:ell])}
    ks = range(1, n + 1)
    by_terms = {}
    classes = []
    for pattern, g in sorted((tuple([k for k in ks if g % k == 0]), g)
                             for g in divisor_phis_by_pairs(period)):
        summed = tuple([k for k in terms if g % k == 0])
        if summed not in by_terms:
            constants = tuple(sum(terms[k][i] for k in summed) for i in range(ell - 1))
            alternating = sum((-1) ** q * c for q, c in enumerate(constants, start=1))
            by_terms[summed] = constants, (-1) ** (ell + 1) * (1 + alternating)
        constants, top_constant = by_terms[summed]
        classes.append(PeriodicityClass(pattern, constants, b, top_constant))
    return PeriodicityReport(period, ell, tuple(classes), exact)


def cover_betti_oracle(a, m, resolution=None):
    """cover_betti() as one phi(k) * b_q(L_k) term per divisor k of m."""
    phis = divisor_phis_by_pairs(m)
    values, exact = local_values_oracle(a, list(phis), resolution)
    betti = tuple(sum(phis[k] * v[q] for k, v in values.items()) for q in range(a.ell + 1))
    return CoverReport(m, betti, tuple(values.items()), exact)


def periodicity_oracle(a, resolution=None):
    """periodicity() with the classes read off every residue 1..lcm(1..n)."""
    n, ell = a.n, a.ell
    period = lcm(*range(1, n + 1))
    values, exact = local_values_oracle(a, range(1, n + 1), resolution)
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


def test_divisor_phis_match_sorted_pairs_up_to_2000():
    for m in range(1, 2001):
        assert list(divisor_phis(m).items()) == list(divisor_phis_by_pairs(m).items())


# 2^4 3^2 5 7 11 13 = lcm(1..16); 2 3 5 ... 19; a prime past trial division's
# square root bound
@pytest.mark.parametrize(
    "m", [1, 2, 12, 5040, 720720, 9699690, 10**7, 2**40, 999999999989])
def test_divisor_phis_match_sorted_pairs(m):
    # equal as ordered dicts: the same items in the same order
    assert list(divisor_phis(m).items()) == list(divisor_phis_by_pairs(m).items())


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
    cases.append((ceva3, CEVA3_ALL, 2520))
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


def assert_same(report, oracle):
    assert report == oracle
    assert repr(report) == repr(oracle)


@pytest.mark.parametrize("key", sorted(catalog.entries()))
def test_periodicity_matches_divisor_construction_on_catalog(key):
    a = catalog.get(key).arrangement
    resolution = CEVA3_ALL if key == "ceva3" else None
    assert_same(periodicity(a, resolution), periodicity_by_divisors(a, resolution))


def test_periodicity_open_interval_matches_divisor_construction(ceva3):
    raised = []
    for build in (periodicity, periodicity_by_divisors):
        with pytest.raises(UnresolvedBettiError) as info:
            build(ceva3, CEVA3_K3)
        raised.append((info.value.k, info.value.intervals, str(info.value)))
    assert raised[0] == raised[1]
    assert raised[0][0] == 9


@pytest.mark.parametrize("n", range(2, 25))
def test_periodicity_matches_divisor_construction_on_generic_lines(n):
    a = generic_lines(n, 11)
    assert_same(periodicity(a), periodicity_by_divisors(a))


# ---------------------------------------------------------------------------
# Asserted resolutions, against one resolve yield per divisor.
# ---------------------------------------------------------------------------

def outcome(fn, *args):
    """fn(*args), or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (ValueError, UnresolvedBettiError) as exc:
        return type(exc).__name__, str(exc)


def asserted_cases(ceva3):
    """(arrangement, resolution): Ceva(3) at k = 3 and 9, the braid A4
    decone at each value of its open k = 6 interval, and both with a
    nonresonant k = 7 asserted at its value or outside it."""
    braid = braid_decone(5, 7)
    cases = [(ceva3, CEVA3_ALL), (ceva3, {**CEVA3_ALL, (7, 3): 0}),
             (ceva3, {**CEVA3_ALL, (7, 1): 1})]
    cases += [(braid, {(6, 2): b2, (6, 3): b2 + 6}) for b2 in (0, 1, 2)]
    cases += [(braid, {(6, 2): 1, (6, 3): 7, (7, 3): 6}),
              (braid, {(6, 2): 1, (6, 3): 7, (7, 1): 1})]
    return cases


def visited(resolution, ks):
    return {key: value for key, value in resolution.items() if key[0] in ks}


def test_cover_betti_with_assertions_matches_per_divisor_sums(ceva3):
    for a, resolution in asserted_cases(ceva3):
        for m in [*range(1, 43), 5040, 9699690]:
            asserted = visited(resolution, divisors(m))
            got = outcome(cover_betti, a, m, asserted)
            want = outcome(cover_betti_oracle, a, m, asserted)
            assert got == want and repr(got) == repr(want), (resolution, m)


def charpoly_fields_oracle(a, m, q, resolution):
    phis = divisor_phis_by_pairs(m)
    values, exact = local_values_oracle(a, list(phis), resolution, q)
    exps = {k: v[q] for k, v in values.items()}
    return (tuple((k, e) for k, e in exps.items() if e), charpoly_oracle(exps),
            greedy_tk_oracle(exps), exact)


def charpoly_fields(a, m, q, resolution):
    report = monodromy_charpoly(a, m, q, resolution)
    return report.exponents, report.expanded.coeffs, report.tk_factors, report.exact


def test_charpoly_with_assertions_matches_dense_products(ceva3):
    for a, resolution in asserted_cases(ceva3):
        for m in (1, 3, 6, 7, 9, 12, 14, 18, 21, 42):
            asserted = visited(resolution, divisors(m))
            for q in range(a.ell + 1):
                got = outcome(charpoly_fields, a, m, q, asserted)
                assert got == outcome(charpoly_fields_oracle, a, m, q, asserted), (m, q)


def zeta_fields_oracle(a, q, resolution):
    values, exact = local_values_oracle(a, range(1, a.n + 1), resolution, q)
    terms = tuple((k, euler_phi(k) * v[q]) for k, v in values.items() if v[q])
    return terms, beta(a) if q == a.ell else 0, exact


def zeta_fields(a, q, resolution):
    report = zeta_coefficients(a, q, resolution)
    return report.finite_terms, report.tail_beta, report.exact


def test_zeta_with_assertions_matches_per_divisor_terms(ceva3):
    for a, resolution in asserted_cases(ceva3):
        for q in range(a.ell + 1):
            got = outcome(zeta_fields, a, q, resolution)
            assert got == outcome(zeta_fields_oracle, a, q, resolution), q


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
        fake = ({k: (0, e) for k, e in exps.items()}, ks, True)
        monkeypatch.setattr(covers, "_local_values", lambda *args: fake)
        report = monodromy_charpoly(selberg, 12, 1)
        assert report.expanded.coeffs == charpoly_oracle(exps)
        assert report.tk_factors == greedy_tk_oracle(exps)
        seen_none += report.tk_factors is None
    assert seen_none > 0

