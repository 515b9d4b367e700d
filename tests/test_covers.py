"""Nonresonance, Betti intervals, cover reports, periodicity, zeta."""

import json
import random
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest

from arrcover import catalog, covers, cyclofield
from arrcover.arrangement import (
    Hyperplane,
    betti_numbers,
    beta,
    build,
    decone,
    euler_characteristic,
    poincare_polynomial,
)
from arrcover.covers import (
    MAX_ENUMERATION,
    UnresolvedBettiError,
    WeightSystem,
    _bound_intervals,
    _candidates,
    automorphisms,
    cover_betti,
    fast_nonresonant,
    local_betti,
    monodromy_charpoly,
    periodicity,
    resolve,
    stv_nonresonant,
    zeta_coefficients,
)
from arrcover.cyclofield import (
    IntPoly,
    cyc_reduce,
    cyclotomic_polynomial,
    euler_phi,
)
from arrcover.cli import main
from arrcover.exactlin import cohomology_Q
from arrcover.osalgebra import aomoto_matrices
from bench_inputs import braid_decone
from divisors import divisors
from test_geometry_oracle import braid_a4_decone

# asserted closures for the one genuinely open catalog case (Ceva(3), k = 3);
# the q=1 value is the known rank over Z_3, the others follow from the
# product structure of the central complement
CEVA3_K3 = {(3, 1): 2, (3, 2): 13, (3, 3): 11}


# ---------------------------------------------------------------------------
# Nonresonance.
# ---------------------------------------------------------------------------

def test_stv_selberg(selberg):
    assert stv_nonresonant(selberg, WeightSystem.uniform(5, 2))
    assert not stv_nonresonant(selberg, WeightSystem.uniform(5, 3))


def test_stv_zero_weights_resonant(selberg, maclane_decone):
    for a in (selberg, maclane_decone):
        zero = WeightSystem((0,) * a.n, 1)
        assert not stv_nonresonant(a, zero)


def test_fast_selberg(selberg):
    assert fast_nonresonant(selberg, 6)  # 6 > |A|
    assert fast_nonresonant(selberg, 2)  # gcd(3, 2) = 1 at all dense edges
    assert not fast_nonresonant(selberg, 3)


def test_fast_hessian(hessian_decone):
    assert not fast_nonresonant(hessian_decone, 2)
    assert fast_nonresonant(hessian_decone, 3)


def test_fast_rejects_zero(selberg):
    with pytest.raises(ValueError):
        fast_nonresonant(selberg, 0)


def test_stv_sharper_than_fast(hessian_decone, maclane_decone):
    # k = 6 fails the gcd test but passes the dense-edge weight test
    for a in (hessian_decone, maclane_decone):
        assert not fast_nonresonant(a, 6)
        assert stv_nonresonant(a, WeightSystem.uniform(a.n, 6))


# ---------------------------------------------------------------------------
# Local Betti intervals.
# ---------------------------------------------------------------------------

def test_local_betti_trivial_system(catalog_arrangements):
    for a in catalog_arrangements.values():
        intervals = local_betti(a, 1)
        assert all(iv.resolved for iv in intervals)
        assert tuple(iv.value for iv in intervals) == betti_numbers(a)


def test_local_betti_selberg_k3(selberg):
    intervals = local_betti(selberg, 3)
    assert [iv.resolved for iv in intervals] == [True, True, True]
    assert [iv.value for iv in intervals] == [0, 1, 3]
    assert intervals[1].witness_shift == (0, 0, -1, 0, 0)


def test_local_betti_hessian_resonant(hessian_decone):
    for k in (2, 4):
        intervals = local_betti(hessian_decone, k)
        assert [iv.value for iv in intervals] == [0, 2, 20]
        assert intervals[1].witness_shift is not None
        assert set(intervals[1].witness_shift) <= {-1, 0}


def test_local_betti_ceva3_k3_unresolved(ceva3):
    intervals = local_betti(ceva3, 3)
    q1 = intervals[1]
    assert not q1.resolved
    assert q1.upper == 2
    assert q1.lower <= 1
    assert sum(1 for iv in intervals if not iv.resolved) >= 2


def test_local_betti_nonresonant_shortcut(selberg, maclane_decone, hessian_decone):
    cases = [(selberg, 2), (selberg, 5), (maclane_decone, 5), (hessian_decone, 3)]
    for a, k in cases:
        intervals = local_betti(a, k)
        expected = [0] * a.ell + [beta(a)]
        assert [iv.value for iv in intervals] == expected


def test_resolve_shares_one_set_of_nonresonant_intervals(selberg):
    # k = 6, 7, 10 exceed n = 5, so all three are nonresonant
    visited = list(resolve(selberg, (1, 6, 7, 10)))
    shared = visited[1][1]
    assert all(intervals is shared for _, intervals, _ in visited[2:])
    assert [iv.value for iv in shared] == [0, 0, beta(selberg)]
    # separate calls, and k = 2 and 4 below n, read the same tuples
    assert local_betti(selberg, 2) is shared
    assert next(resolve(selberg, (4,)))[1] is shared
    assert local_betti(selberg, 1) is visited[0][1] != shared
    assert local_betti(selberg, 3) != shared


def test_bounds_bracket_nonresonant_values(selberg, maclane_decone):
    # run the bound machinery even where vanishing applies; it must bracket
    for a, k in ((selberg, 2), (selberg, 4), (maclane_decone, 7)):
        expected = [0] * a.ell + [beta(a)]
        intervals = _bound_intervals(a, k, ())
        for iv, value in zip(intervals, expected):
            assert iv.lower <= value <= iv.upper
            if iv.resolved:
                assert iv.value == value


def test_interval_invariants(ceva3):
    for iv in local_betti(ceva3, 3):
        assert 0 <= iv.lower <= iv.upper
        with pytest.raises(ValueError):
            type(iv)(iv.degree, 2, 1, False)


# ---------------------------------------------------------------------------
# Cover Betti numbers.
# ---------------------------------------------------------------------------

def test_cover_betti_trivial(catalog_arrangements):
    for a in catalog_arrangements.values():
        report = cover_betti(a, 1)
        assert report.betti == betti_numbers(a)
        assert report.exact


def test_cover_betti_maclane_milnor_fiber(maclane_decone):
    assert cover_betti(maclane_decone, 8).betti == (1, 7, 62)


def test_cover_betti_selberg_braid(selberg):
    assert cover_betti(selberg, 6).betti == (1, 7, 18)


def test_cover_betti_selberg_coprime(selberg):
    for m in (1, 2, 4, 5, 7, 8):
        expected = (1, 5, 6) if m == 1 else (1, 5, 4 + 2 * m)
        assert cover_betti(selberg, m).betti == expected


def test_cover_betti_hessian_milnor_fiber(hessian_decone):
    report = cover_betti(hessian_decone, 12)
    assert report.betti == (1, 17, 232)
    assert report.exact


def test_cover_betti_unresolved_raises(ceva3):
    with pytest.raises(UnresolvedBettiError) as info:
        cover_betti(ceva3, 3)
    assert info.value.k == 3
    degrees = [iv.degree for iv in info.value.intervals]
    assert 1 in degrees


def test_degree_q_reports_ignore_open_intervals_in_other_degrees(ceva3):
    # b_1(L_k) is resolved at every k of this decone, while L_6 leaves
    # q = 2 in [0..2] and q = 3 in [6..8] open
    a = braid_decone(5, 7)
    assert zeta_coefficients(a, 1).finite_terms == ((1, 9),)
    assert monodromy_charpoly(a, 6, 1).tk_factors == ((1, 9),)
    # Ceva(3) leaves only q = 1, 2, 3 open at k = 3
    assert zeta_coefficients(ceva3, 0).finite_terms == ((1, 1),)
    assert monodromy_charpoly(ceva3, 3, 0).tk_factors == ((1, 1),)
    # a read degree that is open still raises, with every open interval at k
    for report in (lambda: zeta_coefficients(a, 2), lambda: cover_betti(a, 6)):
        with pytest.raises(UnresolvedBettiError) as info:
            report()
        assert info.value.k == 6
        assert [(iv.degree, iv.lower, iv.upper) for iv in info.value.intervals] == [
            (2, 0, 2), (3, 6, 8)]


def test_cover_betti_with_assertions(ceva3):
    report = cover_betti(ceva3, 3, resolution=CEVA3_K3)
    assert not report.exact
    base = betti_numbers(ceva3)
    expected = tuple(
        base[q] + euler_phi(3) * (0, 2, 13, 11)[q] for q in range(4)
    )
    assert report.betti == expected


def test_assertion_outside_interval_rejected(ceva3):
    with pytest.raises(ValueError, match="outside"):
        cover_betti(ceva3, 3, resolution={(3, 1): 5, (3, 2): 13, (3, 3): 11})
    with pytest.raises(ValueError, match="outside"):
        cover_betti(ceva3, 3, resolution={(3, 1): 0, (3, 2): 13, (3, 3): 11})


def test_assertion_contradicting_resolved_value_rejected(selberg):
    # b_1(L_3) resolves to 1; a conflicting assertion is an error, not a noop
    with pytest.raises(ValueError, match="outside"):
        cover_betti(selberg, 3, resolution={(3, 1): 2})


def test_assertion_breaking_euler_characteristic_rejected(ceva3):
    # each value lies in its interval; the alternating sum is 1, chi(M) is 0
    with pytest.raises(ValueError, match=r"Euler characteristic 1, but chi\(M\) = 0"):
        cover_betti(ceva3, 3, resolution={(3, 1): 1, (3, 2): 13, (3, 3): 11})
    with pytest.raises(ValueError, match="Euler characteristic"):
        periodicity(ceva3, {(3, 1): 2, (3, 2): 12, (3, 3): 11})


def test_assertion_at_unvisited_k_rejected(selberg):
    # 5 does not divide 6, so cover_betti never visits L_5
    with pytest.raises(ValueError, match=r"k=5 is not one of the visited k \(1, 2, 3, 6\)"):
        cover_betti(selberg, 6, {(5, 1): 3})


def test_cover_report_exponent_sum(selberg, maclane_decone):
    for a, m in ((selberg, 6), (selberg, 12), (maclane_decone, 8)):
        report = cover_betti(a, m)
        for q in range(a.ell + 1):
            total = sum(euler_phi(k) * dims[q] for k, dims in report.charpoly_exponents)
            assert total == report.betti[q]
        assert dict(report.charpoly_exponents)[1][1] == betti_numbers(a)[1]


# ---------------------------------------------------------------------------
# Monodromy characteristic polynomials.
# ---------------------------------------------------------------------------

def test_charpoly_hessian_q1(hessian_decone):
    report = monodromy_charpoly(hessian_decone, 12, 1)
    assert dict(report.exponents) == {1: 11, 2: 2, 4: 2}
    assert report.tk_factors == ((1, 9), (4, 2))
    expected = (
        cyclotomic_polynomial(1).pow(9)
        * (cyclotomic_polynomial(1) * cyclotomic_polynomial(2) * cyclotomic_polynomial(4)).pow(2)
    )
    assert report.expanded == expected


def test_charpoly_hessian_q2(hessian_decone):
    report = monodromy_charpoly(hessian_decone, 12, 2)
    assert dict(report.exponents) == {1: 28, 2: 20, 3: 18, 4: 20, 6: 18, 12: 18}
    assert report.tk_factors == ((1, 8), (4, 2), (12, 18))


def test_charpoly_trivial_cover(catalog_arrangements):
    for a in catalog_arrangements.values():
        b = betti_numbers(a)
        for q in range(a.ell + 1):
            report = monodromy_charpoly(a, 1, q)
            assert dict(report.exponents) == ({1: b[q]} if b[q] else {})
            assert report.expanded == cyclotomic_polynomial(1).pow(b[q])


def test_charpoly_selberg_large_m(selberg):
    report = monodromy_charpoly(selberg, 5040, 2)
    assert report.tk_factors == ((1, 3), (3, 1), (5040, 2))
    t_minus_1 = IntPoly((-1, 1))
    expected = (t_minus_1.pow(3) * IntPoly((-1, 0, 0, 1))
                * IntPoly((-1,) + (0,) * 5039 + (1,)).pow(2))
    assert report.expanded == expected
    assert report.expanded.degree == 10086 == cover_betti(selberg, 5040).betti[2]


def test_charpoly_beyond_expansion_bound(selberg):
    # Delta_2 of X_(10^9) has degree 2*10^9 + 4: no coefficient list is built
    report = monodromy_charpoly(selberg, 10**9, 2)
    assert report.expanded is None
    assert report.exponents == ((1, 6),) + tuple((k, 2) for k in divisors(10**9)[1:])
    assert report.tk_factors == ((1, 4), (10**9, 2))
    # 3 | 499998, so b_2(X_m) = 2m + 6 = 10^6 + 2, just over the bound
    assert cover_betti(selberg, 499998).betti[2] == covers.MAX_EXPANDED_DEGREE + 2
    assert monodromy_charpoly(selberg, 499998, 2).expanded is None


def test_charpoly_expansion_bound_is_inclusive(selberg, monkeypatch):
    full = monodromy_charpoly(selberg, 6, 2)
    assert full.expanded.degree == 18
    monkeypatch.setattr(covers, "MAX_EXPANDED_DEGREE", 18)
    assert monodromy_charpoly(selberg, 6, 2) == full
    monkeypatch.setattr(covers, "MAX_EXPANDED_DEGREE", 17)
    cut = monodromy_charpoly(selberg, 6, 2)
    assert cut.expanded is None
    assert (cut.exponents, cut.tk_factors) == (full.exponents, full.tk_factors)


def test_charpoly_degree_identity(selberg, maclane_decone, hessian_decone):
    cases = [(selberg, range(1, 13)), (maclane_decone, range(1, 13)),
             (hessian_decone, (2, 4, 6, 12))]
    for a, ms in cases:
        for m in ms:
            report = cover_betti(a, m)
            for q in range(a.ell + 1):
                cp = monodromy_charpoly(a, m, q)
                assert cp.expanded.degree == report.betti[q]


# ---------------------------------------------------------------------------
# Periodicity.
# ---------------------------------------------------------------------------

def test_periodicity_selberg(selberg):
    report = periodicity(selberg)
    assert report.period == 60
    for cls in report.classes:
        if 3 in cls.divisors:
            assert cls.constants == (7,)
            assert (cls.top_slope, cls.top_constant) == (2, 6)
        else:
            assert cls.constants == (5,)
            assert (cls.top_slope, cls.top_constant) == (2, 4)


def test_periodicity_maclane(maclane_decone):
    report = periodicity(maclane_decone)
    assert report.period == 420
    polys = {(cls.constants, cls.top_slope, cls.top_constant) for cls in report.classes}
    assert polys == {((7,), 7, 6)}


def test_periodicity_generic_sixteen_lines():
    # 1 + x X + x^2 Y for x = 1..16: duals of points on a conic, so generic
    one = cyc_reduce([1], 1)
    lines = [
        Hyperplane(one, (cyc_reduce([x], 1), cyc_reduce([x * x], 1)))
        for x in range(1, 17)
    ]
    report = periodicity(build(2, 1, lines))
    assert report.period == 720720
    assert len(report.classes) == 240
    assert report.betti(720720) == (1, 16, 105 * 720720 - 1 + 16)


def test_periodicity_betti_rejects_nonpositive_m(selberg):
    report = periodicity(selberg)
    for m in (0, -5):
        with pytest.raises(ValueError, match="m must be >= 1"):
            report.betti(m)


def test_periodicity_class_rejects_wrong_ell(selberg):
    cls = periodicity(selberg).classes[0]
    assert len(cls.betti(4, 2)) == 3
    for ell in (1, 3):
        with pytest.raises(ValueError, match="constants"):
            cls.betti(4, ell)


def test_periodicity_cross_check_selberg(selberg):
    report = periodicity(selberg)
    for m in range(1, 31):
        assert report.betti(m) == cover_betti(selberg, m).betti


def test_periodicity_same_pattern_same_polynomials(selberg):
    report = periodicity(selberg)
    seen = {}
    for cls in report.classes:
        key = cls.divisors
        value = (cls.constants, cls.top_slope, cls.top_constant)
        assert seen.setdefault(key, value) == value


def test_periodicity_top_slope_is_beta(selberg, maclane_decone, hessian_decone):
    for a in (selberg, maclane_decone, hessian_decone):
        report = periodicity(a)
        assert all(cls.top_slope == beta(a) for cls in report.classes)


# ---------------------------------------------------------------------------
# Zeta coefficients.
# ---------------------------------------------------------------------------

def test_zeta_selberg(selberg):
    report = zeta_coefficients(selberg, 1)
    assert report.finite_terms == ((1, 5), (3, 2))
    assert report.tail_beta == 0
    top = zeta_coefficients(selberg, 2)
    assert top.tail_beta == 2
    assert top.finite_terms[0] == (1, 6)


def test_zeta_hessian(hessian_decone):
    report = zeta_coefficients(hessian_decone, 1)
    assert report.finite_terms == ((1, 11), (2, 2), (4, 4))
    assert report.tail_beta == 0


def test_zeta_maclane(maclane_decone):
    report = zeta_coefficients(maclane_decone, 1)
    assert report.finite_terms == ((1, 7),)
    assert report.tail_beta == 0


def test_zeta_degree_zero(selberg):
    report = zeta_coefficients(selberg, 0)
    assert report.finite_terms == ((1, 1),)
    assert report.tail_beta == 0


# ---------------------------------------------------------------------------
# Structural properties of the cover family.
# ---------------------------------------------------------------------------

def _computable_ms(a, key, upto=12):
    if key == "ceva3":
        return [m for m in range(1, upto + 1) if m % 3 != 0]
    return list(range(1, upto + 1))


def test_cover_betti_selberg_large_m(selberg):
    m = 10**7  # not divisible by 3, so b_1 = 5 (README zeta row)
    report = cover_betti(selberg, m)
    assert report.betti == (1, 5, 2 * m - 1 + 5)
    chi = sum((-1) ** q * v for q, v in enumerate(report.betti))
    assert chi == m * euler_characteristic(selberg)
    assert len(report.charpoly_exponents) == 64


def test_cover_betti_selberg_large_prime_m(selberg):
    m = 10**18 + 3  # prime, past trial division: Miller-Rabin certifies it
    assert cover_betti(selberg, m).betti == (1, 5, 2 * m + 4)


@pytest.fixture
def factored(monkeypatch):
    """The arguments of every factorize call made while the test runs."""
    calls = []
    original = cyclofield.factorize

    def counting(k):
        calls.append(k)
        return original(k)

    monkeypatch.setattr(cyclofield, "factorize", counting)
    return calls


def test_cover_betti_factors_m_once(selberg, factored):
    # phi of every divisor comes from the one factorisation of m
    m = 10**18 + 3
    assert cover_betti(selberg, m).betti == (1, 5, 2 * m + 4)
    assert factored.count(m) == 1


def test_charpoly_factors_m_once(selberg, factored):
    # the divisors, phi, the Mobius step and the degree share one factorisation
    m = 10**18 + 3
    report = monodromy_charpoly(selberg, m, 2)
    assert factored.count(m) == 1
    assert report.exponents == ((1, 6), (m, 2))
    assert report.tk_factors == ((1, 4), (m, 2))
    assert report.expanded is None


def test_charpoly_cli_factors_m_once(selberg, factored, capsys):
    m = 10**18 + 3
    assert main(["charpoly", "--catalog", "selberg", "--m", str(m), "--q", "2"]) == 0
    assert factored.count(m) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["exponents"] == [[1, 6], [m, 2]]
    assert payload["tk_factors"] == [[1, 4], [m, 2]]
    assert payload["expanded"] is None
    assert payload["degree"] == cover_betti(selberg, m).betti[2]


def test_euler_identity_for_covers(catalog_arrangements):
    for key, a in catalog_arrangements.items():
        chi = euler_characteristic(a)
        for m in _computable_ms(a, key):
            b = cover_betti(a, m).betti
            assert sum((-1) ** q * v for q, v in enumerate(b)) == m * chi


def test_divisor_monotonicity(catalog_arrangements):
    for key, a in catalog_arrangements.items():
        ms = _computable_ms(a, key)
        reports = {m: cover_betti(a, m).betti for m in ms}
        for k in ms:
            for m in ms:
                if m % k == 0:
                    assert all(x <= y for x, y in zip(reports[k], reports[m]))


def test_cover_reports_decone_choice_invariant():
    central = catalog.maclane_central()
    reference = None
    for at in (0, 3, 7):
        a = decone(central, at)
        report = cover_betti(a, 6)
        profile = (report.betti, report.charpoly_exponents, report.exact)
        if reference is None:
            reference = profile
        else:
            assert profile == reference


def test_hessian_decone_choice_invariant_intervals():
    central = catalog.hessian_central()
    for k in (2, 4):
        profiles = []
        for at in (0, 1):
            a = decone(central, at)
            profiles.append(tuple(iv.value for iv in local_betti(a, k)))
        assert profiles[0] == profiles[1] == (0, 2, 20)


def test_shift_search_accepts_extra_shifts(selberg):
    intervals = local_betti(selberg, 3, ((0, 0, -1, 0, 0),))
    assert intervals[1].value == 1


# k = 2 is nonresonant and k = 1 trivial, so no sweep runs there; at k = 3
# the first shift resolves every degree before the second is reached
@pytest.mark.parametrize("k, shifts", [
    (2, ((1, 2),)),
    (1, ((1, 2),)),
    (3, ((0, 0, -1, 0, 0), (1, 2))),
])
def test_wrong_length_shift_is_rejected_at_every_k(selberg, k, shifts):
    with pytest.raises(ValueError, match=r"^shift \(1, 2\) has length 2, expected 5$"):
        local_betti(selberg, k, shifts)


@pytest.mark.parametrize("entry", [1.5, "2", -0.9, float("inf"), float("nan"), None, "x"])
def test_non_integer_entry_is_rejected(selberg, entry):
    # int() would truncate 1.5 and -0.9 to a shift or weight never given, and
    # raises on inf, nan, None and "x" without naming the entry
    message = rf"^entry 4, {re.escape(repr(entry))}, is not an integer$"
    for k in (1, 3):
        with pytest.raises(ValueError, match=message):
            local_betti(selberg, k, ((0, 0, 0, 0, entry),))
    with pytest.raises(ValueError, match=message):
        aomoto_matrices(selberg, (1, 1, 1, 1, entry))
    with pytest.raises(ValueError, match=message):
        WeightSystem((1, 1, 1, 1, entry), 3)


def test_integral_entries_still_pass(selberg):
    weights = (1, True, Fraction(2), 2.0, 1)
    complex_ = aomoto_matrices(selberg, weights)
    assert complex_.weights == (1, 1, 2, 2, 1)
    assert all(type(w) is int for w in complex_.weights)
    shift = (0, False, Fraction(-1), 0.0, 0)
    assert local_betti(selberg, 3, (shift,)) == local_betti(selberg, 3, ((0, 0, -1, 0, 0),))


def fake_sweep(monkeypatch, upper, dims):
    """Make every mod-k bound read upper and every shift rank to dims."""
    monkeypatch.setattr(covers, "cohomology_modN",
                        lambda complex_, k: SimpleNamespace(dims=upper))
    monkeypatch.setattr(covers, "cohomology_Q",
                        lambda complex_, lower=None: SimpleNamespace(dims=dims))


# (upper, dims every shift ranks to, the Euler-forced value) with one degree
# open after the sweep, q = 3 and then q = 2; chi = b0 - b1 + b2 - b3 = -6
EULER_CLOSURES = [((0, 1, 5, 12), (0, 1, 5, 7), 10), ((0, 1, 20, 14), (0, 1, 3, 14), 9)]


@pytest.mark.parametrize("upper,dims,forced", EULER_CLOSURES, ids=["q3", "q2"])
def test_euler_closure_forces_the_one_open_degree(monkeypatch, upper, dims, forced):
    a = braid_a4_decone()
    assert (a.ell, euler_characteristic(a)) == (3, -6)
    fake_sweep(monkeypatch, upper, dims)
    intervals = _bound_intervals.__wrapped__(a, 6, ())
    assert [(iv.lower, iv.upper, iv.resolved) for iv in intervals] == [
        (dims[q], dims[q], True) if dims[q] == upper[q] else (forced, forced, True)
        for q in range(4)
    ]


@pytest.mark.parametrize("upper,dims,message", [
    ((0, 1, 5, 9), (0, 1, 5, 7), "value 10 escapes [7..9] at q=3"),
    ((0, 1, 20, 14), (0, 1, 10, 14), "value 9 escapes [10..20] at q=2"),
], ids=["q3", "q2"])
def test_euler_forced_value_outside_the_interval_is_an_error(monkeypatch, upper, dims, message):
    fake_sweep(monkeypatch, upper, dims)
    with pytest.raises(ArithmeticError, match=re.escape(f"Euler-forced {message}")):
        _bound_intervals.__wrapped__(braid_a4_decone(), 6, ())


def seventeen_lines():
    """x, y and x - y through one triple point, plus 14 seeded random lines
    in C^2: one hyperplane more than MAX_ENUMERATION."""
    def q(c):
        return cyc_reduce([c], 1)

    rng = random.Random("beyond-enumeration")
    rows = [(0, 1, 0), (0, 0, 1), (0, 1, -1)]
    rows += [tuple(rng.randint(-99, 99) for _ in range(3)) for _ in range(14)]
    return build(2, 1, [Hyperplane(q(c), (q(x), q(y))) for c, x, y in rows])


def test_sweep_beyond_max_enumeration(monkeypatch):
    a = seventeen_lines()
    built = automorphisms.cache_info().misses
    n = a.n
    assert n == MAX_ENUMERATION + 1
    zero = (0,) * n
    # the extra shifts as given, duplicates included, then the zero shift
    extra = ((-1,) + (0,) * 16, (-1,) + (0,) * 16, (2,) + (0,) * 16, zero)
    assert list(_candidates(a, extra)) == [*extra, zero]
    swept = []
    monkeypatch.setattr(covers, "cohomology_Q",
                        lambda complex_, lower=None:
                        swept.append(complex_) or cohomology_Q(complex_, lower))
    intervals = _bound_intervals.__wrapped__(a, 3, ())
    assert [(iv.lower, iv.upper) for iv in intervals] == [(0, 0), (0, 0), (119, 119)]
    assert intervals[2].witness_shift == zero
    assert swept == []
    # every shift closes all degrees here, so the first extra one is the last tried
    swept.clear()
    intervals = _bound_intervals.__wrapped__(a, 3, extra[2:])
    assert intervals[2].witness_shift == extra[2]
    assert swept == [aomoto_matrices(a, (7,) + (1,) * 16)]
    assert automorphisms.cache_info().misses == built


def test_braid_a6_decone_beyond_max_enumeration_ranks_nothing(monkeypatch):
    # n = 20: the zero shift is the only candidate, and the rule decides its
    # dims (0, ..., 0, 120), so every lower bound is the top degree's beta
    a = braid_decone(7, 7)
    assert a.n == 20 > MAX_ENUMERATION
    ranked = []
    monkeypatch.setattr(covers, "cohomology_Q",
                        lambda complex_, lower=None:
                        ranked.append(complex_) or cohomology_Q(complex_, lower))
    prime_2 = [(0, 0)] * 4 + [(0, 10), (120, 130)]
    prime_3 = [(0, 0)] * 2 + [(0, 1), (0, 20), (0, 121), (120, 222)]
    prime_5 = [(0, 0)] * 4 + [(0, 1), (120, 121)]
    expected = {2: prime_2, 3: prime_3, 5: prime_5, 6: prime_3, 10: prime_2, 15: prime_3}
    assert covers._local_table(a)[0] == expected.keys()
    for k, bounds in expected.items():
        intervals = local_betti(a, k)
        assert [(iv.lower, iv.upper) for iv in intervals] == bounds, k
        assert [iv.witness_shift for iv in intervals] == [None] * 5 + [(0,) * a.n], k
    assert ranked == []
