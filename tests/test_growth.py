"""Aim 3's growth contract, checked by counts rather than timings.

What the package keeps grows with the arrangements alive, never with the
arrangements seen: every value derived from an arrangement, or from its
algebra, is held under that value by one owner (record.derived) and
dropped when it is collected.  A caller that analyses many inputs one after
another, dropping each, is left with nothing.  The work of a cover grows
with n and ell, never with m: m is factorised once, only k = 1 and the
resonant divisors of m reach local_betti, the coefficient updates of
tk_product do not grow with the d of its factors, and a characteristic
polynomial above MAX_EXPANDED_DEGREE is not expanded.  A sweep ranks at
most one candidate per cube representative, and beyond MAX_ENUMERATION it
draws the zero shift alone.  The upper bound ranks each prime once per
arrangement, whatever the number of k it divides.
"""

import gc
import sys
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

from arrcover import arrangement, catalog, covers, cyclofield, record
from arrcover.arrangement import Hyperplane, build
from arrcover.covers import (
    MAX_ENUMERATION,
    _bound_intervals,
    _local_table,
    cover_betti,
    cube_representatives,
    local_betti,
    monodromy_charpoly,
)
from arrcover.cyclofield import cyc_reduce, divisor_phis, tk_product
from arrcover.exactlin import CERTIFICATE_PRIME, packed
from arrcover.osalgebra import OSAlgebra, os_algebra
from bench_inputs import braid_decone

SEEDS = range(20)


def test_dropped_arrangements_leave_no_derived_values():
    lattices = arrangement.closure_lattice.cache_info().misses
    refs, ids = [], []
    for seed in SEEDS:
        a = braid_decone(5, seed)
        for k in range(1, a.n + 1):
            local_betti(a, k)
        # the divisors 1, 2 and 4 of braid A4 decones are resolved
        assert cover_betti(a, 4).exact
        # the algebra's packed generators are held by the owner, under the
        # algebra, not on it
        assert id(os_algebra(a)) in record._derived
        refs.append(weakref.ref(a))
        ids += [id(a), id(os_algebra(a))]
        del a
    gc.collect()
    assert [seed for seed, ref in zip(SEEDS, refs) if ref() is not None] == []
    # no arrangement or algebra created since can hold one of these ids
    assert [i for i in ids if i in record._derived] == []
    # each input built its lattice once, for its nine k and its cover
    assert arrangement.closure_lattice.cache_info().misses == lattices + len(SEEDS)


def test_threads_that_miss_together_share_the_first_value():
    computed = []

    @record.derived
    def probe(a, k):
        computed.append(k)
        time.sleep(0.001)  # let the other threads miss too
        return object()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(5):
            a = braid_decone(5, seed)
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(probe, a, i % 2) for i in range(32)]
                got = [future.result(timeout=10) for future in futures]
            assert got[0::2] == [got[0]] * 16 and got[1::2] == [got[1]] * 16
            assert got[0] is not got[1]
            # every call that computed was counted, and a's values go with it
            assert probe.cache_info().misses == len(computed)
            key = id(a)
            del a
            assert key not in record._derived
    finally:
        sys.setswitchinterval(interval)


def test_threads_that_pack_together_share_the_first_packing():
    hessian = os_algebra(catalog.get("hessian-decone").arrangement)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            # an equal algebra that has derived nothing yet
            algebra = OSAlgebra(hessian.bases, hessian.generators)
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(packed, algebra, CERTIFICATE_PRIME) for _ in range(4)]
                got = [future.result(timeout=60) for future in futures]
            assert all(value is got[0] for value in got)
            assert got[0] == packed(hessian, CERTIFICATE_PRIME)
    finally:
        sys.setswitchinterval(interval)


# 10^18 + 3 is prime: trial division runs to its limit of 10^6 before the
# Miller-Rabin test accepts the cofactor, so one factorisation takes about
# 0.1 s and a second one would double the work of a cover at this m.
LARGE_PRIME = 10**18 + 3


def count_factorizations(monkeypatch, m):
    calls = []
    factorize = cyclofield.factorize

    def counted(k):
        calls.append(k)
        return factorize(k)

    monkeypatch.setattr(cyclofield, "factorize", counted)
    return lambda: calls.count(m)


def test_cover_betti_factorises_m_once(monkeypatch, selberg):
    factorizations = count_factorizations(monkeypatch, LARGE_PRIME)
    report = cover_betti(selberg, LARGE_PRIME)
    assert factorizations() == 1
    assert report.betti == (1, 5, 2 * LARGE_PRIME + 4) and report.exact


def test_charpoly_factorises_m_once_and_expands_nothing(monkeypatch, selberg):
    factorizations = count_factorizations(monkeypatch, LARGE_PRIME)
    products = []
    tk_product = covers.tk_product

    def counted(factors):
        products.append(factors)
        return tk_product(factors)

    monkeypatch.setattr(covers, "tk_product", counted)
    report = monodromy_charpoly(selberg, LARGE_PRIME, 2)
    assert factorizations() == 1
    # the degree, b_2(X_m) = 2m + 4, is above MAX_EXPANDED_DEGREE
    assert report.expanded is None and products == []
    assert report.exponents == ((1, 6), (LARGE_PRIME, 2))


def test_tk_product_updates_do_not_grow_with_d(monkeypatch):
    updates = []
    add = cyclofield.add

    def counted(x, y):
        updates.append(None)
        return add(x, y)

    monkeypatch.setattr(cyclofield, "add", counted)
    counts = {}
    for d in (5040, 10**5):
        updates.clear()
        p = tk_product({1: 3, 3: 1, d: 2})
        counts[d] = len(updates)
        # (t - 1)^3 (t^3 - 1) (t^(2d) - 2 t^d + 1)
        assert p.degree == 6 + 2 * d and p.coeffs[:7] == (1, -3, 3, -2, 3, -3, 1)
        assert p.coeffs[d:d + 7] == (-2, 6, -6, 4, -6, 6, -2)
    # (f + 1) * len(c) per factor, 4 + 8 + 21 = 33, however large d is
    assert 0 < counts[5040] == counts[10**5]


def test_cover_betti_reads_local_betti_at_the_resonant_divisors_only(monkeypatch,
                                                                     hessian_decone):
    m = 9699690  # 2 * 3 * 5 * ... * 19: 256 divisors
    phis = divisor_phis(m)
    expected = cover_betti(hessian_decone, m)
    called = []

    def counted(a, k, extra_shifts=()):
        called.append(k)
        return local_betti(a, k, extra_shifts)

    monkeypatch.setattr(covers, "local_betti", counted)
    report = cover_betti(hessian_decone, m)
    assert len(phis) == 256
    assert called == [1] + sorted(_local_table(hessian_decone)[0] & set(phis))
    assert report == expected
    # the values at every divisor, read one at a time
    by_divisor = [(k, tuple(iv.value for iv in local_betti(hessian_decone, k))) for k in phis]
    assert report.charpoly_exponents == tuple(by_divisor)
    assert report.betti == tuple(sum(phis[k] * v[q] for k, v in by_divisor)
                                 for q in range(hessian_decone.ell + 1))


def count_ranks(monkeypatch):
    ranked = []
    cohomology_Q = covers.cohomology_Q

    def counted(complex_, lower=None):
        ranked.append(complex_.weights)
        return cohomology_Q(complex_, lower)

    monkeypatch.setattr(covers, "cohomology_Q", counted)
    return ranked


def test_a_sweep_ranks_at_most_one_candidate_per_cube_representative(monkeypatch,
                                                                    catalog_arrangements):
    ranked = count_ranks(monkeypatch)
    inputs = [*catalog_arrangements.values(), braid_decone(5, 7)]
    for a in inputs:
        representatives = sum(len(cube_representatives(a, size)) for size in range(a.n + 1))
        for k in sorted(_local_table(a)[0]):
            ranked.clear()
            _bound_intervals.__wrapped__(a, k, ())
            assert len(ranked) <= representatives, (a.n, k)


def test_each_prime_of_the_upper_bound_is_ranked_once(monkeypatch):
    # braid A4 decone: k = 2, 3 and 6 use the F_2 and F_3 dims of the
    # all-ones complex, one cohomology_modN pass per prime
    a = braid_decone(5, 7)
    assert _local_table(a)[0] == {2, 3, 6}
    primes = []
    cohomology_modN = covers.cohomology_modN

    def counted(complex_, N):
        primes.append(N)
        return cohomology_modN(complex_, N)

    monkeypatch.setattr(covers, "cohomology_modN", counted)
    for k in (2, 3, 6):
        local_betti(a, k)
    assert primes == [2, 3]


def pencil(n):
    """n lines through the origin of C^2, y = s * x for s = 0..n-1."""
    def q(c):
        return cyc_reduce([c], 1)

    return build(2, 1, [Hyperplane(q(0), (q(s), q(-1))) for s in range(n)])


def test_a_sweep_beyond_max_enumeration_draws_the_zero_shift_alone(monkeypatch):
    a = pencil(MAX_ENUMERATION + 1)
    assert _local_table(a)[0] == {a.n}
    ranked = count_ranks(monkeypatch)
    drawn = []
    candidates = covers._candidates

    def counted(a, extra_shifts):
        for shift in candidates(a, extra_shifts):
            drawn.append(shift)
            yield shift

    monkeypatch.setattr(covers, "_candidates", counted)
    intervals = _bound_intervals.__wrapped__(a, a.n, ())
    assert drawn == [(0,) * a.n]
    # the rule decides the zero shift's dims, (0, 0, beta) = (0, 0, 0), with
    # no rank; the shifts of one -1 would close both degrees at n - 2
    assert ranked == []
    assert [(iv.lower, iv.upper) for iv in intervals] == [(0, 0), (0, a.n - 2), (0, a.n - 2)]
