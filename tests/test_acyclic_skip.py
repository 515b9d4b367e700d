"""The dense-edge rule of the shift sweep.

Yuzvinsky (Comm. Algebra 23, 1995; also Orlik-Terao, MSJ Memoirs 9, 2001):
give the hyperplane at infinity the weight w_inf = -sum(w_H); if
w_X = sum(w_H, H >= X) is nonzero on every dense edge X of the projective
closure that lies on some one closure hyperplane H_j (at infinity or not),
the Aomoto complex of w is acyclic below the top degree, so its dims are
(0, ..., 0, beta).  For such a shift of {-1, 0}^n the rule decides the
dims: the sweep ranks nothing, whatever its running lower bound holds, and
uses those dims as it uses ranked ones.  The checks below: the rule against
exact ranks on every orbit representative, the bit-count predicate against
plain weight sums, and the ranks the sweep still makes.  Last, the sweep's
skip: cohomology_Q leaves out the Bareiss rank of a candidate whose F_p
ranks bound its dims by the running lower bound, gives those bounds, and
every candidate so skipped must have exact dims at most that bound.
"""

from itertools import product
from operator import le

import pytest

from arrcover import catalog, covers
from arrcover.arrangement import Hyperplane, beta, build, dense_edges
from arrcover.covers import _acyclic_below_top, _bound_intervals, _local_table, cube_representatives
from arrcover.cyclofield import cyc_reduce
from arrcover.exactlin import cohomology_Q, rank_over_Q
from arrcover.osalgebra import aomoto_matrices
from bench_inputs import braid_decone
from test_geometry_oracle import braid_a4_decone
from test_orbit_sweep_oracle import SWEEPS, arrangement_of, as_tuples, bound_intervals_oracle


def cube_weights(n, k, support):
    return tuple(1 - k * (support >> i & 1) for i in range(n))


def quotas(a, k):
    """The (mask, quota, closure support) triples the sweep reads at k: the
    dense edges of the arrangement's table whose size k divides, with quota
    size // k; an edge at infinity holds the complement of its affine
    support as mask, and its affine support plus bit n as closure support."""
    n = a.n
    return [(mask, size // k, ((1 << n) - 1) ^ mask | 1 << n if at_infinity else mask)
            for mask, size, at_infinity in _local_table(a)[3] if size % k == 0]


def test_certified_representatives_are_acyclic():
    # every orbit representative the rule certifies has the generic dims;
    # a rule that reads only the codim-2 dense edges gives 12 wrong
    # profiles, and one that leaves out the codim-1 ones (the hyperplanes
    # themselves) gives 8
    certified, violations = 0, []
    for key, k in SWEEPS:
        a = arrangement_of(key)
        at_k = quotas(a, k)
        generic = (0,) * a.ell + (beta(a),)
        for size in range(a.n + 1):
            for support in cube_representatives(a, size):
                if _acyclic_below_top(at_k, support, a.n):
                    certified += 1
                    weights = cube_weights(a.n, k, support)
                    dims = cohomology_Q(aomoto_matrices(a, weights)).dims
                    if dims != generic:
                        violations.append((key, k, support, dims))
    assert violations == []
    assert certified == 1376


# ---------------------------------------------------------------------------
# The predicate against plain weight sums.
# ---------------------------------------------------------------------------

def lines(*rows):
    """Lines c + x*X + y*Y = 0 in C^2 over Q, one (c, x, y) per row."""
    def q(c):
        return cyc_reduce([c], 1)

    return build(2, 1, [Hyperplane(q(c), (q(x), q(y))) for c, x, y in rows])


def square():
    """x = 0, x = 1, y = 0, y = 1: each parallel pair meets H_inf in a
    triple point at infinity, {0, 1, inf} and {2, 3, inf}."""
    return lines((0, 1, 0), (-1, 1, 0), (0, 0, 1), (-1, 0, 1))


def triple_point():
    """x = 0, y = 0 and x = y through the origin, plus x + y = 1: the origin
    {0, 1, 2} is the one dense point, and every point at infinity is double."""
    return lines((0, 1, 0), (0, 0, 1), (0, 1, -1), (-1, 1, 1))


def vanishing_edges(a, weights):
    """Supports of the dense closure flats whose weight sum is zero, with
    w_inf = -sum(weights) at closure index n."""
    w = weights + (-sum(weights),)
    return {f.support for f in dense_edges(a).flats()
            if f.dense and sum(w[i] for i in f.support) == 0}


def some_hyperplane_is_free(a, vanishing):
    """Some closure index 0..n lies outside every vanishing support."""
    return bool(set(range(a.n + 1)).difference(*vanishing))


@pytest.mark.parametrize(
    "make,k,support,vanishing",
    [
        # weights (-1, 1, 1, 1), w_inf = -2: only {2, 3, inf} sums to 0, and
        # no vanishing edge lies on H_0 or H_1, so the rule decides the dims
        (square, 2, 0b0001, {(2, 3, 4)}),
        # weights (-2, 1, 1, 1), w_inf = -1: only the origin sums to 0, which
        # leaves x + y = 1 and H_inf free
        (triple_point, 3, 0b0001, {(0, 1, 2)}),
        # weights (-1, -1, 1, 1), w_inf = 0: only H_inf itself sums to 0
        (square, 2, 0b0011, {(4,)}),
        # weights (-1, 1, -1, 1), w_inf = 0: H_inf and both points at
        # infinity, which cover every closure hyperplane: the one shift here
        # the rule leaves to the ranks
        (square, 2, 0b0101, {(4,), (0, 1, 4), (2, 3, 4)}),
        # the zero shift: every affine edge is positive and every edge at
        # infinity negative
        (square, 2, 0b0000, set()),
        (triple_point, 3, 0b0000, set()),
    ],
)
def test_predicate_matches_weight_sums(make, k, support, vanishing):
    a = make()
    assert vanishing_edges(a, cube_weights(a.n, k, support)) == vanishing
    decided = some_hyperplane_is_free(a, vanishing)
    assert decided == (support != 0b0101)
    assert _acyclic_below_top(quotas(a, k), support, a.n) == decided


@pytest.mark.parametrize("make,k", [(square, 2), (square, 4), (triple_point, 3)])
def test_predicate_matches_weight_sums_on_the_whole_cube(make, k):
    a = make()
    at_k = quotas(a, k)
    for bits in product((0, 1), repeat=a.n):
        support = sum(bit << i for i, bit in enumerate(bits))
        expect = some_hyperplane_is_free(a, vanishing_edges(a, cube_weights(a.n, k, support)))
        assert _acyclic_below_top(at_k, support, a.n) == expect


# ---------------------------------------------------------------------------
# The ranks the rule leaves to the sweep.
# ---------------------------------------------------------------------------

def swept_weights(a, k, monkeypatch):
    """The weights of each complex the sweep ranks over Q, in order."""
    weights = []
    monkeypatch.setattr(covers, "cohomology_Q",
                        lambda complex_, lower=None:
                        weights.append(complex_.weights) or cohomology_Q(complex_, lower))
    got = _bound_intervals.__wrapped__(a, k, ())
    assert as_tuples(got) == bound_intervals_oracle(a, k)
    return weights


@pytest.mark.parametrize(
    "make,k,calls",
    [
        # Ceva(3) is central, beta = 0: of the 14 orbit representatives only
        # the one with dims (0, 0, 9, 9) is ranked; the rule decides the
        # other 13, (0, 0, 0, 0)
        (lambda: catalog.get("ceva3").arrangement, 9, 1),
        # all 74 representatives give (0, 0, 0, 6), and the rule decides
        # every one of them
        (braid_a4_decone, 6, 0),
        # the rule decides all but 5 of the shifts the sweep reaches; asking
        # every dense edge to keep nonzero weight leaves 32 to rank
        (lambda: catalog.get("hessian-decone").arrangement, 2, 5),
    ],
)
def test_ranks_made_by_the_sweep(make, k, calls, monkeypatch):
    assert len(swept_weights(make(), k, monkeypatch)) == calls


def test_ranks_made_by_one_benchmark_pass(monkeypatch):
    # the shift-sweep workload of perfbench/worker.py at seed 77: every
    # resonant k of three catalog inputs and the seeded braid A4 decone;
    # asking every dense edge to keep nonzero weight ranks 73 complexes
    arrangements = [catalog.get(key).arrangement
                    for key in ("hessian-decone", "ceva3", "maclane-decone")]
    arrangements.append(braid_decone(5, 77))
    ranked = []
    monkeypatch.setattr(covers, "cohomology_Q",
                        lambda complex_, lower=None:
                        ranked.append(complex_) or cohomology_Q(complex_, lower))
    for a in arrangements:
        for k in sorted(_local_table(a)[0]):
            _bound_intervals.__wrapped__(a, k, ())
    assert len(ranked) == 13


@pytest.mark.parametrize("key,k", [("hessian-decone", 2), ("braid-a4-decone", 3), ("ceva3", 9)])
def test_the_all_ones_complex_is_never_ranked(key, k, monkeypatch):
    # the zero shift comes first and passes the rule at every k, so its dims
    # (0, ..., 0, beta) need no rank, and every complex ranked after it sees
    # beta in the top lower bound already
    a = arrangement_of(key)
    zero = (0,) * a.n
    assert _acyclic_below_top(quotas(a, k), 0, a.n)
    ranked = []
    monkeypatch.setattr(covers, "cohomology_Q",
                        lambda complex_, lower=None:
                        ranked.append((complex_.weights, lower[a.ell]))
                        or cohomology_Q(complex_, lower))
    top = _bound_intervals.__wrapped__(a, k, ())[a.ell]
    assert (1,) * a.n not in [weights for weights, _ in ranked]
    assert ranked and min(lower for _, lower in ranked) == beta(a)
    # with beta > 0 the zero shift is the top degree's first strict
    # improver, and its witness unless a later shift raises the top
    assert (top.witness_shift == zero) == (top.lower == beta(a) > 0)


# ---------------------------------------------------------------------------
# The Bareiss rank cohomology_Q leaves out when F_p ranks bound the dims.
# ---------------------------------------------------------------------------

def exact_dims(complex_):
    """Aomoto dims from the Bareiss rank of every differential."""
    sizes = complex_.dims()
    ranks = [rank_over_Q(complex_.differential(q)) for q in range(len(sizes))] + [0]
    return tuple(n - ranks[q] - (ranks[q - 1] if q else 0) for q, n in enumerate(sizes))


def test_skipped_candidates_raise_no_degree(monkeypatch):
    skipped = {}

    def spy(complex_, lower=None):
        profile = cohomology_Q(complex_, lower)
        if profile.ring == "rationals-upper-bound":
            assert all(map(le, profile.dims, lower))
            skipped.setdefault((key, k), []).append((complex_, tuple(lower)))
        return profile

    monkeypatch.setattr(covers, "cohomology_Q", spy)
    for key, k in SWEEPS:
        _bound_intervals.__wrapped__(arrangement_of(key), k, ())
    for complex_, lower in sum(skipped.values(), []):
        dims = exact_dims(complex_)
        assert all(map(le, dims, lower)), (complex_.weights, dims, lower)
    # Ceva(3) at k = 3: a shift with dims (0, 0, 9, 9) leaves D_2 open
    ceva = skipped[("ceva3", 3)]
    assert [exact_dims(complex_) for complex_, _ in ceva] == [(0, 0, 9, 9)]


def test_lower_only_decides_whether_to_rank():
    # the Ceva(3) shift above: its D_2 is not certified mod p
    complex_ = aomoto_matrices(catalog.get("ceva3").arrangement, (-2, -2, 1, -2, 1, 1, 1, 1, 1))
    exact = ("rationals", (0, 0, 9, 9))
    bounded = ("rationals-upper-bound", (0, 0, 9, 9))
    assert exact_dims(complex_) == exact[1]
    for lower, profile in [(None, exact), ((0, 1, 11, 10), bounded), ((0, 0, 9, 9), bounded),
                           ((0, 0, 8, 9), exact), ((0, 0, 9, 8), exact)]:
        got = cohomology_Q(complex_, lower)
        assert (got.ring, got.dims) == profile, lower
