"""Smith normal form and cohomology over Q and Z_N."""

import random
from fractions import Fraction
from itertools import combinations, islice
from math import gcd

import pytest

from arrcover import catalog
from arrcover.covers import _candidates, is_nonresonant
from arrcover.exactlin import (
    CERTIFICATE_PRIME,
    cohomology_Q,
    cohomology_modN,
    rank_mod_p,
    rank_over_Q,
    smith_normal_form,
)
from arrcover.osalgebra import AomotoComplex, aomoto_matrices
from test_geometry_oracle import braid_a4_decone
from test_modn_oracle import smith_reduce_with_transforms


# ---------------------------------------------------------------------------
# Oracles.
# ---------------------------------------------------------------------------

def det_int(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_int(minor)
    return total


def determinant_divisor_factors(m):
    """Invariant factors from gcds of k x k minors."""
    nr, nc = len(m), len(m[0]) if m else 0
    size = min(nr, nc)
    dets = [1]
    for k in range(1, size + 1):
        g = 0
        for ri in combinations(range(nr), k):
            for ci in combinations(range(nc), k):
                g = gcd(g, det_int([[m[r][c] for c in ci] for r in ri]))
        dets.append(g)
    factors = []
    for k in range(1, size + 1):
        if dets[k] == 0:
            factors.append(0)
        else:
            factors.append(dets[k] // dets[k - 1])
    return tuple(factors)


def rank_fraction_oracle(m):
    rows = [[Fraction(v) for v in row] for row in m]
    rank = 0
    nc = len(rows[0]) if rows else 0
    for col in range(nc):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def bareiss_dims(complex_):
    """n_q - r_q - r_{q-1} with every rank taken by rank_over_Q."""
    ranks = [rank_over_Q(d) for d in complex_.diffs]
    return tuple(
        nq - ranks[q] - (ranks[q - 1] if q > 0 else 0)
        for q, nq in enumerate(complex_.dims())
    )


def complex_of(sizes, *diffs):
    """A complex with the given basis sizes and differentials, plus the
    empty top differential."""
    bases = tuple(tuple((i,) for i in range(n)) for n in sizes)
    return AomotoComplex(bases=bases, diffs=diffs + ((),))


def random_unimodular(rng, n):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(4 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for col in range(n):
            m[i][col] += c * m[j][col]
    return m


def mat_mul(a, b):
    return [
        [sum(a[r][k] * b[k][c] for k in range(len(b))) for c in range(len(b[0]))]
        for r in range(len(a))
    ]


# ---------------------------------------------------------------------------
# Smith normal form.
# ---------------------------------------------------------------------------

def test_snf_identity():
    result = smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert result.invariant_factors == (1, 1, 1)
    assert result.rank == 3


def test_snf_diag_2_3():
    # determinant-divisor oracle: d1 = gcd of entries = 1, d1*d2 = |det| = 6
    result = smith_normal_form([[2, 0], [0, 3]])
    assert result.invariant_factors == (1, 6)


def test_snf_zero_matrix():
    result = smith_normal_form([[0, 0, 0], [0, 0, 0]])
    assert result.rank == 0
    assert all(d == 0 for d in result.invariant_factors)


def test_snf_divisibility_chain_random():
    rng = random.Random(5)
    for _ in range(40):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        factors = smith_normal_form(m).invariant_factors
        nonzero = [d for d in factors if d]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        # zeros trail
        assert list(factors) == nonzero + [0] * (len(factors) - len(nonzero))


def test_snf_matches_determinant_divisor_oracle():
    rng = random.Random(29)
    for _ in range(30):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        assert smith_normal_form(m).invariant_factors == determinant_divisor_factors(m)


def test_snf_right_transform_tracks_inverse():
    # V and W must stay mutually inverse, and M @ V must have column space
    # diagonal: the kernel construction of the Smith-form mod-N oracle
    # depends on both
    rng = random.Random(73)
    for _ in range(25):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        factors, v, w = smith_reduce_with_transforms(m)
        assert factors == smith_normal_form(m).invariant_factors
        identity = [[int(i == j) for j in range(nc)] for i in range(nc)]
        assert mat_mul(v, w) == identity
        assert mat_mul(w, v) == identity
        mv = mat_mul(m, v)
        rank = sum(1 for d in factors if d)
        # columns past the rank are in the kernel of M
        for c in range(rank, nc):
            assert all(mv[r][c] == 0 for r in range(nr))


def test_snf_unimodular_invariance():
    rng = random.Random(41)
    for _ in range(15):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        u = random_unimodular(rng, nr)
        v = random_unimodular(rng, nc)
        transformed = mat_mul(mat_mul(u, m), v)
        assert (
            smith_normal_form(transformed).invariant_factors
            == smith_normal_form(m).invariant_factors
        )


# ---------------------------------------------------------------------------
# Ranks.
# ---------------------------------------------------------------------------

def test_rank_over_Q_matches_fraction_oracle():
    rng = random.Random(59)
    for _ in range(40):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        assert rank_over_Q(m) == rank_fraction_oracle(m)


def test_rank_over_Q_sparse_matrices():
    # zero columns exercise the pivot-skipping path of the fraction-free step
    rng = random.Random(67)
    for _ in range(40):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        m = [
            [rng.randint(-9, 9) if rng.random() > 0.7 else 0 for _ in range(nc)]
            for _ in range(nr)
        ]
        assert rank_over_Q(m) == rank_fraction_oracle(m)


def test_rank_mod_p_small():
    assert rank_mod_p([[2, 0], [0, 2]], 2) == 0
    assert rank_mod_p([[1, 2], [3, 4]], 5) == 2
    assert rank_mod_p([[1, 2], [2, 4]], 3) == 1


# ---------------------------------------------------------------------------
# Cohomology over Q.
# ---------------------------------------------------------------------------

def test_cohomology_Q_zero_differential(selberg):
    complex_ = aomoto_matrices(selberg, (0,) * 5)
    assert cohomology_Q(complex_).dims == (1, 5, 6)


def test_cohomology_Q_falls_back_when_rank_drops_mod_p():
    # rank 0 mod the certificate prime, rank 1 over Q
    complex_ = complex_of((1, 1), ((CERTIFICATE_PRIME,),))
    assert cohomology_Q(complex_).dims == (0, 0)


def test_cohomology_Q_weights_scaled_by_the_prime(catalog_arrangements):
    # every differential vanishes mod the prime, so each rank falls back
    for a in catalog_arrangements.values():
        for weights in ((1,) * a.n, (1, 1, -2) + (1,) * (a.n - 3)):
            complex_ = aomoto_matrices(a, tuple(CERTIFICATE_PRIME * w for w in weights))
            dims = cohomology_Q(complex_).dims
            assert dims == bareiss_dims(complex_)
            assert dims == cohomology_Q(aomoto_matrices(a, weights)).dims


def test_cohomology_Q_rejects_a_non_complex():
    # D_1 D_0 = [[1]] != 0: the rank of D_1 exceeds n_1 - rank D_0 = 0
    with pytest.raises(ArithmeticError):
        cohomology_Q(complex_of((1, 1, 1), ((1,),), ((1,),)))


SWEEP_ARRANGEMENTS = {
    **{key: (lambda key=key: catalog.get(key).arrangement) for key in catalog.entries()},
    "braid-a4-decone": braid_a4_decone,
}


@pytest.mark.parametrize("key", SWEEP_ARRANGEMENTS)
def test_cohomology_Q_matches_bareiss_on_sweep_shifts(key):
    # the first 40 orbit representatives of every resonant k
    a = SWEEP_ARRANGEMENTS[key]()
    for k in range(2, a.n + 1):
        if is_nonresonant(a, k):
            continue
        for shift in islice(_candidates(a, ()), 40):
            complex_ = aomoto_matrices(a, tuple(1 + k * v for v in shift))
            assert cohomology_Q(complex_).dims == bareiss_dims(complex_), (k, shift)


def test_cohomology_Q_selberg_unit_weights(selberg):
    dims = cohomology_Q(aomoto_matrices(selberg, (1,) * 5)).dims
    assert dims[0] == 0
    assert dims[0] - dims[1] + dims[2] == 2


def test_cohomology_Q_selberg_shifted(selberg):
    dims = cohomology_Q(aomoto_matrices(selberg, (1, 1, -2, 1, 1))).dims
    assert dims[1] == 1


def test_cohomology_Q_euler_characteristic(catalog_arrangements):
    rng = random.Random(61)
    for a in catalog_arrangements.values():
        for _ in range(3):
            weights = tuple(rng.randint(-4, 4) for _ in range(a.n))
            complex_ = aomoto_matrices(a, weights)
            dims = cohomology_Q(complex_).dims
            sizes = complex_.dims()
            assert (
                sum((-1) ** q * d for q, d in enumerate(dims))
                == sum((-1) ** q * s for q, s in enumerate(sizes))
            )


# ---------------------------------------------------------------------------
# Cohomology over Z_N.
# ---------------------------------------------------------------------------

def test_cohomology_modN_hessian_table(hessian_decone):
    complex_ = aomoto_matrices(hessian_decone, (1,) * 11)
    assert cohomology_modN(complex_, 2).dims == (0, 2, 20)
    assert cohomology_modN(complex_, 4).dims == (0, 2, 20)


def test_cohomology_modN_maclane_vanishing(maclane_decone):
    complex_ = aomoto_matrices(maclane_decone, (1,) * 7)
    for n in range(2, 9):
        dims = cohomology_modN(complex_, n).dims
        assert dims[0] == 0 and dims[1] == 0
        assert dims[2] == 7


def test_cohomology_modN_rejects_small_modulus(selberg):
    complex_ = aomoto_matrices(selberg, (1,) * 5)
    with pytest.raises(ValueError):
        cohomology_modN(complex_, 1)


def test_modN_prime_path_agreement(catalog_arrangements):
    # for a prime modulus the generator count is the F_p-dimension
    for a in catalog_arrangements.values():
        complex_ = aomoto_matrices(a, (1,) * a.n)
        sizes = complex_.dims()
        for p in (2, 3, 5, 7):
            snf_dims = cohomology_modN(complex_, p).dims
            ranks = [rank_mod_p(m, p) if m else 0 for m in complex_.diffs]
            for q, nq in enumerate(sizes):
                expected = nq - ranks[q] - (ranks[q - 1] if q > 0 else 0)
                assert snf_dims[q] == expected


def test_bound_chain_Q_below_modN(catalog_arrangements):
    # eq-style monotone chain: rational dims never exceed mod-N ranks
    for a in catalog_arrangements.values():
        for n in (2, 3, 4):
            complex_ = aomoto_matrices(a, (1,) * a.n)
            q_dims = cohomology_Q(complex_).dims
            n_dims = cohomology_modN(complex_, n).dims
            assert all(x <= y for x, y in zip(q_dims[1:], n_dims[1:]))

