"""Smith normal form and cohomology over Q and Z_N."""

import random
from fractions import Fraction
from itertools import combinations, islice
from math import gcd

import pytest

from arrcover import catalog
from arrcover.covers import _candidates
from arrcover.exactlin import (
    CERTIFICATE_PRIME,
    _check_complex,
    _ranks_mod_p,
    cohomology_Q,
    cohomology_modN,
    packed,
    rank_over_Q,
    smith_normal_form,
)
from arrcover.osalgebra import (
    AomotoComplex,
    OSAlgebra,
    aomoto_matrices,
    os_algebra,
)
from rank_mod_p import rank_mod_p
from resonance import is_nonresonant
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
    ranks = [rank_over_Q(complex_.differential(q)) for q in range(len(complex_.dims()))]
    return tuple(
        nq - ranks[q] - (ranks[q - 1] if q > 0 else 0)
        for q, nq in enumerate(complex_.dims())
    )


def complex_of(sizes, *diffs):
    """A complex with the given basis sizes and differentials, plus the
    empty top differential: one generator whose degree-q entries are those
    of diffs[q], at weight 1."""
    bases = tuple(tuple((i,) for i in range(n)) for n in sizes)
    generator = tuple(
        tuple((r, c, v) for r, row in enumerate(d) for c, v in enumerate(row) if v)
        for d in diffs
    )
    return AomotoComplex(OSAlgebra(bases, (generator,)), (1,))


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
    # D_1 D_0 = [[1]] != 0: exactlin's proof that the algebra gives a complex
    # (_check_complex, run by packed) finds e_0 e_0 != 0 before any rank is
    # taken; a failed proof stores nothing, so every later call fails it again
    complex_ = complex_of((1, 1, 1), ((1,),), ((1,),))
    for _ in range(2):
        with pytest.raises(ArithmeticError):
            cohomology_Q(complex_)


def test_the_complex_is_proved_once_per_algebra(selberg):
    algebra = os_algebra(selberg)
    # an equal algebra that has derived nothing yet
    fresh = OSAlgebra(algebra.bases, algebra.generators)
    proofs = _check_complex.cache_info().misses
    for p in (2, 3, CERTIFICATE_PRIME):
        assert packed(fresh, p) == packed(algebra, p)
    assert _check_complex.cache_info().misses == proofs + 1


@pytest.mark.parametrize("key", catalog.entries())
def test_flipped_generator_entry_is_not_a_complex(key):
    # one sign flipped in a copy of the algebra breaks e_h e_h' + e_h' e_h = 0
    a = catalog.get(key).arrangement
    algebra = os_algebra(a)
    rng = random.Random(key)
    for _ in range(5):
        h = rng.randrange(a.n)
        q = rng.randrange(len(algebra.bases) - 1)
        entries = list(algebra.generators[h][q])
        i = rng.randrange(len(entries))
        r, c, v = entries[i]
        entries[i] = (r, c, -v)
        generators = list(algebra.generators)
        generators[h] = generators[h][:q] + (tuple(entries),) + generators[h][q + 1:]
        mutant = AomotoComplex(OSAlgebra(algebra.bases, tuple(generators)), (1,) * a.n)
        with pytest.raises(ArithmeticError, match="not a complex"):
            cohomology_Q(mutant)
        with pytest.raises(ArithmeticError, match="not a complex"):
            cohomology_modN(mutant, 6)
    # the catalog algebra itself is untouched and still certifies
    assert cohomology_Q(aomoto_matrices(a, (1,) * a.n)).dims


SWEEP_ARRANGEMENTS = {
    **{key: (lambda key=key: catalog.get(key).arrangement) for key in catalog.entries()},
    "braid-a4-decone": braid_a4_decone,
}


@pytest.mark.parametrize("p", (2, 3, 5, CERTIFICATE_PRIME))
@pytest.mark.parametrize("key", SWEEP_ARRANGEMENTS)
def test_ranks_mod_p_match_dense_ranks(key, p):
    # the first 40 sweep shifts of every resonant k, then random weights
    # with zeros, negatives and multiples of p
    a = SWEEP_ARRANGEMENTS[key]()
    weight_vectors = [
        tuple(1 + k * v for v in shift)
        for k in range(2, a.n + 1) if not is_nonresonant(a, k)
        for shift in islice(_candidates(a, ()), 40)
    ]
    rng = random.Random(f"{key}-{p}")
    values = (0, 1, -1, p, -p, p + 1, 1 - 2 * p)
    weight_vectors += [
        tuple(rng.choice((rng.choice(values), rng.randint(-9, 9), p * rng.randint(-3, 3)))
              for _ in range(a.n))
        for _ in range(20)
    ]
    for weights in weight_vectors:
        complex_ = aomoto_matrices(a, weights)
        dense = map(complex_.differential, range(len(complex_.dims())))
        assert _ranks_mod_p(complex_, p) == [rank_mod_p(d, p) for d in dense], weights


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
            ranks = [rank_mod_p(m, p) if m else 0
                     for m in map(complex_.differential, range(len(sizes)))]
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

