"""NBC bases, straightening, and the weighted differentials."""

import random

import pytest

from arrcover.arrangement import Hyperplane, build, poincare_polynomial
from arrcover.cyclofield import cyc_reduce
from arrcover.exactlin import cohomology_Q, cohomology_modN
from arrcover.osalgebra import aomoto_matrices, nbc_basis, straighten
from permutation import permuted
from test_geometry_oracle import CASES, oracle_case


def mat_mul(a, b):
    return [
        [sum(a[r][k] * b[k][c] for k in range(len(b))) for c in range(len(b[0]))]
        for r in range(len(a))
    ]


def is_zero_matrix(m):
    return all(v == 0 for row in m for v in row)


def single_hyperplane():
    return build(1, 1, [Hyperplane(cyc_reduce([0], 1), (cyc_reduce([1], 1),))])


# ---------------------------------------------------------------------------
# NBC bases.
# ---------------------------------------------------------------------------

def test_nbc_counts_examples(selberg, maclane_decone):
    assert tuple(len(level) for level in nbc_basis(selberg)) == (1, 5, 6)
    assert tuple(len(level) for level in nbc_basis(maclane_decone)) == (1, 7, 13)
    assert tuple(len(level) for level in nbc_basis(single_hyperplane())) == (1, 1)


def test_nbc_counts_match_poincare(catalog_arrangements):
    for a in catalog_arrangements.values():
        counts = tuple(len(level) for level in nbc_basis(a))
        assert counts == poincare_polynomial(a).coeffs


def test_nbc_monomials_strictly_increasing(catalog_arrangements):
    for a in catalog_arrangements.values():
        for q, level in enumerate(nbc_basis(a)):
            for monomial in level:
                assert len(monomial) == q
                assert all(monomial[i] < monomial[i + 1] for i in range(q - 1))


# ---------------------------------------------------------------------------
# Straightening.
# ---------------------------------------------------------------------------

def test_straighten_nbc_fixed_point(selberg):
    for level in nbc_basis(selberg):
        for monomial in level:
            assert straighten(selberg, monomial) == {monomial: 1}


def test_straighten_broken_circuit(selberg):
    # {y, x-y} is the broken circuit of {x, y, x-y}
    assert straighten(selberg, (1, 2)) == {(0, 2): 1, (0, 1): -1}


def test_straighten_parallel_pair_vanishes(selberg):
    # x and x-1 never meet
    assert straighten(selberg, (0, 3)) == {}


def test_straighten_rejects_non_increasing(selberg):
    with pytest.raises(ValueError):
        straighten(selberg, (2, 1))
    with pytest.raises(ValueError):
        straighten(selberg, (1, 1))


def test_straighten_kills_circuit_boundaries():
    # del(e_C) must straighten to zero for every circuit the row-reduction
    # oracle finds, over Q, Q(zeta_3) and Q(zeta_4)
    for key in sorted(CASES):
        a, _, circuits = oracle_case(key)
        for circuit in circuits:
            acc = {}
            for j in range(len(circuit)):
                face = circuit[:j] + circuit[j + 1:]
                for monomial, c in straighten(a, face).items():
                    acc[monomial] = acc.get(monomial, 0) + (-1) ** j * c
            assert all(v == 0 for v in acc.values()), (key, circuit)


def test_straighten_zeroes_dependent_tuples_and_yields_nbc_monomials():
    for key in sorted(CASES):
        a, geometry, _ = oracle_case(key)
        nbc = {monomial for level in nbc_basis(a) for monomial in level}
        for t, (nonempty, codim) in geometry.items():
            result = straighten(a, t)
            assert set(result) <= nbc, (key, t)
            if not nonempty or codim < len(t):
                assert result == {}, (key, t)


# ---------------------------------------------------------------------------
# Aomoto matrices.
# ---------------------------------------------------------------------------

def test_zero_weights_give_zero_differentials(selberg):
    complex_ = aomoto_matrices(selberg, (0,) * 5)
    for q in range(len(complex_.dims())):
        assert all(v == 0 for row in complex_.differential(q) for v in row)


def test_selberg_degree0_differential(selberg):
    complex_ = aomoto_matrices(selberg, (1,) * 5)
    assert complex_.differential(0) == ((1,), (1,), (1,), (1,), (1,))


def test_differentials_square_to_zero(catalog_arrangements):
    rng = random.Random(3)
    oracle_cases = [CASES[key]() for key in sorted(CASES)]
    for a in [*catalog_arrangements.values(), *oracle_cases]:
        for weights in [(1,) * a.n, tuple(rng.randint(-3, 3) for _ in range(a.n))]:
            complex_ = aomoto_matrices(a, weights)
            for q in range(len(complex_.dims()) - 1):
                upper = complex_.differential(q + 1)
                lower = complex_.differential(q)
                if not upper or is_zero_matrix(lower):
                    continue
                assert is_zero_matrix(mat_mul(upper, lower)), (a.n, q)


def test_differential_shapes_match_bases(catalog_arrangements):
    for a in catalog_arrangements.values():
        complex_ = aomoto_matrices(a, (1,) * a.n)
        sizes = complex_.dims()
        for q in range(len(sizes)):
            diff = complex_.differential(q)
            assert all(len(row) == sizes[q] for row in diff)
            assert len(diff) == (sizes[q + 1] if q + 1 < len(sizes) else 0)


def test_weight_length_checked(selberg):
    with pytest.raises(ValueError):
        aomoto_matrices(selberg, (1, 1, 1))


def test_permutation_invariance_of_cohomology(selberg, maclane_decone):
    rng = random.Random(17)
    cases = [
        (selberg, (1, 1, -2, 1, 1), 3),
        (selberg, (1,) * 5, 3),
        (maclane_decone, (1,) * 7, 3),
    ]
    for a, weights, modulus in cases:
        base_q = cohomology_Q(aomoto_matrices(a, weights)).dims
        base_n = cohomology_modN(aomoto_matrices(a, weights), modulus).dims
        for _ in range(2):
            perm = list(range(a.n))
            rng.shuffle(perm)
            pa = permuted(a, perm)
            pw = tuple(weights[i] for i in perm)
            assert cohomology_Q(aomoto_matrices(pa, pw)).dims == base_q
            assert cohomology_modN(aomoto_matrices(pa, pw), modulus).dims == base_n
