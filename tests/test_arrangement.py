"""Arrangements, lattices, Mobius values, cone/decone, dense edges."""

import pickle
from fractions import Fraction
from itertools import combinations

import pytest

from arrcover import catalog
from arrcover.arrangement import (
    Hyperplane,
    beta,
    betti_numbers,
    build,
    closure_lattice,
    cone,
    decone,
    dense_edges,
    euler_characteristic,
    intersection_lattice,
    poincare_polynomial,
)
from arrcover.covers import _local_table, local_betti
from arrcover.cyclofield import CycNum, IntPoly, cyc_reduce, reduced_row_echelon
from arrcover.fileformat import parse_file, serialize_arrangement
from deletion_restriction import deletion, restriction
from permutation import permuted
from row_span import row_in_span


def hp(d, constant, *coeffs):
    return Hyperplane(cyc_reduce([constant], d), tuple(cyc_reduce(list(c), d) for c in coeffs))


def simple(d, dim, *forms):
    """forms given as (constant, coeff...) with plain rationals."""
    return build(dim, d, [hp(d, f[0], *[(c,) if d == 1 else c for c in f[1:]]) for f in forms])


@pytest.fixture(scope="module")
def boolean_pair():
    return simple(1, 2, (0, 1, 0), (0, 0, 1))


@pytest.fixture(scope="module")
def generic_triangle():
    # x, y, x + y - 1: three generic lines
    return simple(1, 2, (0, 1, 0), (0, 0, 1), (-1, 1, 1))


# ---------------------------------------------------------------------------
# Brute-force lattice oracle: intersect every subset, group by solution
# space, read Mobius values off geometric containment.
# ---------------------------------------------------------------------------

def lattice_oracle(a):
    rows = [h.affine_row() for h in a.hyperplanes]
    spaces = {}
    for size in range(a.n + 1):
        for subset in combinations(range(a.n), size):
            echelon, pivots = reduced_row_echelon([rows[i] for i in subset])
            if a.ambient_dim in pivots:
                continue  # empty intersection
            support = tuple(j for j in range(a.n) if row_in_span(rows[j], echelon))
            spaces[echelon] = (len(echelon), support)
    flats = sorted(spaces.values(), key=lambda t: (t[0], t[1]))
    # geometric order: Z <= Y iff Y's support contains Z's support
    mobius = {}
    for codim, support in flats:
        below = sum(
            mobius[(c2, s2)]
            for c2, s2 in flats
            if set(s2) < set(support)
        )
        mobius[(codim, support)] = 1 if codim == 0 else -below
    return {
        (codim, support): mobius[(codim, support)]
        for codim, support in flats
    }


def lattice_as_dict(a):
    return {
        (f.codim, f.support): f.mobius
        for f in intersection_lattice(a).flats()
    }


# ---------------------------------------------------------------------------
# build.
# ---------------------------------------------------------------------------

def test_build_selberg(selberg):
    assert selberg.n == 5
    assert selberg.ell == 2
    assert not selberg.is_central


def test_hash_is_cached_and_consistent_with_equality(tmp_path):
    for key, entry in catalog.entries().items():
        a = entry.arrangement
        path = tmp_path / f"{key}.json"
        path.write_text(serialize_arrangement(a, key))
        b = parse_file(path.read_bytes())
        assert a is not b and a == b and hash(a) == hash(b)
        assert hash(a) == hash((a.ambient_dim, a.cyc_order, a.hyperplanes, a.is_central))
        swapped = permuted(a, (1, 0) + tuple(range(2, a.n)))
        assert swapped != a
        assert permuted(swapped, (1, 0) + tuple(range(2, a.n))) == a


def test_pickle_carries_no_derived_values():
    fields = {"ambient_dim", "cyc_order", "hyperplanes", "is_central"}
    for key, entry in catalog.entries().items():
        a = entry.arrangement
        local_betti(a, min(_local_table(a)[0]))
        b = pickle.loads(pickle.dumps(a))
        assert b == a and hash(b) == hash(a), key
        assert set(vars(a)) == set(vars(b)) == fields, key
        before = closure_lattice.cache_info().misses
        assert closure_lattice(b) == closure_lattice(a)
        assert closure_lattice.cache_info().misses == before + 1, key


def test_build_rejects_proportional_duplicates():
    with pytest.raises(ValueError, match="duplicate hyperplanes at indices 0 and 1$"):
        simple(1, 2, (-1, 1, 0), (-2, 2, 0), (0, 0, 1))
    # a negative rational multiple
    with pytest.raises(ValueError, match="indices 0 and 2$"):
        simple(1, 2, (1, 2, -1), (0, 0, 1), (Fraction(-1, 3), Fraction(-2, 3), Fraction(1, 3)))
    # a multiple over Q(zeta_5) by 2 - 3 zeta
    h = Hyperplane(cyc_reduce([1, 0, 2], 5), (cyc_reduce([0, 1], 5), cyc_reduce([3, 0, 0, -1], 5)))
    lam = cyc_reduce([2, -3], 5)
    other = Hyperplane(CycNum.zero(5), (CycNum.one(5), CycNum.zero(5)))
    multiple = Hyperplane(lam * h.constant, tuple(lam * c for c in h.coeffs))
    with pytest.raises(ValueError, match="indices 0 and 2$"):
        build(2, 5, [h, other, multiple])
    # parallel planes that differ only in the constant are distinct
    assert simple(1, 2, (0, 1, 1), (3, 1, 1), (0, 0, 1)).n == 3
    # of the groups 1 = 2 and 0 = 3, the error names the least pair
    with pytest.raises(ValueError, match="indices 0 and 3$"):
        simple(1, 2, (1, 1, 0), (0, 0, 1), (0, 0, 5), (-2, -2, 0))


def test_build_single_hyperplane_line():
    a = simple(1, 1, (0, 1))
    assert a.n == 1 and a.is_central


def test_build_rejects_zero_linear_part():
    with pytest.raises(ValueError, match="zero linear part"):
        hp(1, 1, (0,), (0,))


def test_build_rejects_non_essential():
    with pytest.raises(ValueError, match="rank 1 < 2"):
        simple(1, 2, (0, 1, 0), (-1, 1, 0))


# ---------------------------------------------------------------------------
# cone / decone.
# ---------------------------------------------------------------------------

def test_cone_selberg(selberg):
    c = cone(selberg)
    assert c.n == 6 and c.is_central and c.ambient_dim == 3
    last = c.hyperplanes[-1]
    assert all(v.is_zero for v in last.coeffs[:-1]) and not last.coeffs[-1].is_zero
    # standard cone factorization of the Poincare polynomial
    assert poincare_polynomial(c) == IntPoly((1, 1)) * IntPoly((1, 5, 6))


def test_cone_single_affine_point():
    a = simple(1, 1, (-1, 1))  # {x = 1} in C^1
    c = cone(a)
    assert c.n == 2 and c.ambient_dim == 2
    rows = [[v for v in h.coeffs] for h in c.hyperplanes]
    assert not rows[0][0].is_zero and not rows[0][1].is_zero  # x - x0
    assert rows[1][0].is_zero and not rows[1][1].is_zero      # x0


def test_decone_round_trip(selberg):
    c = cone(selberg)
    back = decone(c, c.n - 1)
    assert poincare_polynomial(back) == poincare_polynomial(selberg)
    assert beta(back) == beta(selberg)
    assert back.hyperplanes == selberg.hyperplanes


def test_decone_requires_central(selberg):
    with pytest.raises(ValueError, match="central"):
        decone(selberg, 0)


def test_decone_maclane():
    a = decone(catalog.maclane_central(), 0)
    assert a.n == 7
    assert poincare_polynomial(a).coeffs == (1, 7, 13)


def test_decone_hessian():
    a = decone(catalog.hessian_central(), 0)
    assert a.n == 11
    assert poincare_polynomial(a).coeffs == (1, 11, 28)


def test_decone_choice_invariance_maclane():
    c = catalog.maclane_central()
    reference = None
    for at in range(c.n):
        a = decone(c, at)
        profile = (
            poincare_polynomial(a),
            beta(a),
            sorted(f.multiplicity for f in intersection_lattice(a).flats()),
        )
        if reference is None:
            reference = profile
        else:
            assert profile == reference


# ---------------------------------------------------------------------------
# Intersection lattice.
# ---------------------------------------------------------------------------

def test_selberg_codim2_flats(selberg):
    flats = {
        f.support: f.mobius for f in intersection_lattice(selberg).levels[2]
    }
    assert flats == {(0, 1, 2): 2, (2, 3, 4): 2, (0, 4): 1, (1, 3): 1}


def test_single_hyperplane_lattice():
    a = simple(1, 1, (0, 1))
    lattice = intersection_lattice(a)
    assert sum(1 for _ in lattice.flats()) == 2
    assert lattice.rank == 1


def test_boolean_pair_lattice(boolean_pair):
    lattice = intersection_lattice(boolean_pair)
    flats = list(lattice.flats())
    assert len(flats) == 4
    point = lattice.levels[2][0]
    assert point.mobius == 1


def test_lattice_matches_bruteforce_oracle(selberg, boolean_pair, generic_triangle):
    cases = [
        selberg,
        boolean_pair,
        generic_triangle,
        cone(selberg),
        simple(1, 1, (0, 1)),
        simple(1, 2, (0, 1, 0), (0, 0, 1), (0, 1, -1), (-1, 1, 1)),
    ]
    for a in cases:
        assert a.n <= 6
        assert lattice_as_dict(a) == lattice_oracle(a)


def test_mobius_sums_vanish(catalog_arrangements):
    for a in catalog_arrangements.values():
        lattice = intersection_lattice(a)
        mu = {f.support: f.mobius for f in lattice.flats()}
        for f in lattice.flats():
            if f.codim == 0:
                continue
            total = sum(
                mu[g.support]
                for g in lattice.flats()
                if set(g.support) <= set(f.support)
            )
            assert total == 0


# ---------------------------------------------------------------------------
# Poincare polynomial and beta.
# ---------------------------------------------------------------------------

def test_poincare_examples(selberg, maclane_decone, generic_triangle):
    assert poincare_polynomial(selberg).coeffs == (1, 5, 6)
    assert poincare_polynomial(maclane_decone).coeffs == (1, 7, 13)
    assert poincare_polynomial(generic_triangle).coeffs == (1, 3, 3)


def test_beta_examples(selberg, hessian_decone):
    assert beta(selberg) == 2
    assert beta(hessian_decone) == 18
    assert beta(simple(1, 1, (0, 1))) == 0


def test_betti_sign_identities(catalog_arrangements):
    for a in catalog_arrangements.values():
        b = betti_numbers(a)
        assert b[0] == 1
        chi = sum((-1) ** q * v for q, v in enumerate(b))
        assert chi == euler_characteristic(a)
        assert beta(a) == abs(chi)


def test_cone_poincare_identity(catalog_arrangements):
    for a in catalog_arrangements.values():
        assert poincare_polynomial(cone(a)) == IntPoly((1, 1)) * poincare_polynomial(a)


def test_decone_of_cone_preserves_flat_multiset(catalog_arrangements):
    for a in catalog_arrangements.values():
        back = decone(cone(a), a.n)
        assert poincare_polynomial(back) == poincare_polynomial(a)
        assert beta(back) == beta(a)
        original = sorted(f.multiplicity for f in intersection_lattice(a).flats())
        returned = sorted(f.multiplicity for f in intersection_lattice(back).flats())
        assert original == returned


# ---------------------------------------------------------------------------
# Deletion-restriction.
# ---------------------------------------------------------------------------

def test_deletion_restriction_identity(catalog_arrangements):
    for a in catalog_arrangements.values():
        p = poincare_polynomial(a)
        for at in range(a.n):
            p_del = poincare_polynomial(deletion(a, at))
            p_res = poincare_polynomial(restriction(a, at))
            assert p == p_del + IntPoly((0, 1)) * p_res, f"failed at hyperplane {at}"


# ---------------------------------------------------------------------------
# Dense edges of the closure.
# ---------------------------------------------------------------------------

def test_selberg_dense_edges(selberg):
    closure = dense_edges(selberg)
    assert closure.rank == 2
    hyperplane_flats = closure.levels[1]
    assert len(hyperplane_flats) == 6
    assert all(f.dense for f in hyperplane_flats)
    dense_points = [f for f in closure.levels[2] if f.dense]
    sparse_points = [f for f in closure.levels[2] if not f.dense]
    assert len(dense_points) == 4
    assert all(f.multiplicity == 3 for f in dense_points)
    assert all(f.multiplicity == 2 for f in sparse_points)


def test_hessian_dense_edges(hessian_decone):
    closure = dense_edges(hessian_decone)
    dense_points = [f for f in closure.levels[2] if f.dense]
    assert len(dense_points) == 9
    assert all(f.multiplicity == 4 for f in dense_points)


def test_dense_edges_exclude_cone_center(catalog_arrangements):
    for a in catalog_arrangements.values():
        closure = dense_edges(a)
        assert closure.rank == a.ell
        assert all(f.codim <= a.ell for f in closure.flats())
