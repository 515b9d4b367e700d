"""The closure lattice against per-subset row reductions.

The oracle intersects every index tuple of size <= ell + 1 by reducing its
affine rows to echelon form: the tuple meets in the affine space when no
pivot falls in the constant column, and its codim is the rank.  Circuits and
the NBC basis are then enumerated from the oracle alone; the NBC basis is
compared with the package, which folds tuples through the join table.

The whole closure lattice is checked the same way: every flat of the
projective closure is the closure of at most ell + 1 of its rows, so closing
each such row subset yields every support, codim and Mobius value, the join
table, and the dense flags by dividing the Poincare polynomial of each
localization by 1 + t.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, cycle

import pytest

from arrcover import arrangement, catalog
from arrcover.arrangement import (
    Hyperplane,
    build,
    closure_lattice,
    cone,
    decone,
    dense_edges,
    intersection_lattice,
)
from arrcover.cyclofield import CycNum, cyc_reduce, euler_phi, reduced_row_echelon
from arrcover.osalgebra import nbc_basis
from row_span import row_in_span
from test_cover_assembly_oracle import dense_divexact


def braid_a4_decone():
    """Decone at x_1 of the essential braid arrangement A_4 in C^4:
    x_i - x_j (i < j) and x_i, i.e. the braid arrangement with x_5 = 0."""
    def form(*coeffs):
        return Hyperplane(cyc_reduce([0], 1), tuple(cyc_reduce([c], 1) for c in coeffs))

    forms = []
    for i, j in combinations(range(4), 2):
        v = [0] * 4
        v[i], v[j] = 1, -1
        forms.append(form(*v))
    for i in range(4):
        v = [0] * 4
        v[i] = 1
        forms.append(form(*v))
    return decone(build(4, 1, forms), len(forms) - 4)


def oracle_geometry(a, t):
    echelon, pivots = reduced_row_echelon([a.hyperplanes[i].affine_row() for i in t])
    return a.ambient_dim not in pivots, len(echelon)


def small_tuples(a):
    for size in range(a.ell + 2):
        yield from combinations(range(a.n), size)


def oracle_circuits(a, geometry):
    def independent(t):
        nonempty, codim = geometry[t]
        return nonempty and codim == len(t)

    return tuple(
        t for t in small_tuples(a)
        if len(t) >= 2 and geometry[t][0] and geometry[t][1] < len(t)
        and all(independent(t[:i] + t[i + 1:]) for i in range(len(t)))
    )


def oracle_nbc(a, geometry, circuits):
    broken = {c[1:] for c in circuits}
    levels = []
    for q in range(a.ell + 1):
        levels.append(tuple(
            t for t in combinations(range(a.n), q)
            if geometry[t] == (True, q)
            and not any(set(b) <= set(t) for b in broken)
        ))
    return tuple(levels)


def random_arrangement(d, ell, n, seed):
    """A seeded arrangement of n hyperplanes in C^ell over Q(zeta_d), small
    integer coefficients, with some hyperplanes through the origin and at
    least one parallel family, so that affine intersections come out empty
    and flats at infinity carry more than one affine hyperplane."""
    rng = random.Random(f"{d}-{ell}-{n}-{seed}")

    def number(nonzero=False):
        while True:
            x = cyc_reduce([rng.randint(-2, 2) for _ in range(euler_phi(d))], d)
            if not (nonzero and x.is_zero):
                return x

    while True:
        hps = []
        for _ in range(n):
            if hps and rng.random() < 0.35:
                scale = number(nonzero=True)
                linear = tuple(scale * c for c in rng.choice(hps).coeffs)
            else:
                linear = tuple(number() for _ in range(ell))
            constant = CycNum.zero(d) if rng.random() < 0.3 else number()
            if all(c.is_zero for c in linear):
                continue
            hps.append(Hyperplane(constant, linear))
        parallel = any(
            len(reduced_row_echelon([g.coeffs, h.coeffs])[0]) == 1
            for g, h in combinations(hps, 2)
        )
        if len(hps) < n or not parallel:
            continue
        try:
            return build(ell, d, hps)
        except ValueError:
            continue  # a duplicate or a non-essential draw


RANDOM_CASES = {
    f"random-d{d}-l{ell}-n{n}-s{seed}": (d, ell, n, seed)
    for d in (1, 3, 4)
    for ell, n in ((2, 5), (2, 7), (3, 6))
    for seed in (1, 2)
} | {
    # phi(d) = 4: a residue's leading entry needs three conjugates for its norm
    f"random-d{d}-l{ell}-n{n}-s1": (d, ell, n, 1)
    for d in (5, 8)
    for ell, n in ((2, 6), (3, 6))
} | {
    # ell = 4: a basis three rows deep is extended by one step, and the
    # codim-4 flats of the closure are not reduced
    f"random-d{d}-l4-n7-s1": (d, 4, 7, 1)
    for d in (1, 3)
}


def generic_lines(n):
    """The n lines 1 + x X + x^2 Y = 0 for x = 1..n: duals of points on a
    conic, so no three meet and no two are parallel, and the last level of
    the closure holds only double points."""
    def q(x):
        return cyc_reduce([x], 1)

    return build(2, 1, [Hyperplane(q(1), (q(x), q(x * x))) for x in range(1, n + 1)])


CASES = {
    "selberg": lambda: catalog.get("selberg").arrangement,
    "maclane-decone": lambda: catalog.get("maclane-decone").arrangement,
    "hessian-decone": lambda: catalog.get("hessian-decone").arrangement,
    "ceva3": lambda: catalog.get("ceva3").arrangement,
    "cone(selberg)": lambda: cone(catalog.get("selberg").arrangement),
    "maclane-central": catalog.maclane_central,
    "hessian-central": catalog.hessian_central,
    "braid-a4-decone": braid_a4_decone,
    "generic-8": lambda: generic_lines(8),
} | {key: (lambda args=args: random_arrangement(*args)) for key, args in RANDOM_CASES.items()}


@lru_cache(maxsize=None)
def oracle_case(key):
    """(arrangement, oracle geometry of its small tuples, oracle circuits)."""
    a = CASES[key]()
    geometry = {t: oracle_geometry(a, t) for t in small_tuples(a)}
    return a, geometry, oracle_circuits(a, geometry)


@pytest.mark.parametrize("key", sorted(CASES))
def test_join_table_matches_subset_row_reduction(key):
    a, geometry, circuits = oracle_case(key)
    lattice = closure_lattice(a)
    for t, expected in geometry.items():
        f = 0
        for j in t:
            f = lattice.join[f][j]
        flat = lattice.flats[f]
        assert (a.n not in flat.support, flat.codim) == expected, t
    assert nbc_basis(a) == oracle_nbc(a, geometry, circuits)


def test_braid_a4_decone_shape():
    a = braid_a4_decone()
    assert (a.n, a.ell) == (9, 3)
    assert tuple(len(level) for level in nbc_basis(a)) == (1, 9, 26, 24)


# ---------------------------------------------------------------------------
# The whole closure lattice against subset closures.
# ---------------------------------------------------------------------------

def oracle_closure_lattice(a):
    """{support: (codim, mobius)} of the projective closure, from the closure
    of every independent set of at most ell + 1 closure rows (index n is the
    hyperplane at infinity); a dependent set closes to the flat of a smaller
    independent one."""
    rows = [h.affine_row() for h in a.hyperplanes]
    rows.append((CycNum.zero(a.cyc_order),) * a.ambient_dim + (CycNum.one(a.cyc_order),))
    codims = {}
    for size in range(a.ell + 2):
        for subset in combinations(range(len(rows)), size):
            echelon, _ = reduced_row_echelon([rows[i] for i in subset])
            if len(echelon) < size:
                continue
            support = tuple(j for j, row in enumerate(rows) if row_in_span(row, echelon))
            codims[support] = size
    mobius = {}
    for support in sorted(codims, key=lambda s: (codims[s], s)):
        mobius[support] = 1 if not support else -sum(
            mu for below, mu in mobius.items() if set(below) < set(support)
        )
    return {support: (codims[support], mobius[support]) for support in codims}


def oracle_join(flats, support, j):
    """The least oracle flat whose support holds support + {j}."""
    above = [s for s in flats if j in s and set(support) <= set(s)]
    return min(above, key=lambda s: flats[s][0])


def oracle_dense(flats, support):
    """beta of the localization at a flat, nonzero: its Poincare polynomial
    divided by 1 + t, evaluated at -1."""
    coeffs = [0] * (flats[support][0] + 1)
    for below, (codim, mu) in flats.items():
        if set(below) <= set(support):
            coeffs[codim] += mu * (-1) ** codim
    quotient = dense_divexact(coeffs, [1, 1])
    return sum(c * (-1) ** i for i, c in enumerate(quotient)) != 0


@pytest.mark.parametrize("key", sorted(CASES))
def test_closure_lattice_matches_subset_closures(key):
    a = CASES[key]()
    expected = oracle_closure_lattice(a)
    lattice = closure_lattice(a)
    flats = {f.support: (f.codim, f.mobius) for f in lattice.flats}
    assert len(flats) == len(lattice.flats)
    assert flats == expected
    assert [f.codim for f in lattice.flats] == sorted(f.codim for f in lattice.flats)
    for flat, step in zip(lattice.flats, lattice.join):
        assert len(step) == a.n + 1
        for j, g in enumerate(step):
            assert lattice.flats[g].support == oracle_join(expected, flat.support, j)
    dense = dense_edges(a)
    marked = [f for f in dense.flats() if f.codim > 0]
    assert [f.support for f in marked] == [
        f.support for f in lattice.flats if 0 < f.codim <= a.ell
    ]
    for flat in marked:
        assert flat.dense == oracle_dense(expected, flat.support), flat.support
    # the lattice flags its flats in its Mobius scan; the affine flats keep
    # those flags, and only the codim-0 flat has none
    affine = list(intersection_lattice(a).flats())
    assert lattice.flats[0].dense is None and affine[0].dense is None
    for flat in lattice.flats[1:] + tuple(affine[1:]):
        if flat.codim <= a.ell:
            assert flat.dense == oracle_dense(expected, flat.support), flat.support


def rescaled(a):
    """The same arrangement with each equation multiplied by a nonzero scalar,
    non-units and negatives among them: 2 - 3 zeta has norm 19 over Q(zeta_3)
    and 13 over Q(i), and 7/3 is not an integer."""
    d = a.cyc_order
    base = [cyc_reduce([2, -3], d), cyc_reduce([Fraction(-7, 3)], d)]
    scalars = base + [base[0] * base[1], -base[0]]
    return build(a.ell, d, [
        Hyperplane(s * h.constant, tuple(s * c for c in h.coeffs))
        for s, h in zip(cycle(scalars), a.hyperplanes)
    ])


@pytest.mark.parametrize("key", sorted(CASES))
def test_closure_lattice_ignores_equation_scaling(key):
    a = CASES[key]()
    b = rescaled(a)
    assert b != a
    assert closure_lattice(b) == closure_lattice(a)
    assert dense_edges(b) == dense_edges(a)


@pytest.mark.parametrize("key", ["hessian-decone", "generic-8", "braid-a4-decone"])
def test_lattice_reduces_one_step_per_residue(key, monkeypatch):
    """Each residue is its parent's residue reduced by the one new equation,
    and no row is reduced modulo a codim-ell flat.  At ell = 3 a reduction
    from scratch would pass a basis of two rows."""
    a = CASES[key]()
    want = closure_lattice(a)
    bases = []
    residue = arrangement._residue

    def counting(row, basis, d):
        bases.append(len(basis))
        return residue(row, basis, d)

    monkeypatch.setattr(arrangement, "_residue", counting)
    lattice = closure_lattice.__wrapped__(a)
    assert lattice == want
    assert max(bases) == 1
    assert len(bases) == sum(
        a.n + 1 - len(f.support) for f in lattice.flats if f.codim < a.ell
    )
    if key == "generic-8":
        assert len(bases) == 9 + 9 * 8
