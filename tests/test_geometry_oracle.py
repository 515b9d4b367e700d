"""The join table of the closure lattice against a per-subset row reduction.

The oracle intersects every index tuple of size <= ell + 1 by reducing its
affine rows to echelon form: the tuple meets in the affine space when no
pivot falls in the constant column, and its codim is the rank.  Circuits and
the NBC basis are then enumerated from the oracle alone and compared with the
package, which reads the same predicates off the join table.
"""

from itertools import combinations

import pytest

from arrcover import catalog
from arrcover.arrangement import Hyperplane, build, closure_lattice, cone, decone
from arrcover.cyclofield import cyc_reduce, reduced_row_echelon
from arrcover.osalgebra import nbc_basis, os_algebra


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


CASES = {
    "selberg": lambda: catalog.get("selberg").arrangement,
    "maclane-decone": lambda: catalog.get("maclane-decone").arrangement,
    "hessian-decone": lambda: catalog.get("hessian-decone").arrangement,
    "ceva3": lambda: catalog.get("ceva3").arrangement,
    "cone(selberg)": lambda: cone(catalog.get("selberg").arrangement),
    "maclane-central": catalog.maclane_central,
    "hessian-central": catalog.hessian_central,
    "braid-a4-decone": braid_a4_decone,
}


@pytest.mark.parametrize("key", sorted(CASES))
def test_join_table_matches_subset_row_reduction(key):
    a = CASES[key]()
    geometry = {t: oracle_geometry(a, t) for t in small_tuples(a)}
    affine_geometry = closure_lattice(a).affine_geometry
    for t, expected in geometry.items():
        assert affine_geometry(t) == expected, t
    circuits = oracle_circuits(a, geometry)
    assert os_algebra(a).circuits == circuits
    assert nbc_basis(a) == oracle_nbc(a, geometry, circuits)


def test_braid_a4_decone_shape():
    a = braid_a4_decone()
    assert (a.n, a.ell) == (9, 3)
    assert tuple(len(level) for level in nbc_basis(a)) == (1, 9, 26, 24)
