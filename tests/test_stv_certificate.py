"""The admissibility rule of Schechtman, Terao and Varchenko as an oracle.

Give the hyperplane at infinity the weight lambda_inf = -sum(lambda_H).
When no dense edge X of the projective closure has
lambda_X = sum(lambda_H, H >= X) in Z_{>0}, the local system cohomology
H^*(M, L_lambda) is the Aomoto cohomology H^*(A, a_lambda wedge)
(Schechtman, Terao and Varchenko, J. Pure Appl. Algebra 100, 1995,
sharpening Esnault, Schechtman and Viehweg, Invent. Math. 109, 1992).  The
conjugate system -lambda has the same Betti numbers and Aomoto dims, so a
weight vector with no lambda_X in Z_{<0} qualifies too.  Every shift
lambda = 1/k + s, s in {-1, 0}^n, gives the same local system L_k, so all
admissible shifts of the cube must share one profile of dims, b_q(L_k).

The sweep never reads this rule: its intervals bracket b_q(L_k) between the
ranks of the shifts it evaluates and the mod-k ranks.  So the admissible
dims must lie inside every interval and equal it where it is resolved.  The
rule is tested on the weights scaled by k, w = 1 + k*s and
w_inf = -sum(w): lambda_X is an integer exactly when k divides w_X, with the
sign of w_X.  One representative per orbit of the lattice automorphisms
stands for its orbit, since an automorphism permutes the dense edges.
"""

from functools import cache

import pytest

from arrcover.arrangement import dense_edges
from arrcover.covers import cube_representatives, local_betti
from arrcover.exactlin import cohomology_Q
from arrcover.osalgebra import aomoto_matrices
from bench_inputs import braid_decone
from test_orbit_sweep_oracle import SWEEPS, arrangement_of

# k = 6 and 10 are not prime powers: there, short of an independent oracle,
# the admissible dims are the only check that the mod-k upper bound holds
PAIRS = SWEEPS + [("braid-a5-decone", 6), ("braid-a5-decone", 10)]

# The pairs whose admissible dims close an interval the sweep leaves open.
CLOSED_BY_THE_RULE = {
    ("ceva3", 9): (0, 0, 9, 9),
    ("braid-a4-decone", 6): (0, 0, 0, 6),
    ("braid-a5-decone", 6): (0, 0, 0, 2, 26),
    ("braid-a5-decone", 10): (0, 0, 0, 0, 24),
}


@cache
def arrangement(key):
    return braid_decone(6, 7) if key == "braid-a5-decone" else arrangement_of(key)


def admissible(edges, weights, k) -> bool:
    """No lambda_X in Z_{>0}, or none in Z_{<0}, at lambda = weights / k."""
    w = weights + (-sum(weights),)
    positive = negative = False
    for support in edges:
        w_x = sum(w[i] for i in support)
        if w_x % k == 0:
            positive |= w_x > 0
            negative |= w_x < 0
    return not (positive and negative)


def admissible_dims(a, k) -> set[tuple[int, ...]]:
    """The distinct Aomoto dims of the admissible shifts of {-1, 0}^n."""
    edges = [flat.support for flat in dense_edges(a).flats() if flat.dense]
    found = set()
    for size in range(a.n + 1):
        for mask in cube_representatives(a, size):
            weights = tuple(1 - k * (mask >> i & 1) for i in range(a.n))
            if admissible(edges, weights, k):
                found.add(cohomology_Q(aomoto_matrices(a, weights)).dims)
    return found


@pytest.mark.parametrize("key,k", PAIRS)
def test_admissible_shifts_agree_with_the_sweep(key, k):
    a = arrangement(key)
    found = admissible_dims(a, k)
    assert len(found) <= 1, f"admissible shifts disagree: {sorted(found)}"
    for dims in found:
        for iv in local_betti(a, k):
            assert iv.lower <= dims[iv.degree] <= iv.upper
            if iv.resolved:
                assert dims[iv.degree] == iv.lower
    if (key, k) in CLOSED_BY_THE_RULE:
        assert found == {CLOSED_BY_THE_RULE[key, k]}
        assert not all(iv.resolved for iv in local_betti(a, k))


def test_no_shift_of_ceva3_is_admissible_at_k3():
    # every shift of the cube has a dense edge weighing a positive integer
    # and one weighing a negative integer, so the rule says nothing here
    assert admissible_dims(arrangement("ceva3"), 3) == set()
