"""The table of local values that each arrangement derives once.

Weights 1/k are resonant exactly when k >= 2 divides the number of
hyperplanes of some affine dense edge of the projective closure.  The table
holds those k, the k = 1 intervals and the (0, ..., 0, beta) intervals;
local_betti reads it, and so does every sweep, for the dense edges the table
keeps.  Checked here: the rule against the two tests it replaced at every
k <= 3n, that the dense edges are read once per arrangement, and that
assembling cover invariants from warm local values reads no dense edge.
"""

import pytest

from arrcover import catalog, covers
from arrcover.arrangement import Hyperplane, build
from arrcover.covers import (
    WeightSystem,
    _local_table,
    cover_betti,
    fast_nonresonant,
    local_betti,
    monodromy_charpoly,
    periodicity,
    stv_nonresonant,
    zeta_coefficients,
)
from arrcover.cyclofield import cyc_reduce
from bench_inputs import braid_decone, generic_lines
from resonance import is_nonresonant
from test_orbit_sweep_oracle import CASES, OTHERS


def parallel_pair():
    """x = 0, x = 1, y = 0 and x + y = 3 in C^2: no three lines meet, and the
    two parallel lines meet the line at infinity in one triple point.  A rule
    that counted that edge's three hyperplanes would call k = 3 resonant."""
    def line(constant, *coeffs):
        return Hyperplane(cyc_reduce([constant], 1), tuple(cyc_reduce([c], 1) for c in coeffs))

    return build(2, 1, [line(0, 1, 0), line(-1, 1, 0), line(0, 0, 1), line(-3, 1, 1)])


INPUTS = {key: (lambda key=key: catalog.get(key).arrangement) for key in catalog.entries()}
INPUTS.update(CASES)
INPUTS.update(OTHERS)
INPUTS["braid-a4-decone-7"] = lambda: braid_decone(5, 7)
INPUTS["braid-a5-decone-7"] = lambda: braid_decone(6, 7)
INPUTS["generic-16-1"] = lambda: generic_lines(16, 1)
INPUTS["parallel-pair"] = parallel_pair


@pytest.mark.parametrize("key", sorted(INPUTS))
def test_table_decides_as_the_tests_it_replaced(key):
    a = INPUTS[key]()
    for k in range(1, 3 * a.n + 1):
        replaced = fast_nonresonant(a, k) or stv_nonresonant(a, WeightSystem.uniform(a.n, k))
        assert is_nonresonant(a, k) == replaced, k


def test_rule_edges():
    assert all(is_nonresonant(parallel_pair(), k) for k in range(1, 13))
    a = catalog.get("selberg").arrangement
    assert is_nonresonant(a, 1)
    for k in (0, -3):
        with pytest.raises(ValueError):
            local_betti(a, k)


@pytest.mark.parametrize("key", sorted(catalog.entries()))
def test_dense_edges_are_read_once_per_arrangement(key, monkeypatch):
    # a distinct arrangement derives its own table, so its first read counts
    given = catalog.get(key).arrangement
    a = build(given.ell, given.cyc_order, given.hyperplanes)
    reads = []
    real = covers._dense_closure_flats
    monkeypatch.setattr(covers, "_dense_closure_flats", lambda a: reads.append(a) or real(a))
    for k in range(1, a.n + 1):
        local_betti(a, k)
    assert min(_local_table(a)[0]) <= a.n
    assert len(reads) == 1 and reads[0] is a


@pytest.mark.parametrize("key", ["selberg", "hessian-decone", "ceva3", "generic-16-1"])
def test_warm_assembly_reads_no_dense_edge(key, monkeypatch):
    a = INPUTS[key]()
    resolution = {(3, 1): 2, (3, 2): 13, (3, 3): 11, (9, 1): 0, (9, 2): 9, (9, 3): 9}
    resolution = resolution if key == "ceva3" else None
    for k in range(1, a.n + 1):
        local_betti(a, k)
    reads = []
    real = covers._dense_closure_flats
    monkeypatch.setattr(covers, "_dense_closure_flats", lambda a: reads.append(a) or real(a))
    for m in (1, 2, 12, 5040, 720720, 9699690, 10**7):
        at_m = resolution and {kq: v for kq, v in resolution.items() if m % kq[0] == 0}
        cover_betti(a, m, at_m)
        monodromy_charpoly(a, m, 1, at_m)
    periodicity(a, resolution)
    for q in range(a.ell + 1):
        zeta_coefficients(a, q, resolution)
    assert reads == []
