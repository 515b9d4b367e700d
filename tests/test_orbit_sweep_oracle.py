"""The orbit-skipping shift sweep against the full enumeration it replaced.

The lower bound of b_q(L_k) sweeps {-1, 0}^n and skips every shift whose
orbit under the lattice automorphisms already holds an evaluated shift.  The
oracle below is the plain loop over every candidate.  Intervals and witness
shifts must agree exactly, the generators must preserve the affine flat
supports, and the groups they generate must have the orders and orbit counts
found by an independent search.  Intervals must also be the same after any
reordering of the hyperplanes.
"""

import pickle
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations
from math import factorial

import pytest

from arrcover import catalog, covers
from arrcover.arrangement import Hyperplane, build, closure_lattice, euler_characteristic
from arrcover.covers import (
    _bound_intervals,
    _candidates,
    automorphisms,
    cube_representatives,
    local_betti,
)
from arrcover.cyclofield import cyc_reduce
from arrcover.exactlin import cohomology_Q, cohomology_modN
from arrcover.osalgebra import aomoto_matrices
from permutation import permuted
from resonance import is_nonresonant
from test_geometry_oracle import braid_a4_decone


def every_candidate(n, extra_shifts):
    """The extra shifts, then every vector of {-1, 0}^n by support size and
    then by support."""
    yield from (tuple(int(v) for v in shift) for shift in extra_shifts)
    for size in range(n + 1):
        for support in combinations(range(n), size):
            yield tuple(-1 if i in support else 0 for i in range(n))


def bound_intervals_oracle(a, k, extra_shifts=()):
    """The sweep over every candidate, with no orbit skip."""
    ell = a.ell
    upper = list(cohomology_modN(aomoto_matrices(a, (1,) * a.n), k).dims)
    upper[0] = 0
    lower = [0] * (ell + 1)
    witness = {}
    for shift in every_candidate(a.n, extra_shifts):
        dims = cohomology_Q(aomoto_matrices(a, tuple(1 + k * v for v in shift))).dims
        for q in range(1, ell + 1):
            assert dims[q] <= upper[q]
            if dims[q] > lower[q]:
                lower[q] = dims[q]
                witness[q] = shift
        if lower == upper:
            break
    chi = euler_characteristic(a)
    open_degrees = [q for q in range(ell + 1) if lower[q] < upper[q]]
    if len(open_degrees) == 1:
        q0 = open_degrees[0]
        rest = sum((-1) ** q * lower[q] for q in range(ell + 1) if q != q0)
        lower[q0] = upper[q0] = (chi - rest) * (-1) ** q0
    return tuple(
        (q, lower[q], upper[q], lower[q] == upper[q], witness.get(q))
        for q in range(ell + 1)
    )


def generic_central(n):
    """n planes (1, t, t^2) . x = 0 in C^3: any three are independent, so
    every permutation is a lattice automorphism."""
    def q(c):
        return cyc_reduce([c], 1)

    return build(3, 1, [Hyperplane(q(0), (q(1), q(t), q(t * t))) for t in range(1, n + 1)])


def small_random(seed):
    """Seven planes with coefficients in {-1, 0, 1} in C^3, drawn from the
    seed.  Their codim-2 flats often look alike where their points differ,
    so a permutation can pass the pair pruning and fail the leaf check."""
    rng = random.Random(f"small-{seed}")
    hps = []
    while len(hps) < 7:
        row = [cyc_reduce([rng.randint(-1, 1)], 1) for _ in range(4)]
        if any(not v.is_zero for v in row[1:]):
            h = Hyperplane(row[0], tuple(row[1:]))
            if h.line_key() not in {o.line_key() for o in hps}:
                hps.append(h)
    return build(3, 1, hps)


CATALOG = ("selberg", "maclane-decone", "hessian-decone", "ceva3")
CASES = {key: (lambda key=key: catalog.get(key).arrangement) for key in CATALOG}
CASES["braid-a4-decone"] = braid_a4_decone

OTHERS = {"generic-central-8": lambda: generic_central(8)}
OTHERS.update({f"small-random-{seed}": (lambda seed=seed: small_random(seed))
               for seed in range(3)})

SWEEPS = [
    (key, k)
    for key, make in {**CASES, **OTHERS}.items()
    for a in [make()]
    for k in range(2, a.n + 1)
    if not is_nonresonant(a, k)
]


def arrangement_of(key):
    return {**CASES, **OTHERS}[key]()


def as_tuples(intervals):
    return tuple((iv.degree, iv.lower, iv.upper, iv.resolved, iv.witness_shift)
                 for iv in intervals)


def image(support, perm):
    return frozenset(perm[i] for i in support)


def support_orbit(support, generators):
    found, frontier = {support}, [support]
    while frontier:
        s = frontier.pop()
        for perm in generators:
            t = image(s, perm)
            if t not in found:
                found.add(t)
                frontier.append(t)
    return found


def shift_orbits(generators, n):
    """Orbits of {-1, 0}^n, as supports, under the group the generators make."""
    seen, orbits = set(), 0
    for size in range(n + 1):
        for support in map(frozenset, combinations(range(n), size)):
            if support not in seen:
                orbits += 1
                seen |= support_orbit(support, generators)
    return orbits


def candidates_oracle(a, extra_shifts):
    """every_candidate, less each shift of {-1, 0}^n whose orbit holds a
    shift listed before it."""
    generators = automorphisms(a)
    seen = set()
    for shift in every_candidate(a.n, extra_shifts):
        if set(shift) <= {-1, 0}:
            support = frozenset(i for i, v in enumerate(shift) if v)
            if support in seen:
                continue
            seen |= support_orbit(support, generators)
        yield shift


def group_elements(generators, n):
    identity = tuple(range(n))
    group, frontier = {identity}, [identity]
    while frontier:
        g = frontier.pop()
        for perm in generators:
            h = tuple(perm[g[i]] for i in range(n))
            if h not in group:
                group.add(h)
                frontier.append(h)
    return group


def chain_order(generators, n):
    """Product of the basic orbits of the stabiliser chain: the orbit of i
    under the generators that fix 0..i-1 (orbit-stabiliser at every level)."""
    order = 1
    for i in range(n):
        level = [g for g in generators if all(g[j] == j for j in range(i))]
        orbit, frontier = {i}, [i]
        while frontier:
            x = frontier.pop()
            for g in level:
                if g[x] not in orbit:
                    orbit.add(g[x])
                    frontier.append(g[x])
        order *= len(orbit)
    return order


def cycle_count(perm):
    seen, cycles = set(), 0
    for i in range(len(perm)):
        if i not in seen:
            cycles += 1
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return cycles


# ---------------------------------------------------------------------------
# The sweep.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key,k", SWEEPS)
def test_orbit_sweep_matches_full_enumeration(key, k):
    a = arrangement_of(key)
    assert not is_nonresonant(a, k)
    got = _bound_intervals.__wrapped__(a, k, ())
    assert as_tuples(got) == bound_intervals_oracle(a, k)


def test_extra_shifts_share_the_seen_set():
    # the Ceva(3) witness, a shift in its orbit and one outside the cube are
    # tried first; the enumeration then skips what their orbits cover
    a = catalog.get("ceva3").arrangement
    perm = automorphisms(a)[0]
    witness = (-1, -1, -1) + (0,) * 6
    moved = tuple(witness[perm.index(i)] for i in range(a.n))
    extra_shifts = (moved, witness, (1,) + (0,) * 8)
    got = _bound_intervals.__wrapped__(a, 3, extra_shifts)
    assert as_tuples(got) == bound_intervals_oracle(a, 3, extra_shifts)
    assert got[1].witness_shift == moved
    # the witness is in the orbit of moved, and 13 of the 14 orbits are left
    stream = list(_candidates(a, extra_shifts))
    assert stream[:2] == [moved, (1,) + (0,) * 8] and len(stream) == 15


def fresh_copy(a):
    """An equal arrangement that has derived nothing yet."""
    return pickle.loads(pickle.dumps(a))


def test_capped_search_keeps_every_answer(monkeypatch):
    # a capped search finds fewer generators; the sweep then skips fewer
    # shifts but returns the same intervals and witnesses
    sweeps = (("ceva3", 3), ("hessian-decone", 2), ("braid-a4-decone", 3))
    full = {key: automorphisms(CASES[key]()) for key, _ in sweeps}
    monkeypatch.setattr(covers, "AUTOMORPHISM_NODE_BUDGET", 3)
    for key, k in sweeps:
        a = fresh_copy(CASES[key]())
        capped = automorphisms(a)
        assert len(capped) < len(full[key])
        got = _bound_intervals.__wrapped__(a, k, ())
        assert as_tuples(got) == bound_intervals_oracle(a, k)


# ---------------------------------------------------------------------------
# The orbit representatives every k shares.
# ---------------------------------------------------------------------------

def mixed_extras(a):
    """A shift of the cube, its image under a generator that moves it, a
    shift outside the cube, and the zero shift twice."""
    n = a.n
    inside = (0, -1, -1) + (0,) * (n - 3)
    images = (tuple(inside[perm.index(i)] for i in range(n))
              for perm in automorphisms(a))
    moved = next(shift for shift in images if shift != inside)
    return (moved, (0,) * n, inside, (2,) + (0,) * (n - 1), (0,) * n)


def test_every_k_reads_one_walk():
    # the k = 3 sweep of Ceva(3) reaches every support size and derives each
    # once; k = 9 then derives none
    a = fresh_copy(CASES["ceva3"]())
    info = cube_representatives.cache_info()
    misses = info.misses
    at_3 = _bound_intervals.__wrapped__(a, 3, ())
    assert info.misses == misses + a.n + 1
    assert sum(len(cube_representatives(a, size)) for size in range(a.n + 1)) == 14
    at_9 = _bound_intervals.__wrapped__(a, 9, ())
    assert info.misses == misses + a.n + 1
    assert as_tuples(at_3) == bound_intervals_oracle(a, 3)
    assert as_tuples(at_9) == bound_intervals_oracle(a, 9)


@pytest.mark.parametrize("key", sorted(CASES))
def test_stream_does_not_depend_on_the_walk_state(key):
    a = CASES[key]()
    extras = mixed_extras(a)
    cold = {extra: list(_candidates(fresh_copy(a), extra)) for extra in ((), extras)}
    assert cold == {extra: list(candidates_oracle(a, extra)) for extra in cold}
    assert extras[2] not in cold[extras]
    # once every support size is derived
    assert {extra: list(_candidates(a, extra)) for extra in cold} == cold
    # two readers of one fresh copy, taking turns
    b = fresh_copy(a)
    readers = {extra: _candidates(b, extra) for extra in cold}
    taken = {extra: [] for extra in cold}
    while readers:
        for extra, reader in list(readers.items()):
            shift = next(reader, None)
            if shift is None:
                del readers[extra]
            else:
                taken[extra].append(shift)
    assert taken == cold


def test_first_candidate_builds_no_automorphisms():
    # the zero shift is the one mask of size 0, which needs no orbit
    a = fresh_copy(CASES["ceva3"]())
    misses = automorphisms.cache_info().misses
    assert next(_candidates(a, ())) == (0,) * a.n
    assert automorphisms.cache_info().misses == misses


def test_threads_share_one_walk():
    # four threads read the stream of one fresh copy while the interpreter
    # switches often, and each reads the single-thread stream
    a = CASES["hessian-decone"]()
    want = list(_candidates(a, ()))
    b = fresh_copy(a)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            got = list(pool.map(lambda _: list(_candidates(b, ())), range(4)))
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 4 and len(want) == 120


# ---------------------------------------------------------------------------
# The generators.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key", sorted(CASES) + sorted(OTHERS))
def test_generators_preserve_affine_supports(key):
    a = arrangement_of(key)
    affine = {frozenset(f.support) for f in closure_lattice(a).flats if a.n not in f.support}
    for perm in automorphisms(a):
        assert sorted(perm) == list(range(a.n))
        assert {image(s, perm) for s in affine} == affine


@pytest.mark.parametrize(
    "key,order,orbits",
    [("ceva3", 432, 14), ("hessian-decone", 36, 120), ("maclane-decone", 6, 32),
     ("selberg", 4, 14)],
)
def test_group_orders_and_shift_orbits(key, order, orbits):
    a = CASES[key]()
    generators = automorphisms(a)
    group = group_elements(generators, a.n)
    assert len(group) == chain_order(generators, a.n) == order
    assert shift_orbits(generators, a.n) == orbits
    assert len(list(_candidates(a, ()))) == orbits
    # Burnside: the orbit count is the mean number of fixed shifts
    assert sum(2 ** cycle_count(g) for g in group) == orbits * order


def test_generator_search_is_bounded():
    # every permutation of 16 generic planes is an automorphism; the search
    # returns a stabiliser chain of S_16 without enumerating the group
    a = generic_central(16)
    closure_lattice(a)  # built before the clock starts
    start = time.perf_counter()
    generators = automorphisms(a)
    assert time.perf_counter() - start < 1.0
    assert len(generators) <= a.n * (a.n - 1) // 2
    assert chain_order(generators, a.n) == factorial(16)


# ---------------------------------------------------------------------------
# Hyperplane order.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key", sorted(CASES))
def test_intervals_invariant_under_hyperplane_permutation(key):
    # witnesses depend on the order; (lower, upper, resolved) do not
    a = CASES[key]()
    rng = random.Random(f"permute-{key}")
    for _ in range(2):
        perm = list(range(a.n))
        rng.shuffle(perm)
        pa = permuted(a, perm)
        for k in range(1, a.n + 1):
            want = [(iv.lower, iv.upper, iv.resolved) for iv in local_betti(a, k)]
            assert [(iv.lower, iv.upper, iv.resolved) for iv in local_betti(pa, k)] == want
