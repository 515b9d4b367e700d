"""Independent oracle for mod-N cohomology: enumerate the actual module.

For complexes small enough to enumerate Z_N^n directly, build
ker(D mod N) / im(D_prev mod N) as an explicit finite abelian group and count
its minimal generators via max over primes p | N of dim_(F_p) G/pG.  This
route shares nothing with the Smith-normal-form path it checks.
"""

from itertools import product

from arrcover.arrangement import build, Hyperplane
from arrcover.cyclofield import cyc_reduce
from arrcover.exactlin import cohomology_modN
from arrcover.osalgebra import aomoto_matrices


def tiny(d, dim, *forms):
    hps = [
        Hyperplane(cyc_reduce([f[0]], d), tuple(cyc_reduce([c], d) for c in f[1:]))
        for f in forms
    ]
    return build(dim, d, hps)


def subgroup_closure(generators, n, N):
    zero = (0,) * n
    seen = {zero}
    frontier = [zero]
    while frontier:
        base = frontier.pop()
        for g in generators:
            nxt = tuple((b + v) % N for b, v in zip(base, g))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def min_generators_oracle(d_out, d_prev, nq, N):
    """Enumerate ker/im over Z_N and count minimal generators."""
    if nq == 0:
        return 0
    kernel = [
        x for x in product(range(N), repeat=nq)
        if all(sum(row[c] * x[c] for c in range(nq)) % N == 0 for row in d_out)
    ]
    image_gens = [
        tuple(d_prev[r][c] % N for r in range(nq))
        for c in range(len(d_prev[0]) if d_prev and d_prev[0] else 0)
    ]
    image = subgroup_closure(image_gens, nq, N)
    order_G = len(kernel) // len(image)
    mu = 0
    p = 2
    while p <= N:
        if N % p == 0:
            # G/pG has order |K| / |I + pK|
            denom_gens = image_gens + [tuple((p * v) % N for v in x) for x in kernel]
            denom = subgroup_closure(denom_gens, nq, N)
            quotient_order = len(kernel) // len(denom)
            dim = 0
            while quotient_order > 1:
                quotient_order //= p
                dim += 1
            mu = max(mu, dim)
        p += 1
    assert order_G >= 1
    return mu


def oracle_profile(complex_, N):
    sizes = complex_.dims()
    diffs = complex_.diffs
    dims = []
    for q, nq in enumerate(sizes):
        d_prev = diffs[q - 1] if q > 0 else [[] for _ in range(nq)]
        dims.append(min_generators_oracle(diffs[q], d_prev, nq, N))
    return tuple(dims)


def test_modn_matches_enumeration_oracle_small_arrangements():
    boolean_pair = tiny(1, 2, (0, 1, 0), (0, 0, 1))
    triangle = tiny(1, 2, (0, 1, 0), (0, 0, 1), (-1, 1, 1))
    concurrent = tiny(1, 2, (0, 1, 0), (0, 0, 1), (0, 1, -1))
    cases = [
        (boolean_pair, (1, 1)),
        (boolean_pair, (1, 2)),
        (boolean_pair, (2, 3)),
        (triangle, (1, 1, 1)),
        (triangle, (1, 2, 1)),
        (triangle, (2, 1, 3)),
        (concurrent, (1, 1, 1)),
        (concurrent, (1, -1, 2)),
    ]
    for a, weights in cases:
        complex_ = aomoto_matrices(a, weights)
        for N in (2, 3, 4, 6):
            assert cohomology_modN(complex_, N).dims == oracle_profile(complex_, N), (
                weights,
                N,
            )


def test_modn_oracle_detects_composite_structure():
    # sanity-check the oracle itself on a known presentation:
    # Z_4-module Z/2 x Z/4 needs two generators, Z/2 x Z/2 needs two
    assert min_generators_oracle([[2, 0]], [[], []], 2, 4) == 2  # ker = Z/2 + Z/4
    assert min_generators_oracle([[2, 0], [0, 2]], [[], []], 2, 4) == 2
    assert min_generators_oracle([[1, 0]], [[], []], 2, 4) == 1
