"""Two independent oracles for mod-N cohomology.

cohomology_modN counts generators through ranks over F_p for the primes
p | N (universal coefficient theorem).  It is checked against:

* an enumeration of the actual module: for complexes small enough to walk
  Z_N^n, build ker(D mod N) / im(D_prev mod N) as an explicit finite
  abelian group and count its minimal generators as the max over p | N of
  dim_(F_p) G/pG;
* the Smith-normal-form route the package used before: a Smith form of the
  outgoing differential that tracks its right transform V and the inverse W,
  a presentation of the quotient in the kernel-lattice basis, and a count of
  its invariant factors different from 1.  It shares no elimination code with
  the rank-mod-p route.
"""

import random
from itertools import product
from math import gcd

import pytest

from arrcover import catalog
from arrcover.arrangement import build, Hyperplane
from arrcover.cyclofield import cyc_reduce
from arrcover.exactlin import cohomology_modN, smith_normal_form
from arrcover.osalgebra import aomoto_matrices
from test_geometry_oracle import braid_a4_decone


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
    diffs = [complex_.differential(q) for q in range(len(sizes))]
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


# ---------------------------------------------------------------------------
# The Smith-normal-form route.
# ---------------------------------------------------------------------------

def smith_reduce_with_transforms(matrix, ncols=None):
    """Smith form of matrix with the right transform V and its inverse W,
    so that U * M * V is diagonal and V @ W == I.  Same pivoting as
    exactlin.smith_normal_form."""
    D = [list(map(int, row)) for row in matrix]
    nr = len(D)
    nc = ncols if ncols is not None else (len(D[0]) if D else 0)
    V = [[int(i == j) for j in range(nc)] for i in range(nc)]
    W = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def col_add(j, i, q):
        # C_j += q * C_i; V multiplies by the elementary matrix, W by its inverse
        for row in D:
            row[j] += q * row[i]
        for row in V:
            row[j] += q * row[i]
        wi, wj = W[i], W[j]
        for c in range(nc):
            wi[c] -= q * wj[c]

    def col_swap(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]
        W[i], W[j] = W[j], W[i]

    k = 0
    size = min(nr, nc)
    while k < size:
        best = None
        for r in range(k, nr):
            for c in range(k, nc):
                v = abs(D[r][c])
                if v and (best is None or v < best[0]):
                    best = (v, r, c)
        if best is None:
            break
        _, pr, pc = best
        if pr != k:
            D[k], D[pr] = D[pr], D[k]
        if pc != k:
            col_swap(k, pc)
        p = D[k][k]
        dirty = False
        for r in range(k + 1, nr):
            if D[r][k]:
                q = D[r][k] // p
                if q:
                    row, prow = D[r], D[k]
                    for c in range(k, nc):
                        row[c] -= q * prow[c]
                if D[r][k]:
                    dirty = True
        for c in range(k + 1, nc):
            if D[k][c]:
                q = D[k][c] // p
                if q:
                    col_add(c, k, -q)
                if D[k][c]:
                    dirty = True
        if dirty:
            continue
        bad = next(
            ((r, c) for r in range(k + 1, nr) for c in range(k + 1, nc) if D[r][c] % p),
            None,
        )
        if bad is not None:
            row, brow = D[k], D[bad[0]]
            for c in range(nc):
                row[c] += brow[c]
            continue
        k += 1

    factors = tuple(abs(D[i][i]) for i in range(size))
    return factors, V, W


def snf_min_generators(d_out, d_prev, nq, n_prev, N):
    """Minimal generator count of ker(d_out mod N) / im(d_prev mod N).

    The kernel lattice K = {x : d_out x == 0 mod N} is V * diag(t_i) Z^nq
    where U d_out V is diagonal with entries s_i and t_i = N/gcd(s_i, N); the
    quotient by N Z^nq + im(d_prev) is presented in that basis and the
    invariant factors different from 1 are counted.
    """
    if nq == 0:
        return 0
    factors, V, W = smith_reduce_with_transforms(d_out, ncols=nq)
    padded = list(factors) + [0] * (nq - len(factors))
    t = [N // gcd(s, N) for s in padded]
    rel = [[0] * (nq + n_prev) for _ in range(nq)]
    for i in range(nq):
        scale = N // t[i]  # == gcd(s_i, N)
        for j in range(nq):
            rel[i][j] = scale * W[i][j]
    for c in range(n_prev):
        col = [d_prev[r][c] for r in range(nq)]
        for i in range(nq):
            y = sum(W[i][j] * col[j] for j in range(nq))
            assert y % t[i] == 0, "boundary column escapes the kernel lattice"
            rel[i][nq + c] = y // t[i]
    presented = smith_normal_form(rel).invariant_factors
    assert len(presented) == nq and 0 not in presented, "presentation lost full rank"
    assert all(N % d == 0 for d in presented), "invariant factor does not divide N"
    return sum(1 for d in presented if d != 1)


def snf_profile(complex_, N):
    sizes = complex_.dims()
    diffs = [complex_.differential(q) for q in range(len(sizes))]
    dims = []
    for q, nq in enumerate(sizes):
        d_prev = diffs[q - 1] if q > 0 else [[] for _ in range(nq)]
        n_prev = sizes[q - 1] if q > 0 else 0
        dims.append(snf_min_generators(diffs[q], d_prev, nq, n_prev, N))
    return tuple(dims)


SNF_CASES = {
    "selberg": lambda: catalog.get("selberg").arrangement,
    "maclane-decone": lambda: catalog.get("maclane-decone").arrangement,
    "hessian-decone": lambda: catalog.get("hessian-decone").arrangement,
    "ceva3": lambda: catalog.get("ceva3").arrangement,
    "braid-a4-decone": braid_a4_decone,
}


def oracle_weights(key, n):
    """All ones, weights 1/k shifted by -1 on every third hyperplane for
    k = 2 and 3, and one seeded mixed-sign vector with zeros."""
    shifted = [
        tuple(1 - k if h % 3 == 0 else 1 for h in range(n)) for k in (2, 3)
    ]
    rng = random.Random(f"modn-{key}")
    mixed = tuple(rng.choice((0, 0, 1, -1, 2, -3, 5)) for _ in range(n))
    return [(1,) * n, *shifted, mixed]


@pytest.mark.parametrize("key", sorted(SNF_CASES))
def test_modn_matches_snf_route(key):
    a = SNF_CASES[key]()
    for weights in oracle_weights(key, a.n):
        complex_ = aomoto_matrices(a, weights)
        for N in (2, 3, 4, 6, 8, 9, 12):
            assert cohomology_modN(complex_, N).dims == snf_profile(complex_, N), (
                weights,
                N,
            )
