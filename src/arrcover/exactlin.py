"""Exact integer linear algebra for the weighted complexes.

Provides Smith normal form with deterministic smallest-pivot reduction,
fraction-free rank over Q, rank over Z_p, cohomology dimensions of a weighted
complex over Q, and minimal-generator ranks of its cohomology modules over
Z_N.  There is one elimination routine per ring: Z_N goes through the Z_p
ranks of the primes dividing N (universal coefficient theorem).  Everything
is arbitrary-precision; the differentials arrive as dense integer rows
(AomotoComplex.diffs) and are copied before elimination.
"""

from __future__ import annotations

from .cyclofield import factorize
from .osalgebra import AomotoComplex
from .record import record


@record
class SnfResult:
    """Diagonal of the Smith normal form: d_1 | d_2 | ..., zeros trailing."""

    invariant_factors: tuple[int, ...]

    def __init__(self, invariant_factors):
        self.__dict__["invariant_factors"] = invariant_factors

    @property
    def rank(self) -> int:
        return sum(1 for d in self.invariant_factors if d != 0)


@record
class CohomologyProfile:
    """Per-degree cohomology dimensions of a complex over one ring."""

    ring: str
    dims: tuple[int, ...]

    def __init__(self, ring, dims):
        self.__dict__.update(ring=ring, dims=dims)


# ---------------------------------------------------------------------------
# Ranks.
# ---------------------------------------------------------------------------

def rank_over_Q(matrix) -> int:
    """Rank of an integer matrix via fraction-free (Bareiss) elimination."""
    rows = [list(map(int, row)) for row in matrix]
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    rank = 0
    prev = 1
    for col in range(nc):
        piv = next((r for r in range(rank, nr) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank][col]
        for r in range(rank + 1, nr):
            factor = rows[r][col]
            row = rows[r]
            prow = rows[rank]
            for c in range(col + 1, nc):
                row[c] = (p * row[c] - factor * prow[c]) // prev
            row[col] = 0
        prev = p
        rank += 1
        if rank == nr:
            break
    return rank


def rank_mod_p(matrix, p: int) -> int:
    """Rank over the field Z_p (p prime) by Gaussian elimination."""
    rows = [[v % p for v in row] for row in matrix]
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    rank = 0
    for col in range(nc):
        piv = next((r for r in range(rank, nr) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(inv * v) % p for v in rows[rank]]
        for r in range(rank + 1, nr):
            f = rows[r][col]
            if f:
                rows[r] = [(v - f * w) % p for v, w in zip(rows[r], rows[rank])]
        rank += 1
        if rank == nr:
            break
    return rank


# ---------------------------------------------------------------------------
# Smith normal form.
# ---------------------------------------------------------------------------

def smith_normal_form(matrix) -> SnfResult:
    """Invariant factors under unimodular row/column operations.

    Pivoting is deterministic: the entry of smallest absolute value in the
    remaining block, ties broken by position.
    """
    D = [list(map(int, row)) for row in matrix]
    nr = len(D)
    nc = len(D[0]) if D else 0
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
            for row in D:
                row[k], row[pc] = row[pc], row[k]
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
                    for row in D:
                        row[c] -= q * row[k]
                if D[k][c]:
                    dirty = True
        if dirty:
            continue  # a smaller remainder exists; re-pick the pivot
        bad = next(
            ((r, c) for r in range(k + 1, nr) for c in range(k + 1, nc) if D[r][c] % p),
            None,
        )
        if bad is not None:
            # fold the offending row into row k to force a smaller pivot
            row, brow = D[k], D[bad[0]]
            for c in range(nc):
                row[c] += brow[c]
            continue
        k += 1
    return SnfResult(invariant_factors=tuple(abs(D[i][i]) for i in range(size)))


# ---------------------------------------------------------------------------
# Cohomology of weighted complexes.
# ---------------------------------------------------------------------------

def cohomology_Q(complex_: AomotoComplex) -> CohomologyProfile:
    """dim H^q over Q: basis size minus the two adjacent differential ranks.

    By chain equivalence this equals the cohomology of the complex with
    weights divided by any nonzero integer, so integer weight vectors stand
    in for rational weight systems.
    """
    sizes = complex_.dims()
    ranks = [rank_over_Q(d) for d in complex_.diffs]
    dims = []
    for q, nq in enumerate(sizes):
        r_out = ranks[q]
        r_in = ranks[q - 1] if q > 0 else 0
        dims.append(nq - r_out - r_in)
    return CohomologyProfile(ring="rationals", dims=tuple(dims))


def cohomology_modN(complex_: AomotoComplex, N: int) -> CohomologyProfile:
    """Minimal generator counts of H^q(A_N, a_k wedge) as Z_N-modules.

    The complex C is free over Z, so the universal coefficient theorem gives
    H^q(C (x) Z_N) = H^q(C) (x) Z_N + Tor(H^{q+1}(C), Z_N).  Reducing that
    module mod a prime p | N gives H^q(C (x) F_p), and a finite Z_N-module
    needs as many generators as the largest of these F_p-dimensions.  So the
    count in degree q is the maximum over the primes p | N of
    n_q - rank_p(D_q) - rank_p(D_{q-1}).
    """
    if N < 2:
        raise ValueError("modulus must be >= 2")
    sizes = complex_.dims()
    dims = [0] * len(sizes)
    for p, _ in factorize(N):
        ranks = [rank_mod_p(d, p) for d in complex_.diffs]
        for q, nq in enumerate(sizes):
            dims[q] = max(dims[q], nq - ranks[q] - (ranks[q - 1] if q > 0 else 0))
    return CohomologyProfile(ring=f"integers-mod-{N}", dims=tuple(dims))
