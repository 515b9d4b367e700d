"""Exact integer linear algebra for the weighted complexes.

Provides Smith normal form with deterministic smallest-pivot reduction,
fraction-free rank over Q, rank over Z_p on packed rows, cohomology
dimensions of a weighted complex over Q, and minimal-generator ranks of its
cohomology modules over Z_N.  There is one elimination routine per ring: Z_N
goes through the Z_p ranks of the primes dividing N (universal coefficient
theorem).  Over Q, cohomology_Q takes each differential's rank from its rank
mod CERTIFICATE_PRIME where a certificate proves the two equal, which needs
D_q D_{q-1} = 0: the rank mod p bounds the rank over Q from below, and
n_q - rank D_{q-1} and the row count bound it from above.  Only where the
bounds differ does it run the fraction-free rank.  Everything is
arbitrary-precision; the differentials arrive as dense integer rows
(AomotoComplex.diffs) and are copied before elimination.
"""

from __future__ import annotations

from .cyclofield import factorize
from .osalgebra import AomotoComplex
from .record import record

# The prime whose F_p ranks cohomology_Q certifies as ranks over Q.  A small
# prime keeps the packed slots of rank_mod_p narrow; on the sweep's matrices
# it was faster than 65521, 2^31 - 1 and 2^61 - 1.
CERTIFICATE_PRIME = 32749


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
    """Rank over the field Z_p (p prime) by Gaussian elimination on packed rows.

    Each row of an nr-row matrix is one int with a w-bit slot per column,
    w = 2*bitlen(p) + bitlen(nr) + 1, its entries first reduced into [0, p).
    Slots are reduced mod p only when read.  At each column the pivot is the
    first remaining row whose lowest slot is nonzero mod p; the rest of the
    pivot row is unpacked once, scaled by the inverse of that slot, reduced
    and repacked, and every later row r whose slot f is nonzero becomes
    r + (p - f)*pivot, one big-int multiply-add.  Each remaining row then
    drops its lowest slot (zero mod p by now), so column c's slot is at the
    bottom when column c is read.  A row gets at most one update per pivot,
    so a slot stays below (p - 1) + nr*(p - 1)^2 < 2^w and no carry crosses
    into the next slot.
    """
    nr = len(matrix)
    nc = len(matrix[0]) if matrix else 0
    w = 2 * p.bit_length() + nr.bit_length() + 1
    mask = (1 << w) - 1
    rows = []
    for row in matrix:
        packed = 0
        for c, v in enumerate(row):
            if v:
                packed |= (v % p) << (c * w)
        rows.append(packed)
    rank = 0
    for col in range(nc):
        for piv in range(rank, nr):
            f = (rows[piv] & mask) % p
            if f:
                break
        else:
            rows[rank:] = [r >> w for r in rows[rank:]]
            continue
        rest = rows[piv] >> w
        rows[piv] = rows[rank]
        rank += 1
        if rank == nr:
            break
        inv = pow(f, -1, p)
        pivot = 0
        for shift in range((nc - col - 2) * w, -1, -w):
            pivot = (pivot << w) | ((rest >> shift) & mask) * inv % p
        for r in range(rank, nr):
            row = rows[r]
            f = (row & mask) % p
            rows[r] = (row >> w) + (p - f) * pivot if f else row >> w
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

    Each rank r_q of D_q is certified from its rank mod CERTIFICATE_PRIME,
    which needs D_q D_{q-1} = 0.  With r_{-1} = 0, lo = rank_p(D_q) is at
    most r_q (a minor nonzero mod p is a nonzero integer), and r_q is at most
    hi = min(rows of D_q, n_q - r_{q-1}) (im D_{q-1} lies in ker D_q).  So
    lo == hi fixes r_q; only lo < hi takes the exact Bareiss rank, and
    lo > hi raises ArithmeticError: the input is not a complex.
    """
    sizes = complex_.dims()
    dims = []
    r_in = 0
    for q, (nq, d) in enumerate(zip(sizes, complex_.diffs)):
        lo = rank_mod_p(d, CERTIFICATE_PRIME)
        hi = min(len(d), nq - r_in)
        if lo > hi:
            raise ArithmeticError(
                f"rank {lo} of the degree-{q} differential exceeds {hi}: not a complex"
            )
        r_out = lo if lo == hi else rank_over_Q(d)
        dims.append(nq - r_out - r_in)
        r_in = r_out
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
