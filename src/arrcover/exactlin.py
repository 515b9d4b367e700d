"""Exact integer linear algebra for the weighted complexes.

Provides Smith normal form with deterministic smallest-pivot reduction,
fraction-free rank over Q, rank over Z_p, cohomology dimensions of a weighted
complex over Q, and minimal-generator ranks of its cohomology modules over
Z_N.  Everything is arbitrary-precision; the differentials arrive as dense
integer rows (AomotoComplex.diffs) and are copied before elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .cyclofield import factorize
from .osalgebra import AomotoComplex


@dataclass(frozen=True)
class SnfResult:
    """Diagonal of the Smith normal form: d_1 | d_2 | ..., zeros trailing."""

    invariant_factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.invariant_factors if d != 0)


@dataclass(frozen=True)
class CohomologyProfile:
    """Per-degree cohomology dimensions of a complex over one ring."""

    ring: str
    dims: tuple[int, ...]


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


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == ((n, 1),)


# ---------------------------------------------------------------------------
# Smith normal form.
# ---------------------------------------------------------------------------

def _smith_reduce(matrix, want_right: bool, ncols: int | None = None):
    """Reduce to Smith form; optionally track the right transform V and its
    inverse W, so that U * M * V is diagonal and V @ W == I."""
    D = [list(map(int, row)) for row in matrix]
    nr = len(D)
    nc = ncols if ncols is not None else (len(D[0]) if D else 0)
    V = [[int(i == j) for j in range(nc)] for i in range(nc)] if want_right else None
    W = [[int(i == j) for j in range(nc)] for i in range(nc)] if want_right else None

    def col_add(j, i, q):
        # C_j += q * C_i; V multiplies by the elementary matrix, W by its inverse
        for row in D:
            row[j] += q * row[i]
        if want_right:
            for row in V:
                row[j] += q * row[i]
            wi, wj = W[i], W[j]
            for c in range(nc):
                wi[c] -= q * wj[c]

    def col_swap(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        if want_right:
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

    factors = tuple(abs(D[i][i]) for i in range(size))
    return factors, V, W


def smith_normal_form(matrix) -> SnfResult:
    """Invariant factors under unimodular row/column operations.

    Pivoting is deterministic: the entry of smallest absolute value in the
    remaining block, ties broken by position.
    """
    factors, _, _ = _smith_reduce(matrix, want_right=False)
    return SnfResult(invariant_factors=factors)


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


def _min_generators_modN(d_out, d_prev, nq: int, n_prev: int, N: int) -> int:
    """Minimal generator count of ker(d_out mod N) / im(d_prev mod N).

    The kernel lattice K = {x : d_out x == 0 mod N} is V * diag(t_i) Z^nq
    where U d_out V is diagonal with entries s_i and t_i = N/gcd(s_i, N); the
    quotient by N Z^nq + im(d_prev) is presented in that basis and the
    invariant factors different from 1 are counted.
    """
    if nq == 0:
        return 0
    factors, V, W = _smith_reduce(d_out, want_right=True, ncols=nq)
    padded = list(factors) + [0] * (nq - len(factors))
    t = [N // gcd(s, N) for s in padded]
    width = nq + n_prev
    rel = [[0] * width for _ in range(nq)]
    for i in range(nq):
        scale = N // t[i]  # == gcd(s_i, N)
        wrow = W[i]
        for j in range(nq):
            rel[i][j] = scale * wrow[j]
    for c in range(n_prev):
        col = [d_prev[r][c] for r in range(nq)]
        for i in range(nq):
            y = sum(W[i][j] * col[j] for j in range(nq))
            if y % t[i]:
                raise ArithmeticError("boundary column escapes the kernel lattice")
            rel[i][nq + c] = y // t[i]
    presented = _smith_reduce(rel, want_right=False)[0]
    if len(presented) != nq or any(d == 0 for d in presented):
        raise ArithmeticError("presentation matrix lost full rank")
    for d in presented:
        if N % d:
            raise ArithmeticError("invariant factor does not divide the modulus")
    return sum(1 for d in presented if d != 1)


def cohomology_modN(complex_: AomotoComplex, N: int) -> CohomologyProfile:
    """Minimal generator counts of H^q(A_N, a_k wedge) as Z_N-modules.

    For prime N this equals the Z_p-dimension; both paths are computed and
    must agree, which is asserted here.
    """
    if N < 2:
        raise ValueError("modulus must be >= 2")
    sizes = complex_.dims()
    diffs = complex_.diffs
    dims = []
    for q, nq in enumerate(sizes):
        d_out = diffs[q]
        d_prev = diffs[q - 1] if q > 0 else [[] for _ in range(nq)]
        n_prev = sizes[q - 1] if q > 0 else 0
        dims.append(_min_generators_modN(d_out, d_prev, nq, n_prev, N))
    if is_prime(N):
        ranks = [rank_mod_p(d, N) for d in diffs]
        for q, nq in enumerate(sizes):
            field_dim = nq - ranks[q] - (ranks[q - 1] if q > 0 else 0)
            if field_dim != dims[q]:
                raise ArithmeticError(
                    f"mod-{N} paths disagree in degree {q}: {dims[q]} vs {field_dim}"
                )
    return CohomologyProfile(ring=f"integers-mod-{N}", dims=tuple(dims))
