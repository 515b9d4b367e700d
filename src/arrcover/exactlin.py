"""Exact integer linear algebra for the weighted complexes.

Provides Smith normal form with deterministic smallest-pivot reduction,
fraction-free rank over Q, rank over Z_p on packed vectors, cohomology
dimensions of a weighted complex over Q, and minimal-generator ranks of its
cohomology modules over Z_N.  There is one elimination routine per ring: Z_N
goes through the Z_p ranks of the primes dividing N (universal coefficient
theorem).  Over Q, cohomology_Q takes each differential's rank from its rank
mod CERTIFICATE_PRIME where a certificate proves the two equal, which needs
D_q D_{q-1} = 0: the rank mod p bounds the rank over Q from below, and
n_q - rank D_{q-1} and the row count bound it from above.  Only where the
bounds differ does it run the fraction-free rank.  Everything is
arbitrary-precision.  The ranks mod p of a complex add to the all-ones
differentials, packed here once per prime (packed), the entries of the few
generators whose weight is off 1 mod p, and leave out the columns at the
pivot rows of D_{q-1}.  Both shortcuts rest on one proof, once per algebra,
that every weight vector gives a complex (_check_complex).
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from operator import le

from .cyclofield import factorize
from .osalgebra import AomotoComplex, OSAlgebra
from .record import derived, record

# The prime whose F_p ranks cohomology_Q certifies as ranks over Q.  A small
# prime keeps the packed slots of _eliminate narrow.  On one shift-sweep pass
# 65521 was as fast, 2^31 - 1 and 2^61 - 1 were 15% and 28% slower, and 251
# was 6% faster with the same Bareiss fallbacks; but the smaller the prime,
# the likelier a rank drops mod p and falls back to Bareiss.
CERTIFICATE_PRIME = 32749


@record
class SnfResult:
    """Diagonal of the Smith normal form: d_1 | d_2 | ..., zeros trailing."""

    invariant_factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.invariant_factors if d != 0)


@record
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


def _eliminate(vectors, slots: int, width: int, p: int):
    """(rank over Z_p, pivot slots) of packed vectors, by Gaussian elimination.

    Each vector is one int with `slots` width-bit slots, slot s at bit
    s*width, holding nonnegative integers read mod p; vectors is consumed.
    The caller picks width so that every slot stays below 2^(width - 1)
    throughout; then no carry crosses into the next slot.

    Slots are taken in order.  At each slot the pivot is the first remaining
    vector whose lowest slot `lead` is nonzero mod p, and every later vector
    v whose lowest slot f is nonzero becomes v + g*rest, with rest the other
    slots of the pivot reduced mod p and g = -f/lead mod p: one big-int
    multiply-add that adds less than p^2 to each slot.  A vector gets at most
    one update per pivot.  Each remaining vector then drops its lowest slot
    (zero mod p by now), so slot s is at the bottom when slot s is read.  The
    pivot slots are the first slots, in order, on which the vectors have
    full rank.

    rest is reduced once per pivot, when the first vector needs it, in a few
    big-int operations whatever the slot count: its even and odd slots are
    taken apart, 2*width bits from each other, so a slot x < 2^(width - 1)
    times magic = floor(2^shift/p) + 1, shift = width - 1 + bitlen(p), stays
    inside its 2*width bits, and (x*magic) >> shift = floor(x/p) (Granlund
    and Montgomery, Division by invariant integers using multiplication,
    1994); the quotient has at most width - bitlen(p) bits.
    """
    n = len(vectors)
    mask = (1 << width) - 1
    bits = p.bit_length()
    shift = width - 1 + bits
    magic = (1 << shift) // p + 1
    pairs = (slots + 1) // 2
    ones = ((1 << (2 * width * pairs)) - 1) // ((1 << (2 * width)) - 1)
    even = ones * mask
    quotient = ones * ((1 << (width - bits)) - 1)
    pivots = []
    for slot in range(slots):
        rank = len(pivots)
        if rank == n:
            break
        for piv in range(rank, n):
            lead = (vectors[piv] & mask) % p
            if lead:
                break
        else:
            vectors[rank:] = [v >> width for v in vectors[rank:]]
            continue
        pivots.append(slot)
        rest = vectors[piv] >> width
        vectors[piv] = vectors[rank]
        inv = None
        for r in range(rank + 1, n):
            v = vectors[r]
            f = (v & mask) % p
            if not f:
                vectors[r] = v >> width
                continue
            if inv is None:
                inv = pow(lead, -1, p)
                lo = rest & even
                hi = (rest >> width) & even
                lo -= p * (((lo * magic) >> shift) & quotient)
                hi -= p * (((hi * magic) >> shift) & quotient)
                rest = lo | (hi << width)
            vectors[r] = (v >> width) + (p - f) * inv % p * rest
    return len(pivots), pivots


@derived
def _check_complex(algebra: OSAlgebra) -> None:
    """Prove over Z that e_h e_h' + e_h' e_h = 0 as maps from each degree q
    to q+2, for all h <= h' (for h = h' that is 2 e_h e_h = 0).  Then
    (sum_h w_h e_h)^2 = sum_h w_h^2 e_h e_h
    + sum_{h < h'} w_h w_h' (e_h e_h' + e_h' e_h) = 0 for every weight
    vector w, so each AomotoComplex of the algebra is a complex.  A proof
    that fails raises ArithmeticError and stores nothing.
    """
    n = len(algebra.generators)
    for q in range(len(algebra.bases) - 2):
        after = []
        for per_q in algebra.generators:
            by_col: dict[int, list[tuple[int, int]]] = {}
            for r, c, v in per_q[q + 1]:
                by_col.setdefault(c, []).append((r, v))
            after.append(by_col)
        for h, h2 in combinations_with_replacement(range(n), 2):
            product: dict[tuple[int, int], int] = {}
            for first, second in ((h, h2), (h2, h)):
                outer = after[second]
                for r, c, v in algebra.generators[first][q]:
                    for r2, v2 in outer.get(r, ()):
                        product[r2, c] = product.get((r2, c), 0) + v * v2
            if any(product.values()):
                raise ArithmeticError(
                    f"e_{h} e_{h2} + e_{h2} e_{h} is nonzero on degree {q}: not a complex"
                )


@derived
def packed(algebra: OSAlgebra, p: int):
    """Per degree q below the top: (width, base), the all-ones differential
    D_q packed mod p.

    base[c] is column c of D_q at all-ones weights, the sum over h of the
    entries of e_h wedge in that column each reduced into [0, p), as one int
    with a width-bit slot per monomial of bases[q+1] (row r at bit r*width).
    _ranks_mod_p adds to a copy of base the entries (f_h*v mod p) of the
    generators h whose weight is off 1 mod p.  Each generator has at most
    one entry per slot, so base stays below n*p and the term entries add
    less than n*p more; with the n_q additions below p^2 each, one per pivot
    of exactlin's elimination over the n_q columns, a slot stays below
    2n*p + n_q*p^2 <= (2n + n_q)*p^2 < 2^(width - 1) for
    width = 2*bitlen(p) + bitlen(2n + n_q) + 1.

    Packing first proves, once per algebra, that the algebra gives a complex
    (_check_complex), and raises ArithmeticError if not.
    """
    _check_complex(algebra)
    levels = []
    for q in range(len(algebra.bases) - 1):
        nq = len(algebra.bases[q])
        width = 2 * p.bit_length() + (2 * len(algebra.generators) + nq).bit_length() + 1
        base = [0] * nq
        for per_q in algebra.generators:
            for r, c, v in per_q[q]:
                base[c] += (v % p) << (r * width)
        levels.append((width, tuple(base)))
    return tuple(levels)


def _ranks_mod_p(complex_: AomotoComplex, p: int) -> list[int]:
    """[rank_p D_q for every degree q] of a complex, top differential (0)
    included, from the all-ones differentials packed mod p (packed).

    Column c of D_q is base[c] plus (f_h*v mod p) in slot r for each entry
    (r, c, v) of algebra.generators[h][q], over the few h with
    f_h = (w_h - 1) mod p nonzero.  The columns at the pivot slots P of
    D_{q-1} are left out.  That keeps the rank: D_{q-1} has rank |P| on the
    rows P, so its image holds, for each j in P, a vector e_j + u with u
    zero on P, and D_q D_{q-1} = 0 (proved by _check_complex) gives
    D_q e_j = -D_q u, a combination of the columns outside P.
    """
    sizes = complex_.dims()
    pairs = zip(complex_.weights, complex_.algebra.generators)
    terms = [(per_q, (w - 1) % p) for w, per_q in pairs if (w - 1) % p]
    ranks = []
    pivots = ()
    for q, (width, base) in enumerate(packed(complex_.algebra, p)):
        columns = list(base)
        for per_q, f in terms:
            for r, c, v in per_q[q]:
                columns[c] += (f * v % p) << (r * width)
        skip = set(pivots)
        vectors = [v for c, v in enumerate(columns) if c not in skip]
        rank, pivots = _eliminate(vectors, sizes[q + 1], width, p)
        ranks.append(rank)
    ranks.append(0)
    return ranks


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

def cohomology_Q(complex_: AomotoComplex, lower=None) -> CohomologyProfile:
    """dim H^q over Q: basis size minus the two adjacent differential ranks.

    By chain equivalence this equals the cohomology of the complex with
    weights divided by any nonzero integer, so integer weight vectors stand
    in for rational weight systems.

    Each rank r_q of D_q is certified from its rank mod CERTIFICATE_PRIME,
    which needs D_q D_{q-1} = 0; _check_complex proves that once per
    algebra, for every weight vector, and raises ArithmeticError if not.
    With r_{-1} = 0, lo = rank_p(D_q) is at most r_q (a minor nonzero mod p
    is a nonzero integer), and r_q is at most hi = min(rows of D_q,
    n_q - r_{q-1}) (im D_{q-1} lies in ker D_q).  So lo == hi fixes r_q;
    only lo < hi builds the dense D_q for its exact Bareiss rank, and lo > hi
    raises ArithmeticError: the input is not a complex.

    With lower, a sequence of per-degree dims, a complex whose dims are
    proved at most lower in every degree gives those upper bounds instead,
    in a profile over the ring "rationals-upper-bound".  That is tried where
    the last differential with rows, D_{ell-1}, is left open: with lo in place
    of its rank every earlier rank is exact and the two dims it touches can
    only shrink, so when those dims are at most lower the Bareiss rank is
    not taken.  Every other complex gives its dims, as without lower.
    """
    sizes = complex_.dims()
    rows = sizes[1:] + (0,)
    last = len(sizes) - 2
    dims = []
    r_in = 0
    for q, (nq, lo) in enumerate(zip(sizes, _ranks_mod_p(complex_, CERTIFICATE_PRIME))):
        hi = min(rows[q], nq - r_in)
        if lo > hi:
            raise ArithmeticError(
                f"rank {lo} of the degree-{q} differential exceeds {hi}: not a complex"
            )
        if lo < hi and q == last and lower is not None:
            estimate = dims + [nq - lo - r_in, rows[q] - lo]
            if all(map(le, estimate, lower)):
                return CohomologyProfile("rationals-upper-bound", tuple(estimate))
        r_out = lo if lo == hi else rank_over_Q(complex_.differential(q))
        dims.append(nq - r_out - r_in)
        r_in = r_out
    return CohomologyProfile("rationals", tuple(dims))


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
        ranks = _ranks_mod_p(complex_, p)
        for q, nq in enumerate(sizes):
            dims[q] = max(dims[q], nq - ranks[q] - (ranks[q - 1] if q > 0 else 0))
    return CohomologyProfile(f"integers-mod-{N}", tuple(dims))
