"""Orlik-Solomon algebra over Z in the no-broken-circuit basis.

Conventions (affine arrangements, hyperplane order is the input order):
  * e_S = 0 whenever the hyperplanes of S have empty common intersection or
    are dependent (their intersection has codim < |S|);
  * an independent tuple t = (t_0 < ... < t_{q-1}) is NBC exactly when each
    t_j is the least index on the flat of its tail t[j:] (Orlik-Terao,
    Arrangements of Hyperplanes, ch. 3): a broken circuit inside t fails the
    test at the position of its least entry, and a failure at j, with h < t_j
    on that flat, yields a circuit in {h} + t[j:] whose least entry is h;
  * boundary: del e_{(c_1..c_k)} = sum_j (-1)^(j-1) e_{(c_1..^c_j..c_k)}, and
    straightening rewrites a failing tail through del(e_{h + tail}) = 0 until
    only NBC monomials remain.

NBC monomials are plain strictly increasing index tuples; integer combinations
are sparse dicts tuple -> int with no stored zeros.  The algebra of one
arrangement has one owner, the immutable OSAlgebra built once by os_algebra:
NBC bases and the nonzero entries of every generator e_H wedge.  The Aomoto
differential for an integer weight vector k is left multiplication by
sum(k_H e_H).  An AomotoComplex is just (algebra, weights), and a dense D_q
is built only when asked for (AomotoComplex.differential).

No linear algebra happens here: both the NBC test and straightening fold
tuples through the join table of the closure lattice
(arrangement.closure_lattice), so they are combinatorial in the intersection
semilattice.
"""

from __future__ import annotations

from itertools import combinations

from .arrangement import Arrangement, ClosureLattice, closure_lattice, derived
from .record import record

Monomial = tuple[int, ...]


@record
class OSAlgebra:
    """The Orlik-Solomon algebra of one arrangement in the NBC basis.

    bases[q] lists the NBC monomials of degree q.  generators[h][q] holds the
    nonzero (row, col, coeff) entries, sorted and one per (row, col), of e_h
    wedge from degree q to q+1: rows index bases[q+1], columns bases[q].
    """

    bases: tuple[tuple[Monomial, ...], ...]
    generators: tuple[tuple[tuple[tuple[int, int, int], ...], ...], ...]


@record
class AomotoComplex:
    """The complex (A, a_k wedge) of an OSAlgebra and an integer weight
    vector k: D_q maps degree q to degree q+1 by sum(k_h e_h) wedge.
    """

    algebra: OSAlgebra
    weights: tuple[int, ...]

    def dims(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.algebra.bases)

    def differential(self, q: int) -> tuple[tuple[int, ...], ...]:
        """D_q as a dense tuple of integer rows, one row per monomial of
        algebra.bases[q+1], one column per monomial of algebra.bases[q]; the
        top differential has no rows."""
        bases = self.algebra.bases
        if q == len(bases) - 1:
            return ()
        rows = [[0] * len(bases[q]) for _ in bases[q + 1]]
        for w, per_q in zip(self.weights, self.algebra.generators):
            if w:
                for r, c, v in per_q[q]:
                    rows[r][c] += w * v
        return tuple(map(tuple, rows))


# ---------------------------------------------------------------------------
# The NBC test.
# ---------------------------------------------------------------------------

def _nbc_split(lattice: ClosureLattice, t: Monomial):
    """Fold t from its last entry through the join table.

    None: e_t = 0, because the intersection is empty (its flat contains the
    hyperplane at infinity, the last index) or t is dependent (a step leaves
    the codim unchanged).  (): t is NBC.  Otherwise (j, h) for the last j
    whose tail t[j:] spans a flat with least support index h < t_j.
    """
    flats, join = lattice.flats, lattice.join
    f = 0
    split = ()
    for j in range(len(t) - 1, -1, -1):
        g = join[f][t[j]]
        if flats[g].codim == flats[f].codim:
            return None
        f = g
        h = flats[f].support[0]
        if not split and h < t[j]:
            split = (j, h)
    return None if len(join[f]) - 1 in flats[f].support else split


def _nbc_levels(a: Arrangement, lattice: ClosureLattice) -> tuple[tuple[Monomial, ...], ...]:
    return tuple(
        tuple(t for t in combinations(range(a.n), q) if _nbc_split(lattice, t) == ())
        for q in range(a.ell + 1)
    )


# ---------------------------------------------------------------------------
# Straightening.
# ---------------------------------------------------------------------------

def _merge_sign(u: Monomial, v: Monomial):
    """Merge disjoint sorted tuples; sign of the sorting shuffle, or (None, 0)."""
    merged = []
    sign = 1
    i = j = 0
    while i < len(u) and j < len(v):
        if u[i] == v[j]:
            return None, 0
        if u[i] < v[j]:
            merged.append(u[i])
            i += 1
        else:
            # v[j] jumps over the remaining entries of u
            if (len(u) - i) % 2 == 1:
                sign = -sign
            merged.append(v[j])
            j += 1
    merged.extend(u[i:])
    merged.extend(v[j:])
    return tuple(merged), sign


def _straightener(lattice: ClosureLattice):
    """Function t -> sorted ((NBC monomial, coeff), ...) for the class of e_t.

    A tail failing the NBC test at j, with h < t_j on its flat, is rewritten
    by the relation del(e_{h + tail}) = 0 of the dependent set {h} + tail:
    e_tail = sum_i (-1)^i e_{h + tail minus its i-th entry}.  Each term
    trades an entry for the smaller h, so the recursion ends.  Results are
    memoised in a dict owned by the returned function, so one build shares
    them and nothing outlives it.
    """
    memo: dict[Monomial, tuple[tuple[Monomial, int], ...]] = {}

    def straighten_(t: Monomial) -> tuple[tuple[Monomial, int], ...]:
        if t in memo:
            return memo[t]
        split = _nbc_split(lattice, t)
        if not split:
            memo[t] = () if split is None else ((t, 1),)
            return memo[t]
        j, h = split
        head, tail = t[:j], t[j:]
        result: dict[Monomial, int] = {}
        for i in range(len(tail)):
            # a term repeating h in head vanishes
            merged, sign = _merge_sign(head, (h,) + tail[:i] + tail[i + 1:])
            if merged is None:
                continue
            for monomial, c in straighten_(merged):
                result[monomial] = result.get(monomial, 0) + (-1) ** i * sign * c
        memo[t] = tuple(sorted((m, c) for m, c in result.items() if c))
        return memo[t]

    return straighten_


def straighten(a: Arrangement, t: Monomial) -> dict[Monomial, int]:
    """Class of e_t as an integer combination of NBC monomials.

    Tuples with empty intersection and dependent tuples map to zero directly.
    """
    t = tuple(t)
    if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
        raise ValueError(f"index tuple {t} is not strictly increasing")
    if any(i < 0 or i >= a.n for i in t):
        raise ValueError(f"index tuple {t} out of range")
    return dict(_straightener(closure_lattice(a))(t))


# ---------------------------------------------------------------------------
# The algebra and its Aomoto differentials.
# ---------------------------------------------------------------------------

@derived
def os_algebra(a: Arrangement) -> OSAlgebra:
    """The Orlik-Solomon algebra of a, built once per arrangement."""
    lattice = closure_lattice(a)
    bases = _nbc_levels(a, lattice)
    straighten_ = _straightener(lattice)
    index_of = [{m: i for i, m in enumerate(level)} for level in bases]
    generators = []
    for h in range(a.n):
        per_q = []
        for q in range(len(bases) - 1):
            entries = []
            for col, monomial in enumerate(bases[q]):
                if h in monomial:
                    continue
                merged, sign = _merge_sign((h,), monomial)
                for target, c in straighten_(merged):
                    entries.append((index_of[q + 1][target], col, sign * c))
            per_q.append(tuple(sorted(entries)))
        generators.append(tuple(per_q))
    return OSAlgebra(bases=bases, generators=tuple(generators))


def nbc_basis(a: Arrangement) -> tuple[tuple[Monomial, ...], ...]:
    """Per-degree NBC monomials: independent tuples with no broken circuit.

    Counts agree with the Poincare coefficients of the arrangement (Whitney's
    theorem; cross-checked in the test suite).
    """
    return os_algebra(a).bases


def integers(values) -> tuple[int, ...]:
    """values as a tuple of ints; ValueError names an entry that int() would
    change or cannot convert."""
    values = tuple(values)
    for i, v in enumerate(values):
        try:
            if int(v) == v:
                continue
        except (TypeError, ValueError, OverflowError):
            pass
        raise ValueError(f"entry {i}, {v!r}, is not an integer")
    return tuple(map(int, values))


def aomoto_matrices(a: Arrangement, weights) -> AomotoComplex:
    """The complex (A_Z, a_k wedge) for an integer weight vector k."""
    weights = integers(weights)
    if len(weights) != a.n:
        raise ValueError(f"expected {a.n} weights, got {len(weights)}")
    return AomotoComplex(os_algebra(a), weights)
