"""Orlik-Solomon algebra over Z in the no-broken-circuit basis.

Conventions (affine arrangements):
  * e_S = 0 whenever the hyperplanes of S have empty common intersection;
  * S is independent when its intersection is nonempty of codim |S|;
  * circuits are minimal dependent sets with nonempty intersection, and a
    broken circuit is a circuit minus its smallest index (hyperplane order is
    the input order);
  * boundary: del e_{(c_1..c_k)} = sum_j (-1)^(j-1) e_{(c_1..^c_j..c_k)}, and
    straightening rewrites the minimal broken circuit B = C \\ {min C} via
    del(e_C) = 0 until only NBC monomials remain.

NBC monomials are plain strictly increasing index tuples; integer combinations
are sparse dicts tuple -> int with no stored zeros.  The algebra of one
arrangement has one owner, the immutable OSAlgebra built once by os_algebra:
circuits, broken circuits, NBC bases and the nonzero entries of every
generator e_H wedge.  The Aomoto differential for an integer weight vector k
is left multiplication by sum(k_H e_H); aomoto_matrices accumulates it from
the generator entries into dense integer rows, so sweeping many weight
vectors stays cheap.

No linear algebra happens here: whether a tuple of hyperplanes meets, and in
which codim, is read off the join table of the closure lattice
(arrangement.closure_lattice), so circuits, broken circuits and the NBC basis
are combinatorial in the intersection semilattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .arrangement import Arrangement, closure_lattice

Monomial = tuple[int, ...]


@dataclass(frozen=True)
class OSAlgebra:
    """The Orlik-Solomon algebra of one arrangement in the NBC basis.

    circuits are listed by size, then lexicographically.  broken_circuits
    pairs each broken circuit with its circuit, sorted by broken circuit;
    ties keep the circuit with the smallest min.  bases[q] lists the NBC
    monomials of degree q.  generators[h][q] holds the nonzero
    (row, col, coeff) entries, sorted, of e_h wedge from degree q to q+1:
    rows index bases[q+1], columns bases[q].
    """

    circuits: tuple[Monomial, ...]
    broken_circuits: tuple[tuple[Monomial, Monomial], ...]
    bases: tuple[tuple[Monomial, ...], ...]
    generators: tuple[tuple[tuple[tuple[int, int, int], ...], ...], ...]


@dataclass(frozen=True)
class AomotoComplex:
    """NBC bases per degree plus the integer matrices of a_k wedge.

    diffs[q] maps degree q to degree q+1 as a dense tuple of integer rows:
    one row per monomial of bases[q+1], one column per monomial of bases[q].
    The top differential has no rows.
    """

    bases: tuple[tuple[Monomial, ...], ...]
    diffs: tuple[tuple[tuple[int, ...], ...], ...]

    def dims(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.bases)


# ---------------------------------------------------------------------------
# Circuits and the NBC basis.
# ---------------------------------------------------------------------------

def _is_independent(geometry, t: Monomial) -> bool:
    nonempty, codim = geometry(t)
    return nonempty and codim == len(t)


def _find_circuits(a: Arrangement, geometry) -> tuple[Monomial, ...]:
    """Minimal dependent sets with nonempty intersection, sizes <= ell + 1."""
    found: list[Monomial] = []
    for size in range(2, a.ell + 2):
        for t in combinations(range(a.n), size):
            nonempty, codim = geometry(t)
            if not nonempty or codim == size:
                continue
            if all(_is_independent(geometry, t[:i] + t[i + 1:]) for i in range(size)):
                found.append(t)
    return tuple(found)


def _broken_circuit_table(circuits) -> tuple[tuple[Monomial, Monomial], ...]:
    """(broken circuit, circuit) pairs; ties keep the circuit with smallest min."""
    table: dict[Monomial, Monomial] = {}
    for circuit in circuits:
        broken = circuit[1:]
        if broken not in table or circuit[0] < table[broken][0]:
            table[broken] = circuit
    return tuple(sorted(table.items()))


def _smallest_broken_circuit(broken_circuits, t: Monomial):
    """(broken circuit, circuit) for the lexicographically smallest broken
    circuit inside t, or None."""
    tset = set(t)
    return next((pair for pair in broken_circuits if tset.issuperset(pair[0])), None)


def _nbc_levels(a: Arrangement, geometry, broken_circuits) -> tuple[tuple[Monomial, ...], ...]:
    levels: list[tuple[Monomial, ...]] = [((),)]
    for q in range(1, a.ell + 1):
        levels.append(tuple(
            t for t in combinations(range(a.n), q)
            if _is_independent(geometry, t)
            and _smallest_broken_circuit(broken_circuits, t) is None
        ))
    return tuple(levels)


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


def _straightener(geometry, broken_circuits):
    """Function t -> sorted ((NBC monomial, coeff), ...) for the class of e_t.

    Results are memoised in a dict owned by the returned function, so one
    build shares them and nothing outlives it.
    """
    memo: dict[Monomial, tuple[tuple[Monomial, int], ...]] = {}

    def straighten_(t: Monomial) -> tuple[tuple[Monomial, int], ...]:
        if t in memo:
            return memo[t]
        if t and not geometry(t)[0]:
            memo[t] = ()
            return ()
        pair = _smallest_broken_circuit(broken_circuits, t)
        if pair is None:
            # independent NBC tuples are fixed points; a dependent tuple always
            # contains a broken circuit, so this branch is genuinely NBC
            memo[t] = ((t, 1),)
            return memo[t]
        broken, circuit = pair
        rest = tuple(i for i in t if i not in set(broken))
        _, outer_sign = _merge_sign(broken, rest)
        # del e_C = 0 solved for the broken circuit:
        # e_{C \ c_1} = sum_{j >= 2} (-1)^j e_{C \ c_j}
        result: dict[Monomial, int] = {}
        for j in range(1, len(circuit)):
            term = circuit[:j] + circuit[j + 1:]
            merged, sign = _merge_sign(term, rest)
            if merged is None:
                continue
            coeff = outer_sign * sign * (-1) ** (j + 1)
            for monomial, c in straighten_(merged):
                acc = result.get(monomial, 0) + coeff * c
                if acc:
                    result[monomial] = acc
                else:
                    result.pop(monomial, None)
        memo[t] = tuple(sorted(result.items()))
        return memo[t]

    return straighten_


def straighten(a: Arrangement, t: Monomial) -> dict[Monomial, int]:
    """Class of e_t as an integer combination of NBC monomials.

    Tuples with empty intersection map to zero; dependent tuples are not
    zeroed directly but collapse through the circuit relations.
    """
    t = tuple(t)
    if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
        raise ValueError(f"index tuple {t} is not strictly increasing")
    if any(i < 0 or i >= a.n for i in t):
        raise ValueError(f"index tuple {t} out of range")
    geometry = closure_lattice(a).affine_geometry
    return dict(_straightener(geometry, os_algebra(a).broken_circuits)(t))


# ---------------------------------------------------------------------------
# The algebra and its Aomoto differentials.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def os_algebra(a: Arrangement) -> OSAlgebra:
    """The Orlik-Solomon algebra of a, built once per arrangement."""
    geometry = closure_lattice(a).affine_geometry
    circuits = _find_circuits(a, geometry)
    broken_circuits = _broken_circuit_table(circuits)
    bases = _nbc_levels(a, geometry, broken_circuits)
    straighten_ = _straightener(geometry, broken_circuits)
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
    return OSAlgebra(
        circuits=circuits,
        broken_circuits=broken_circuits,
        bases=bases,
        generators=tuple(generators),
    )


def nbc_basis(a: Arrangement) -> tuple[tuple[Monomial, ...], ...]:
    """Per-degree NBC monomials: independent tuples with no broken circuit.

    Counts agree with the Poincare coefficients of the arrangement (Whitney's
    theorem; cross-checked in the test suite).
    """
    return os_algebra(a).bases


def aomoto_matrices(a: Arrangement, weights) -> AomotoComplex:
    """The complex (A_Z, a_k wedge) for an integer weight vector k."""
    weights = tuple(int(w) for w in weights)
    if len(weights) != a.n:
        raise ValueError(f"expected {a.n} weights, got {len(weights)}")
    algebra = os_algebra(a)
    bases = algebra.bases
    diffs = []
    for q in range(len(bases) - 1):
        rows = [[0] * len(bases[q]) for _ in bases[q + 1]]
        for w, per_q in zip(weights, algebra.generators):
            if w:
                for r, c, v in per_q[q]:
                    rows[r][c] += w * v
        diffs.append(tuple(map(tuple, rows)))
    diffs.append(())
    return AomotoComplex(bases=bases, diffs=tuple(diffs))
