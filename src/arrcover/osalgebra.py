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
are sparse dicts tuple -> int with no stored zeros.  The Aomoto differential
for an integer weight vector k is left multiplication by sum(k_H e_H); its
matrices are assembled from cached per-hyperplane multiplication matrices so
that sweeping many weight vectors stays cheap.

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


@dataclass(frozen=True)
class SparseIntMatrix:
    """Integer matrix stored as sorted (row, col, value) triplets."""

    rows: int
    cols: int
    entries: tuple[tuple[int, int, int], ...]

    def dense(self) -> list[list[int]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for r, c, v in self.entries:
            out[r][c] = v
        return out


@dataclass(frozen=True)
class AomotoComplex:
    """NBC bases per degree plus the integer matrices of a_k wedge.

    diffs[q] maps degree q to degree q+1 (rows indexed by the (q+1)-basis,
    columns by the q-basis); the top differential has zero rows.
    """

    bases: tuple[tuple[tuple[int, ...], ...], ...]
    diffs: tuple[SparseIntMatrix, ...]

    @property
    def top_degree(self) -> int:
        return len(self.bases) - 1

    def dims(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.bases)


# ---------------------------------------------------------------------------
# Geometry of index tuples.
# ---------------------------------------------------------------------------

def _tuple_geometry(a: Arrangement, indices: tuple[int, ...]) -> tuple[bool, int]:
    """(nonempty intersection?, codim of the intersection) for an index set."""
    return closure_lattice(a).affine_geometry(indices)


def _is_independent(geometry, t: tuple[int, ...]) -> bool:
    nonempty, codim = geometry(t)
    return nonempty and codim == len(t)


@lru_cache(maxsize=None)
def _circuits(a: Arrangement) -> tuple[tuple[int, ...], ...]:
    """Minimal dependent sets with nonempty intersection, sizes <= ell + 1."""
    geometry = closure_lattice(a).affine_geometry
    found: list[tuple[int, ...]] = []
    for size in range(2, a.ell + 2):
        for t in combinations(range(a.n), size):
            nonempty, codim = geometry(t)
            if not nonempty or codim == size:
                continue
            if all(_is_independent(geometry, t[:i] + t[i + 1:]) for i in range(size)):
                found.append(t)
    return tuple(found)


@lru_cache(maxsize=None)
def _broken_circuits(a: Arrangement) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Map broken circuit -> circuit; ties keep the circuit with smallest min."""
    table: dict[tuple[int, ...], tuple[int, ...]] = {}
    for circuit in _circuits(a):
        broken = circuit[1:]
        if broken not in table or circuit[0] < table[broken][0]:
            table[broken] = circuit
    return table


def _contains_broken_circuit(a: Arrangement, t: tuple[int, ...]):
    """Lexicographically smallest broken circuit inside t, or None."""
    tset = set(t)
    best = None
    for broken in _broken_circuits(a):
        if set(broken) <= tset and (best is None or broken < best):
            best = broken
    return best


@lru_cache(maxsize=None)
def nbc_basis(a: Arrangement) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per-degree NBC monomials: independent tuples with no broken circuit.

    Counts agree with the Poincare coefficients of the arrangement (Whitney's
    theorem; cross-checked in the test suite).
    """
    geometry = closure_lattice(a).affine_geometry
    levels: list[tuple[tuple[int, ...], ...]] = [((),)]
    for q in range(1, a.ell + 1):
        level = tuple(
            t for t in combinations(range(a.n), q)
            if _is_independent(geometry, t) and _contains_broken_circuit(a, t) is None
        )
        levels.append(level)
    return tuple(levels)


# ---------------------------------------------------------------------------
# Straightening.
# ---------------------------------------------------------------------------

def _merge_sign(u: tuple[int, ...], v: tuple[int, ...]):
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


def straighten(a: Arrangement, t: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Class of e_t as an integer combination of NBC monomials.

    Tuples with empty intersection map to zero; dependent tuples are not
    zeroed directly but collapse through the circuit relations.
    """
    t = tuple(t)
    if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
        raise ValueError(f"index tuple {t} is not strictly increasing")
    if any(i < 0 or i >= a.n for i in t):
        raise ValueError(f"index tuple {t} out of range")
    return dict(_straighten(a, t))


@lru_cache(maxsize=None)
def _straighten(a: Arrangement, t: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    if t and not _tuple_geometry(a, t)[0]:
        return ()
    broken = _contains_broken_circuit(a, t)
    if broken is None:
        # independent NBC tuples are fixed points; a dependent tuple always
        # contains a broken circuit, so this branch is genuinely NBC
        return ((t, 1),)
    circuit = _broken_circuits(a)[broken]
    rest = tuple(i for i in t if i not in set(broken))
    _, outer_sign = _merge_sign(broken, rest)
    # del e_C = 0 solved for the broken circuit:
    # e_{C \ c_1} = sum_{j >= 2} (-1)^j e_{C \ c_j}
    result: dict[tuple[int, ...], int] = {}
    for j in range(1, len(circuit)):
        term = circuit[:j] + circuit[j + 1:]
        merged, sign = _merge_sign(term, rest)
        if merged is None:
            continue
        coeff = outer_sign * sign * (-1) ** (j + 1)
        for monomial, c in _straighten(a, merged):
            acc = result.get(monomial, 0) + coeff * c
            if acc:
                result[monomial] = acc
            else:
                result.pop(monomial, None)
    return tuple(sorted(result.items()))


# ---------------------------------------------------------------------------
# Aomoto differentials.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _generator_matrices(a: Arrangement) -> tuple[tuple[dict, ...], ...]:
    """per_h[h][q]: sparse dict (row, col) -> coeff of e_h wedge (q-basis col)."""
    bases = nbc_basis(a)
    index_of = [{m: i for i, m in enumerate(level)} for level in bases]
    per_h = []
    for h in range(a.n):
        mats: list[dict] = []
        for q in range(len(bases) - 1):
            entries: dict[tuple[int, int], int] = {}
            for col, monomial in enumerate(bases[q]):
                if h in monomial:
                    continue
                merged, sign = _merge_sign((h,), monomial)
                for target, c in _straighten(a, merged):
                    row = index_of[q + 1][target]
                    entries[(row, col)] = entries.get((row, col), 0) + sign * c
            mats.append({k: v for k, v in entries.items() if v})
        per_h.append(tuple(mats))
    return tuple(per_h)


def aomoto_matrices(a: Arrangement, weights) -> AomotoComplex:
    """The complex (A_Z, a_k wedge) for an integer weight vector k."""
    weights = tuple(int(w) for w in weights)
    if len(weights) != a.n:
        raise ValueError(f"expected {a.n} weights, got {len(weights)}")
    bases = nbc_basis(a)
    per_h = _generator_matrices(a)
    diffs = []
    for q in range(len(bases)):
        acc: dict[tuple[int, int], int] = {}
        if q < len(bases) - 1:
            for h, w in enumerate(weights):
                if w:
                    for key, v in per_h[h][q].items():
                        acc[key] = acc.get(key, 0) + w * v
        rows = len(bases[q + 1]) if q < len(bases) - 1 else 0
        entries = tuple(
            (r, c, v) for (r, c), v in sorted(acc.items()) if v
        )
        diffs.append(SparseIntMatrix(rows=rows, cols=len(bases[q]), entries=entries))
    return AomotoComplex(bases=bases, diffs=tuple(diffs))
