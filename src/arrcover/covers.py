"""Invariants of the cyclic covers X_m of an arrangement complement.

For weights 1/k the local system Betti numbers b_q(L_k) are pinned between
the rational Aomoto cohomology maximized over integer weight shifts (lower
bound) and the mod-k minimal-generator ranks (upper bound); nonresonant k are
resolved outright to (0, ..., 0, beta).  Cover Betti numbers, monodromy
characteristic polynomials, polynomial periodicity classes and zeta
coefficients are all assembled from those per-divisor values.

Assembly never walks 1..m or the residues mod lcm(1..n): the divisors of m
come from its factorisation, the periodicity classes from the divisors of
the period, and the monodromy polynomials are expanded through sparse
t^d - 1 factors, so the cost grows with the number of divisors and the
degree, not with m itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm

from .arrangement import (
    Arrangement,
    beta,
    betti_numbers,
    dense_edges,
    euler_characteristic,
    poincare_polynomial,
)
from .cyclofield import IntPoly, divisors, euler_phi, tk_exponents, tk_product
from .exactlin import cohomology_Q, cohomology_modN
from .osalgebra import aomoto_matrices


class UnresolvedBettiError(Exception):
    """A cover computation hit a divisor whose Betti interval is open.

    Carries the divisor and its open intervals so callers (and the CLI exit-2
    path) can report exactly what is missing.
    """

    def __init__(self, k: int, intervals):
        self.k = k
        self.intervals = tuple(intervals)
        gaps = ", ".join(
            f"q={iv.degree} in [{iv.lower}..{iv.upper}]" for iv in self.intervals
        )
        super().__init__(f"unresolved local Betti numbers at k={k}: {gaps}")


@dataclass(frozen=True)
class WeightSystem:
    """Integer weights k_H with common denominator N; lambda_H = k_H / N."""

    k_vector: tuple[int, ...]
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        object.__setattr__(self, "k_vector", tuple(int(v) for v in self.k_vector))

    @property
    def infinity_weight(self) -> Fraction:
        return Fraction(-sum(self.k_vector), self.modulus)

    @staticmethod
    def uniform(n: int, k: int) -> "WeightSystem":
        return WeightSystem((1,) * n, k)


@dataclass(frozen=True)
class BettiInterval:
    degree: int
    lower: int
    upper: int
    resolved: bool
    witness_shift: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"interval lower {self.lower} exceeds upper {self.upper}")

    @property
    def value(self) -> int:
        if not self.resolved:
            raise ValueError(f"interval at degree {self.degree} is unresolved")
        return self.lower


@dataclass(frozen=True)
class ShiftSearchConfig:
    """Candidate shifts for the lower bound.

    The default sweep is every vector in {-1, 0}^n (weights 1/k shifted by m
    stay in (-1, 1)) whenever n <= max_enumeration; explicit extra shifts are
    always tried first.
    """

    extra_shifts: tuple[tuple[int, ...], ...] = ()
    max_enumeration: int = 16

    def candidates(self, n: int):
        for shift in self.extra_shifts:
            if len(shift) != n:
                raise ValueError(f"shift {shift} has length {len(shift)}, expected {n}")
            yield tuple(int(v) for v in shift)
        if n <= self.max_enumeration:
            for size in range(n + 1):
                for support in combinations(range(n), size):
                    vec = [0] * n
                    for i in support:
                        vec[i] = -1
                    yield tuple(vec)
        else:
            yield (0,) * n


@dataclass(frozen=True)
class CoverReport:
    """Betti numbers and eigenspace data of the cover X_m."""

    m: int
    betti: tuple[int, ...]
    charpoly_exponents: tuple[tuple[int, tuple[int, ...]], ...]  # (k, per-degree d)
    exact: bool

    def exponents_for_degree(self, q: int) -> dict[int, int]:
        return {k: dims[q] for k, dims in self.charpoly_exponents}


@dataclass(frozen=True)
class CharpolyReport:
    m: int
    degree: int
    exponents: tuple[tuple[int, int], ...]  # (k, d) with d > 0, k ascending
    expanded: IntPoly
    tk_factors: tuple[tuple[int, int], ...] | None  # (j, e) when a product of t^j - 1 works
    exact: bool


@dataclass(frozen=True)
class PeriodicityClass:
    divisors: tuple[int, ...]  # {k <= n : k | residue}, determines membership
    constants: tuple[int, ...]  # p_q for 1 <= q <= ell-1
    top_slope: int
    top_constant: int

    def betti(self, m: int, ell: int) -> tuple[int, ...]:
        values = [1, *self.constants, self.top_slope * m + self.top_constant]
        if len(values) != ell + 1:
            raise ValueError(
                f"class has {len(self.constants)} constants, expected ell - 1 = {ell - 1}"
            )
        return tuple(values)


@dataclass(frozen=True)
class PeriodicityReport:
    period: int
    ell: int
    classes: tuple[PeriodicityClass, ...]
    exact: bool

    def class_for(self, m: int) -> PeriodicityClass:
        residue = ((m - 1) % self.period) + 1
        pattern = tuple(k for k in range(1, _max_divisor(self) + 1) if residue % k == 0)
        for cls in self.classes:
            if cls.divisors == pattern:
                return cls
        raise KeyError(f"no periodicity class for residue {residue}")

    def betti(self, m: int) -> tuple[int, ...]:
        if m < 1:
            raise ValueError("m must be >= 1")
        return self.class_for(m).betti(m, self.ell)


def _max_divisor(report: PeriodicityReport) -> int:
    return max((max(cls.divisors) for cls in report.classes), default=1)


@dataclass(frozen=True)
class ZetaReport:
    degree: int
    finite_terms: tuple[tuple[int, int], ...]  # (k, phi(k) * b_q(L_k)) nonzero
    tail_beta: int
    exact: bool


# ---------------------------------------------------------------------------
# Nonresonance tests on the dense edges of the projective closure.
# ---------------------------------------------------------------------------

def _dense_closure_flats(a: Arrangement):
    lattice = dense_edges(a)
    return [f for f in lattice.flats() if f.dense]


def stv_nonresonant(a: Arrangement, w: WeightSystem) -> bool:
    """Vanishing test: no dense edge of the closure has weight in Z_{>=0}.

    The hyperplane at infinity (last closure index) carries -sum(lambda_H).
    """
    if len(w.k_vector) != a.n:
        raise ValueError(f"expected {a.n} weights, got {len(w.k_vector)}")
    weights = [Fraction(k, w.modulus) for k in w.k_vector]
    weights.append(w.infinity_weight)
    for flat in _dense_closure_flats(a):
        total = sum((weights[i] for i in flat.support), Fraction(0))
        if total.denominator == 1 and total >= 0:
            return False
    return True


def fast_nonresonant(a: Arrangement, m: int) -> bool:
    """Sufficient test for weights 1/m: m > n, or every dense-edge
    multiplicity of the closure is coprime to m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > a.n:
        return True
    return all(gcd(flat.multiplicity, m) == 1 for flat in _dense_closure_flats(a))


def is_nonresonant(a: Arrangement, k: int) -> bool:
    """fast_nonresonant, sharpened by the dense-edge weight test."""
    return fast_nonresonant(a, k) or stv_nonresonant(a, WeightSystem.uniform(a.n, k))


# ---------------------------------------------------------------------------
# Local system Betti intervals.
# ---------------------------------------------------------------------------

def _resolved_intervals(values, witnesses=None) -> tuple[BettiInterval, ...]:
    witnesses = witnesses or {}
    return tuple(
        BettiInterval(q, v, v, True, witnesses.get(q))
        for q, v in enumerate(values)
    )


@lru_cache(maxsize=None)
def _bound_intervals(a: Arrangement, k: int, search: ShiftSearchConfig) -> tuple[BettiInterval, ...]:
    """Bracket b_q(L_k) between shifted rational Aomoto dims and mod-k ranks.

    b_0 is pinned to 0 for k > 1 (a nontrivial rank-one system on a connected
    space has no invariants).  The shift sweep stops early once every degree
    is resolved; the Euler-characteristic constraint closes a single leftover
    gap.
    """
    ell = a.ell
    upper = list(cohomology_modN(aomoto_matrices(a, (1,) * a.n), k).dims)
    upper[0] = 0
    lower = [0] * (ell + 1)
    witness: dict[int, tuple[int, ...]] = {}
    for shift in search.candidates(a.n):
        weights = tuple(1 + k * mv for mv in shift)
        dims = cohomology_Q(aomoto_matrices(a, weights)).dims
        for q in range(1, ell + 1):
            if dims[q] > upper[q]:
                raise ArithmeticError(
                    f"lower bound {dims[q]} exceeds upper bound {upper[q]} at q={q}"
                )
            if dims[q] > lower[q]:
                lower[q] = dims[q]
                witness[q] = shift
        if all(lower[q] == upper[q] for q in range(ell + 1)):
            break
    # Euler characteristic of the complex is differential-independent.
    chi = euler_characteristic(a)
    open_degrees = [q for q in range(ell + 1) if lower[q] < upper[q]]
    if len(open_degrees) == 1:
        q0 = open_degrees[0]
        rest = sum((-1) ** q * lower[q] for q in range(ell + 1) if q != q0)
        value = (chi - rest) * (-1) ** q0
        if not lower[q0] <= value <= upper[q0]:
            raise ArithmeticError(
                f"Euler-forced value {value} escapes [{lower[q0]}..{upper[q0]}] at q={q0}"
            )
        lower[q0] = upper[q0] = value
    return tuple(
        BettiInterval(q, lower[q], upper[q], lower[q] == upper[q], witness.get(q))
        for q in range(ell + 1)
    )


def local_betti(
    a: Arrangement,
    k: int,
    search: ShiftSearchConfig | None = None,
    *,
    use_vanishing: bool = True,
) -> tuple[BettiInterval, ...]:
    """Per-degree intervals for b_q(L_k), weights 1/k.

    k = 1 is the trivial system (constant Betti numbers); nonresonant k give
    (0, ..., 0, beta) exactly; otherwise the combinatorial bounds are
    computed and unresolved intervals are returned as data, not errors.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    search = search or ShiftSearchConfig()
    if k == 1:
        return _resolved_intervals(betti_numbers(a))
    if use_vanishing and is_nonresonant(a, k):
        values = [0] * a.ell + [beta(a)]
        return _resolved_intervals(values)
    return _bound_intervals(a, k, search)


def _local_values(a: Arrangement, k: int, resolution, search) -> tuple[tuple[int, ...], bool]:
    """Resolved b_q(L_k) values plus an exactness flag.

    resolution maps (k, q) -> asserted value for open intervals; assertions
    outside the interval are rejected, and missing ones raise
    UnresolvedBettiError.
    """
    intervals = local_betti(a, k, search)
    values = []
    exact = True
    open_intervals = []
    for iv in intervals:
        asserted = (resolution or {}).get((k, iv.degree))
        if asserted is not None and not iv.lower <= asserted <= iv.upper:
            raise ValueError(
                f"asserted b_{iv.degree}(L_{k}) = {asserted} outside [{iv.lower}..{iv.upper}]"
            )
        if iv.resolved:
            values.append(iv.lower)
        elif asserted is None:
            open_intervals.append(iv)
            values.append(None)
        else:
            values.append(asserted)
            exact = False
    if open_intervals:
        raise UnresolvedBettiError(k, open_intervals)
    return tuple(values), exact


# ---------------------------------------------------------------------------
# Covers.
# ---------------------------------------------------------------------------

def cover_betti(
    a: Arrangement,
    m: int,
    resolution=None,
    search: ShiftSearchConfig | None = None,
) -> CoverReport:
    """b_q(X_m) = sum over k | m of phi(k) * b_q(L_k), plus eigenspace data."""
    if m < 1:
        raise ValueError("m must be >= 1")
    search = search or ShiftSearchConfig()
    per_divisor = []
    exact = True
    for k in divisors(m):
        values, k_exact = _local_values(a, k, resolution, search)
        exact = exact and k_exact
        per_divisor.append((k, values))
    betti = tuple(
        sum(euler_phi(k) * values[q] for k, values in per_divisor)
        for q in range(a.ell + 1)
    )
    return CoverReport(m=m, betti=betti, charpoly_exponents=tuple(per_divisor), exact=exact)


def monodromy_charpoly(
    a: Arrangement,
    m: int,
    q: int,
    resolution=None,
    search: ShiftSearchConfig | None = None,
) -> CharpolyReport:
    """Characteristic polynomial of the degree-q monodromy of X_m.

    Delta_q = prod over k | m of Phi_k^(b_q(L_k)); its degree is b_q(X_m).
    The canonical form is the cyclotomic exponent map.  The product is
    rewritten by Mobius inversion as prod over d | m of (t^d - 1)^(f_d) and
    expanded through those sparse factors; the (t^d - 1) form is attached as
    tk_factors when every f_d is positive.
    """
    if not 0 <= q <= a.ell:
        raise ValueError(f"degree {q} out of range 0..{a.ell}")
    report = cover_betti(a, m, resolution, search)
    exps = report.exponents_for_degree(q)
    factors = tk_exponents(exps)
    all_positive = all(f > 0 for f in factors.values())
    return CharpolyReport(
        m=m,
        degree=q,
        exponents=tuple((k, e) for k, e in sorted(exps.items()) if e),
        expanded=tk_product(factors),
        tk_factors=tuple(sorted(factors.items())) if all_positive else None,
        exact=report.exact,
    )


def periodicity(
    a: Arrangement,
    resolution=None,
    search: ShiftSearchConfig | None = None,
) -> PeriodicityReport:
    """Polynomial periodicity of m -> b_q(X_m).

    The period N = lcm(1..n) is the smallest integer divisible by every
    k <= n; residues i share a class exactly when they share the divisor
    pattern {k <= n : k | i}.  That pattern only depends on gcd(i, N), so the
    classes are read off the divisors g of N (each its own gcd) instead of
    all N residues.  Degrees q < ell get constants b_q(X_i); the top degree
    gets beta * x plus the Euler-characteristic correction.
    """
    search = search or ShiftSearchConfig()
    n = a.n
    ell = a.ell
    period = lcm(*range(1, n + 1))
    values = {}
    exact = True
    for k in range(1, n + 1):
        values[k], k_exact = _local_values(a, k, resolution, search)
        exact = exact and k_exact
    b = beta(a)
    patterns = sorted(
        {tuple(k for k in range(1, n + 1) if g % k == 0) for g in divisors(period)}
    )
    classes = []
    for pattern in patterns:
        constants = tuple(
            sum(euler_phi(k) * values[k][q] for k in pattern)
            for q in range(1, ell)
        )
        alternating = sum((-1) ** q * c for q, c in enumerate(constants, start=1))
        top_constant = (-1) ** (ell + 1) * (1 + alternating)
        classes.append(
            PeriodicityClass(
                divisors=pattern,
                constants=constants,
                top_slope=b,
                top_constant=top_constant,
            )
        )
    return PeriodicityReport(period=period, ell=ell, classes=tuple(classes), exact=exact)


def zeta_coefficients(
    a: Arrangement,
    q: int,
    resolution=None,
    search: ShiftSearchConfig | None = None,
) -> ZetaReport:
    """Dirichlet coefficients of sum b_q(X_m) m^(-s) over the Riemann zeta.

    The finite part lists (k, phi(k) * b_q(L_k)) for k <= n; beyond n the
    coefficient is beta in the top degree and zero below it.
    """
    if not 0 <= q <= a.ell:
        raise ValueError(f"degree {q} out of range 0..{a.ell}")
    search = search or ShiftSearchConfig()
    terms = []
    exact = True
    for k in range(1, a.n + 1):
        values, k_exact = _local_values(a, k, resolution, search)
        exact = exact and k_exact
        coeff = euler_phi(k) * values[q]
        if coeff:
            terms.append((k, coeff))
    return ZetaReport(
        degree=q,
        finite_terms=tuple(terms),
        tail_beta=beta(a) if q == a.ell else 0,
        exact=exact,
    )
