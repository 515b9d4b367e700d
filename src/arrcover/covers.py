"""Invariants of the cyclic covers X_m of an arrangement complement.

For weights 1/k the local system Betti numbers b_q(L_k) are pinned between
the rational Aomoto cohomology maximized over integer weight shifts (lower
bound) and the mod-k minimal-generator ranks (upper bound); nonresonant k are
resolved outright to (0, ..., 0, beta).  Cover Betti numbers, monodromy
characteristic polynomials, polynomial periodicity classes and zeta
coefficients are all assembled from those per-divisor values.  Asserted
values for open intervals enter through resolve, the one owner of the
assertion rule: it checks every assertion against the k a command visits.

The lower-bound sweep evaluates one shift per orbit of the lattice
automorphisms.  A permutation sigma of the hyperplanes that maps affine flat
supports onto affine flat supports induces the graded automorphism
e_H -> e_sigma(H) of the affine Orlik-Solomon algebra, which carries the
Aomoto complex of weights 1 + k*s to that of 1 + k*(s o sigma^-1); the two
shifts have the same rational dims.  The running lower bound only goes up,
so a shift whose orbit holds an evaluated shift can never be the first
strict improver: skipping it changes no interval, witness, lower <= upper
check, early stop or Euler closure.  Any subgroup of the automorphisms is
sound, so a capped generator search only skips fewer shifts.  The sweep and
the group both work on support bitmasks (bit i set where s_i = -1); a shift
tuple is built only for a candidate that is evaluated.

Assembly never walks 1..m or the residues mod lcm(1..n): the divisors of m
come from its factorisation, the periodicity classes from the divisors of
the period, and the monodromy polynomials are expanded through sparse
t^d - 1 factors, so the cost grows with the number of divisors and the
degree, not with m itself.  A degree above MAX_EXPANDED_DEGREE is not
expanded at all.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import gcd, lcm

from .arrangement import (
    Arrangement,
    beta,
    betti_numbers,
    closure_lattice,
    dense_edges,
    euler_characteristic,
    orbit,
    poincare_polynomial,
    support_mask,
)
from .cyclofield import IntPoly, divisor_phis, divisors, euler_phi, tk_exponents, tk_product
from .exactlin import cohomology_Q, cohomology_modN
from .osalgebra import aomoto_matrices
from .record import record


# Largest n whose shift sweep enumerates all of {-1, 0}^n.
MAX_ENUMERATION = 16

# Largest degree of Delta_q that monodromy_charpoly expands into coefficients.
MAX_EXPANDED_DEGREE = 10**6


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


@record
class WeightSystem:
    """Integer weights k_H with common denominator N; lambda_H = k_H / N."""

    k_vector: tuple[int, ...]
    modulus: int

    def __init__(self, k_vector, modulus):
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        self.__dict__.update(k_vector=tuple(int(v) for v in k_vector), modulus=modulus)

    @property
    def infinity_weight(self) -> Fraction:
        return Fraction(-sum(self.k_vector), self.modulus)

    @staticmethod
    def uniform(n: int, k: int) -> "WeightSystem":
        return WeightSystem((1,) * n, k)


@record
class BettiInterval:
    degree: int
    lower: int
    upper: int
    resolved: bool
    witness_shift: tuple[int, ...] | None

    def __init__(self, degree, lower, upper, resolved, witness_shift=None):
        if lower > upper:
            raise ValueError(f"interval lower {lower} exceeds upper {upper}")
        self.__dict__.update(degree=degree, lower=lower, upper=upper, resolved=resolved,
                             witness_shift=witness_shift)

    @property
    def value(self) -> int:
        if not self.resolved:
            raise ValueError(f"interval at degree {self.degree} is unresolved")
        return self.lower


@record
class CoverReport:
    """Betti numbers and eigenspace data of the cover X_m."""

    m: int
    betti: tuple[int, ...]
    charpoly_exponents: tuple[tuple[int, tuple[int, ...]], ...]  # (k, per-degree d)
    exact: bool

    def __init__(self, m, betti, charpoly_exponents, exact):
        self.__dict__.update(m=m, betti=betti, charpoly_exponents=charpoly_exponents,
                             exact=exact)

    def exponents_for_degree(self, q: int) -> dict[int, int]:
        return {k: dims[q] for k, dims in self.charpoly_exponents}


@record
class CharpolyReport:
    m: int
    degree: int
    exponents: tuple[tuple[int, int], ...]  # (k, d) with d > 0, k ascending
    expanded: IntPoly | None  # None above MAX_EXPANDED_DEGREE
    tk_factors: tuple[tuple[int, int], ...] | None  # (j, e) when a product of t^j - 1 works
    exact: bool

    def __init__(self, m, degree, exponents, expanded, tk_factors, exact):
        self.__dict__.update(m=m, degree=degree, exponents=exponents, expanded=expanded,
                             tk_factors=tk_factors, exact=exact)


@record
class PeriodicityClass:
    divisors: tuple[int, ...]  # {k <= n : k | residue}, determines membership
    constants: tuple[int, ...]  # p_q for 1 <= q <= ell-1
    top_slope: int
    top_constant: int

    def __init__(self, divisors, constants, top_slope, top_constant):
        self.__dict__.update(divisors=divisors, constants=constants, top_slope=top_slope,
                             top_constant=top_constant)

    def betti(self, m: int, ell: int) -> tuple[int, ...]:
        values = [1, *self.constants, self.top_slope * m + self.top_constant]
        if len(values) != ell + 1:
            raise ValueError(
                f"class has {len(self.constants)} constants, expected ell - 1 = {ell - 1}"
            )
        return tuple(values)


@record
class PeriodicityReport:
    period: int
    ell: int
    classes: tuple[PeriodicityClass, ...]
    exact: bool

    def __init__(self, period, ell, classes, exact):
        self.__dict__.update(period=period, ell=ell, classes=classes, exact=exact)

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


@record
class ZetaReport:
    degree: int
    finite_terms: tuple[tuple[int, int], ...]  # (k, phi(k) * b_q(L_k)) nonzero
    tail_beta: int
    exact: bool

    def __init__(self, degree, finite_terms, tail_beta, exact):
        self.__dict__.update(degree=degree, finite_terms=finite_terms, tail_beta=tail_beta,
                             exact=exact)


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

def _resolved_intervals(values) -> tuple[BettiInterval, ...]:
    return tuple(BettiInterval(q, v, v, True) for q, v in enumerate(values))


@lru_cache(maxsize=None)
def _bound_intervals(a: Arrangement, k: int, extra_shifts) -> tuple[BettiInterval, ...]:
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
    for shift in _candidates(a, extra_shifts):
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


def _candidates(a: Arrangement, extra_shifts):
    """The shifts the lower-bound sweep evaluates, in order: the extra shifts
    (each checked for length n and converted with int), then every vector of
    {-1, 0}^n by support size and then support (weights 1/k shifted by m stay
    in (-1, 1)), or only the zero shift beyond MAX_ENUMERATION.  Up to
    MAX_ENUMERATION a shift in {-1, 0}^n is held by its support bitmask and
    skipped when the orbit of a shift yielded before it holds it.  An orbit
    joins the seen set only when the next candidate is asked for, so a sweep
    that stops after its first candidate never builds the automorphisms.
    """
    n = a.n
    small = n <= MAX_ENUMERATION

    def extras():
        for shift in extra_shifts:
            if len(shift) != n:
                raise ValueError(f"shift {shift} has length {len(shift)}, expected {n}")
            shift = tuple(int(v) for v in shift)
            in_cube = small and set(shift) <= {-1, 0}
            yield shift, support_mask(i for i, v in enumerate(shift) if v) if in_cube else None

    cube = ((None, support_mask(s)) for size in range(n + 1) for s in combinations(range(n), size))
    seen: set[int] = set()
    generators = None
    for shift, mask in chain(extras(), cube if small else [((0,) * n, None)]):
        if mask in seen:
            continue
        yield tuple(-(mask >> i & 1) for i in range(n)) if shift is None else shift
        if mask is not None:
            if generators is None:
                generators = closure_lattice(a).automorphisms
            seen |= orbit(mask, generators)


def local_betti(
    a: Arrangement,
    k: int,
    extra_shifts: tuple[tuple[int, ...], ...] = (),
    *,
    nonresonant: tuple[BettiInterval, ...] | None = None,
) -> tuple[BettiInterval, ...]:
    """Per-degree intervals for b_q(L_k), weights 1/k.

    k = 1 is the trivial system (constant Betti numbers); nonresonant k give
    (0, ..., 0, beta) exactly; otherwise the combinatorial bounds are
    computed and unresolved intervals are returned as data, not errors.
    The lower-bound sweep tries the extra_shifts, a tuple of integer shift
    tuples of length n, before {-1, 0}^n (see _candidates).  A caller that
    visits many k passes those (0, ..., 0, beta) intervals as nonresonant,
    built once, instead of having them rebuilt for each k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return _resolved_intervals(betti_numbers(a))
    if is_nonresonant(a, k):
        if nonresonant is None:
            nonresonant = _nonresonant_intervals(a)
        return nonresonant
    return _bound_intervals(a, k, extra_shifts)


def _nonresonant_intervals(a: Arrangement) -> tuple[BettiInterval, ...]:
    return _resolved_intervals([0] * a.ell + [beta(a)])


def resolve(a: Arrangement, ks, resolution=None, extra_shifts=()):
    """Yield (k, intervals, exact) for each k of the sequence ks, in order.

    The one owner of the assertion rule.  resolution maps (k, q) -> asserted
    b_q(L_k).  Before any interval is computed every key is checked: k must
    be one of ks and q in 0..ell.  Then, one k at a time, an asserted value
    outside the interval of its degree is rejected whether or not that
    interval is resolved; an asserted open interval becomes that value, with
    no witness, and makes that k inexact.  Once the assertions at a k leave
    every degree resolved, the alternating sum of its values must be
    chi(M).  Open intervals without an assertion are passed on as data.
    """
    asserted: dict[int, dict[int, int]] = {}
    for (k, q), value in sorted((resolution or {}).items()):
        if k not in ks:
            visited = ", ".join(map(str, ks))
            raise ValueError(
                f"asserted b_{q}(L_{k}) = {value}: k={k} is not one of the visited k ({visited})"
            )
        if not 0 <= q <= a.ell:
            raise ValueError(
                f"asserted b_{q}(L_{k}) = {value}: degree out of range 0..{a.ell}"
            )
        asserted.setdefault(k, {})[q] = value
    nonresonant = _nonresonant_intervals(a)
    for k in ks:
        intervals = local_betti(a, k, extra_shifts, nonresonant=nonresonant)
        at_k = asserted.get(k)
        if not at_k:
            yield k, intervals, True
            continue
        for q, value in at_k.items():
            iv = intervals[q]
            if not iv.lower <= value <= iv.upper:
                raise ValueError(
                    f"asserted b_{q}(L_{k}) = {value} outside [{iv.lower}..{iv.upper}]"
                )
        closed = {q: v for q, v in at_k.items() if not intervals[q].resolved}
        intervals = tuple(
            BettiInterval(iv.degree, closed[iv.degree], closed[iv.degree], True)
            if iv.degree in closed else iv
            for iv in intervals
        )
        if all(iv.resolved for iv in intervals):
            values = [iv.lower for iv in intervals]
            alternating = sum((-1) ** q * v for q, v in enumerate(values))
            if alternating != euler_characteristic(a):
                raise ValueError(
                    f"asserted b(L_{k}) = {values} has Euler characteristic "
                    f"{alternating}, but chi(M) = {euler_characteristic(a)}"
                )
        yield k, intervals, not closed


def _local_values(a: Arrangement, ks, resolution) -> tuple[dict[int, tuple[int, ...]], bool]:
    """Resolved b_q(L_k) values for each k of ks, plus an exactness flag.

    The values come from resolve; the first k, in the order of ks, with an
    open interval and no assertion raises UnresolvedBettiError.
    """
    values = {}
    exact = True
    for k, intervals, k_exact in resolve(a, ks, resolution):
        open_intervals = [iv for iv in intervals if not iv.resolved]
        if open_intervals:
            raise UnresolvedBettiError(k, open_intervals)
        values[k] = tuple(iv.lower for iv in intervals)
        exact = exact and k_exact
    return values, exact


# ---------------------------------------------------------------------------
# Covers.
# ---------------------------------------------------------------------------

def cover_betti(a: Arrangement, m: int, resolution=None) -> CoverReport:
    """b_q(X_m) = sum over k | m of phi(k) * b_q(L_k), plus eigenspace data."""
    if m < 1:
        raise ValueError("m must be >= 1")
    phis = divisor_phis(m)
    values, exact = _local_values(a, list(phis), resolution)
    betti = tuple(
        sum(phis[k] * v[q] for k, v in values.items()) for q in range(a.ell + 1)
    )
    return CoverReport(m=m, betti=betti, charpoly_exponents=tuple(values.items()), exact=exact)


def monodromy_charpoly(a: Arrangement, m: int, q: int, resolution=None) -> CharpolyReport:
    """Characteristic polynomial of the degree-q monodromy of X_m.

    Delta_q = prod over k | m of Phi_k^(b_q(L_k)); its degree is b_q(X_m).
    The canonical form is the cyclotomic exponent map.  The product is
    rewritten by Mobius inversion as prod over d | m of (t^d - 1)^(f_d) and
    expanded through those sparse factors; the (t^d - 1) form is attached as
    tk_factors when every f_d is positive.  The expansion is left out (None)
    when the degree, sum over k of phi(k) * e_k = b_q(X_m), exceeds
    MAX_EXPANDED_DEGREE, so its cost never grows past that bound.
    """
    if not 0 <= q <= a.ell:
        raise ValueError(f"degree {q} out of range 0..{a.ell}")
    report = cover_betti(a, m, resolution)
    exps = report.exponents_for_degree(q)
    factors = tk_exponents(exps)
    all_positive = all(f > 0 for f in factors.values())
    return CharpolyReport(
        m=m,
        degree=q,
        exponents=tuple((k, e) for k, e in sorted(exps.items()) if e),
        expanded=tk_product(factors) if report.betti[q] <= MAX_EXPANDED_DEGREE else None,
        tk_factors=tuple(sorted(factors.items())) if all_positive else None,
        exact=report.exact,
    )


def periodicity(a: Arrangement, resolution=None) -> PeriodicityReport:
    """Polynomial periodicity of m -> b_q(X_m).

    The period N = lcm(1..n) is the smallest integer divisible by every
    k <= n; residues i share a class exactly when they share the divisor
    pattern {k <= n : k | i}.  That pattern only depends on gcd(i, N), so the
    classes are read off the divisors g of N (each its own gcd) instead of
    all N residues.  Degrees q < ell get constants b_q(X_i); the top degree
    gets beta * x plus the Euler-characteristic correction.
    """
    n = a.n
    ell = a.ell
    period = lcm(*range(1, n + 1))
    values, exact = _local_values(a, range(1, n + 1), resolution)
    b = beta(a)
    patterns = sorted(
        {tuple(k for k in range(1, n + 1) if g % k == 0) for g in divisors(period)}
    )
    phis = {k: euler_phi(k) for k in values}
    classes = []
    for pattern in patterns:
        constants = tuple(
            sum(phis[k] * values[k][q] for k in pattern)
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


def zeta_coefficients(a: Arrangement, q: int, resolution=None) -> ZetaReport:
    """Dirichlet coefficients of sum b_q(X_m) m^(-s) over the Riemann zeta.

    The finite part lists (k, phi(k) * b_q(L_k)) for k <= n; beyond n the
    coefficient is beta in the top degree and zero below it.
    """
    if not 0 <= q <= a.ell:
        raise ValueError(f"degree {q} out of range 0..{a.ell}")
    values, exact = _local_values(a, range(1, a.n + 1), resolution)
    return ZetaReport(
        degree=q,
        finite_terms=tuple((k, euler_phi(k) * v[q]) for k, v in values.items() if v[q]),
        tail_beta=beta(a) if q == a.ell else 0,
        exact=exact,
    )
