"""Invariants of the cyclic covers X_m of an arrangement complement.

For weights 1/k the local system Betti numbers b_q(L_k) are pinned between
the rational Aomoto cohomology maximized over integer weight shifts (lower
bound) and the mod-k minimal-generator ranks (upper bound); nonresonant k are
resolved outright to (0, ..., 0, beta).  Cover Betti numbers, monodromy
characteristic polynomials, polynomial periodicity classes and zeta
coefficients are all assembled from those per-divisor values.  Asserted
values for open intervals enter through resolve, the one owner of the
assertion rule: it checks every assertion against the k a command visits.

The local values that do not depend on a sweep live in one table per
arrangement (_local_table): the dense edges, read once, the resonant k,
read off their affine sizes, the k = 1 intervals and the (0, ..., 0, beta)
intervals that every nonresonant k shares.  So once the resonant k are
swept, assembling any cover invariant reads no dense edge and builds no
interval.

The lower-bound sweep evaluates one shift per orbit of the lattice
automorphisms.  A permutation sigma of the hyperplanes that maps affine flat
supports onto affine flat supports induces the graded automorphism
e_H -> e_sigma(H) of the affine Orlik-Solomon algebra, which carries the
Aomoto complex of weights 1 + k*s to that of 1 + k*(s o sigma^-1); the two
shifts have the same rational dims.  The running lower bound only goes up,
so a shift whose orbit holds an evaluated shift can never be the first
strict improver: skipping it changes no interval, witness, lower <= upper
check, early stop or Euler closure.  Any subgroup of the automorphisms is
sound, so a generator search capped at AUTOMORPHISM_NODE_BUDGET nodes only
skips fewer shifts.  The sweep and the group both work on support bitmasks
(bit i set where s_i = -1); a shift tuple is built only for a candidate that
is evaluated.  The orbits depend on the lattice, not on k, so the orbit
representatives of each support size are derived here once per arrangement
(cube_representatives), when a sweep first reaches that size, and every
resonant k reads the same tuples.  Each generator acts through per-byte
lookup tables built once per arrangement.  This module alone fixes the
candidate order, and with it every witness_shift.

The sweep ranks no shift of {-1, 0}^n whose Aomoto complex the dense edges
prove acyclic below the top degree (Yuzvinsky, Comm. Algebra 23, 1995;
Orlik-Terao, Arrangements and Hypergeometric Integrals, MSJ Memoirs 9,
2001): with w_inf = -sum(w_H) on the hyperplane at infinity, if
w_X = sum(w_H, H >= X) is nonzero on every dense edge X of the projective
closure that lies on the hyperplane at infinity, the dims are
(0, ..., 0, beta).  Any closure hyperplane H_j can play that part: deconing
at H_j gives an affine Orlik-Solomon algebra that e_i -> e_i - e_j maps
isomorphically onto the projective one, the kernel of the boundary map in
the cone's algebra, and as the closure weights sum to 0 each such map sends
its omega to the same sum(w_i e_i).  So the dims are (0, ..., 0, beta) as
soon as some closure hyperplane lies on no dense edge of weight 0 (Cohen,
Dimca and Orlik, Ann. Inst. Fourier 53, 2003, prove this one-hyperplane
form for the local systems themselves).  The
rule decides those dims, so such a shift raises lower and meets the upper
bound check exactly as its ranks would, whatever lower holds and however
large n is.  At weights 1 + k*s every w_X is a bit count: with S the
support mask of s, w_X vanishes exactly when (mask & S).bit_count() ==
quota, for one (mask, quota, closure support) triple per dense edge whose
size k divides, filtered at each k from the arrangement's one table of
dense edges.

Assembly never walks 1..m or the residues mod lcm(1..n), and does its
per-divisor work in bulk, so its cost grows with the number of divisors and
the degree, not with m.  m is factorised once per call, prime by prime into
its divisors and their phi; that one map gives the cover Betti numbers, the
degree of Delta_q and the primes of the Mobius step, which makes one pass
over the keys per prime.  The periodicity classes are the divisor patterns
of the divisors of the period, built as bitmasks one prime power at a time.
The nonresonant k without an assertion share one values tuple, which
_local_values fills in one step: only k = 1, the resonant k and the asserted
k go through resolve, and cover_betti weighs the shared tuple by m less the
phi(k) of the others.  Delta_q is expanded through sparse t^d - 1 factors:
each (t^d - 1)^f adds as f + 1 scaled copies of one coefficient list, so its
zero runs cost one fill, and a division by t^d - 1 is a C-level list pass.
A degree above MAX_EXPANDED_DEGREE is not expanded at all.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, lcm
from operator import getitem

from .arrangement import (
    Arrangement,
    beta,
    betti_numbers,
    closure_lattice,
    dense_edges,
    euler_characteristic,
    support_mask,
)
from .cyclofield import IntPoly, divisor_phis, euler_phi, factorize, tk_exponents, tk_product
from .exactlin import cohomology_Q, cohomology_modN
from .osalgebra import aomoto_matrices, integers
from .record import derived, record


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
        self.__dict__.update(k_vector=integers(k_vector), modulus=modulus)

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
        if resolved != (lower == upper):
            raise ValueError(f"interval [{lower}..{upper}] cannot have resolved={resolved}")
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


@record
class CharpolyReport:
    m: int
    degree: int
    exponents: tuple[tuple[int, int], ...]  # (k, d) with d > 0, k ascending
    expanded: IntPoly | None  # None above MAX_EXPANDED_DEGREE
    tk_factors: tuple[tuple[int, int], ...] | None  # (j, e) when a product of t^j - 1 works
    exact: bool


@record
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


@record
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


@record
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
    The test runs on the numerators: a flat's weight is s / N with s the sum
    of k_H over its affine support, less sum(k_H) when it lies at infinity.
    """
    if len(w.k_vector) != a.n:
        raise ValueError(f"expected {a.n} weights, got {len(w.k_vector)}")
    numerators = w.k_vector + (-sum(w.k_vector),)
    for flat in _dense_closure_flats(a):
        s = sum(numerators[i] for i in flat.support)
        if s % w.modulus == 0 and s >= 0:
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


@derived
def _local_table(a: Arrangement) -> tuple[frozenset[int], tuple[BettiInterval, ...],
                                          tuple[BettiInterval, ...],
                                          tuple[tuple[int, int, bool], ...]]:
    """(resonant k, k = 1 intervals, nonresonant intervals, dense edges).

    The dense edges X of the closure are read once, each kept as
    (mask, size, at_infinity): mask is the affine support X_a, or its
    complement among the affine hyperplanes when X lies at infinity, and size
    is its bit count.  k >= 2 is resonant when it divides the size of an
    affine dense edge, else its intervals are (0, ..., 0, beta).  That is
    exactly fast_nonresonant or stv_nonresonant at weights 1/k: an affine
    dense edge has weight |X|/k >= 0, integral iff k | |X|, which each clause
    of fast_nonresonant rules out; an edge at infinity has weight
    -(n - |X_a|)/k < 0, as none holds every affine hyperplane.
    """
    n = a.n
    edges = []
    for flat in _dense_closure_flats(a):
        mask = support_mask(flat.support)
        at_infinity = n in flat.support
        if at_infinity:
            mask ^= (2 << n) - 1
        edges.append((mask, mask.bit_count(), at_infinity))
    resonant = frozenset(k for _, size, at_infinity in edges if not at_infinity
                         for k in range(2, size + 1) if size % k == 0)
    return (resonant, _resolved_intervals(betti_numbers(a)),
            _resolved_intervals([0] * a.ell + [beta(a)]), tuple(edges))


# ---------------------------------------------------------------------------
# Local system Betti intervals.
# ---------------------------------------------------------------------------

def _resolved_intervals(values) -> tuple[BettiInterval, ...]:
    return tuple(BettiInterval(q, v, v, True) for q, v in enumerate(values))


@derived
def _bound_intervals(a: Arrangement, k: int, extra_shifts) -> tuple[BettiInterval, ...]:
    """Bracket b_q(L_k) between shifted rational Aomoto dims and mod-k ranks.

    b_0 is pinned to 0 for k > 1 (a nontrivial rank-one system on a connected
    space has no invariants).  The upper bound is the largest of the F_p
    dims of the all-ones complex over the primes p | k, each derived once per
    arrangement (_dims_mod_p).  The shift sweep stops early once every degree
    is resolved; the Euler-characteristic constraint closes a single leftover
    gap.  A shift of {-1, 0}^n with a closure hyperplane on no dense edge
    of weight 0 takes its dims (0, ..., 0, beta) from the rule, with no rank
    (see the module docstring; the hyperplane need not be the one at
    infinity); a ranked shift and a decided one then raise lower and meet
    the upper bound check alike.  With S the shift's support, a dense edge X
    weighs |X_a| - k*|X_a & S|, or k*|S - X_a| - (n - |X_a|) at infinity,
    so w_X = 0 exactly when k divides the size of its mask in _local_table
    and (mask & S) has size // k bits.  Each such edge keeps its closure
    support beside (mask, quota): the mask itself for an affine edge, the
    affine support with bit n for an edge at infinity.
    A shift whose F_p ranks already bound its dims by lower is not ranked
    over Q either: cohomology_Q gives those bounds, which can neither raise
    lower nor exceed upper, as lower <= upper holds throughout.
    """
    ell = a.ell
    upper = list(map(max, zip(*(_dims_mod_p(a, p) for p, _ in factorize(k)))))
    upper[0] = 0
    lower = [0] * (ell + 1)
    witness: dict[int, tuple[int, ...]] = {}
    acyclic = (0,) * ell + (beta(a),)
    n = a.n
    affine = (1 << n) - 1
    quotas = [(mask, size // k, affine ^ mask | 1 << n if at_infinity else mask)
              for mask, size, at_infinity in _local_table(a)[3] if size % k == 0]
    for shift in _candidates(a, extra_shifts):
        cube = set(shift) <= {-1, 0}
        if cube and _acyclic_below_top(quotas, support_mask(i for i, v in enumerate(shift) if v), n):
            dims = acyclic
        else:
            weights = tuple(1 + k * mv for mv in shift)
            dims = cohomology_Q(aomoto_matrices(a, weights), lower).dims
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


@derived
def _dims_mod_p(a: Arrangement, p: int) -> tuple[int, ...]:
    """The F_p dims of the all-ones Aomoto complex, for a prime p."""
    return cohomology_modN(aomoto_matrices(a, (1,) * a.n), p).dims


def _acyclic_below_top(quotas, support: int, n: int) -> bool:
    """True when some closure hyperplane (index 0..n, n at infinity) lies on
    no dense edge whose weight vanishes on the shift with this support
    bitmask, given the (mask, quota, closure support) triples of
    _bound_intervals: its Aomoto dims are then (0, ..., 0, beta).  The
    closure supports of the vanishing edges are ORed, and the test stops
    once they cover all n + 1 hyperplanes."""
    everything = (2 << n) - 1
    covered = 0
    for mask, quota, closure in quotas:
        if (mask & support).bit_count() == quota:
            covered |= closure
            if covered == everything:
                return False
    return True


# Nodes one backtracking search of automorphisms may visit.
AUTOMORPHISM_NODE_BUDGET = 4096


def byte_tables(perm) -> tuple[tuple[int, ...], ...]:
    """The image of a support bitmask under perm, the mask of {perm[i] : bit
    i is set}, as lookup tables, one per byte of the mask: tables[b][v] is
    the image of v << 8*b.  There are ceil(n/8) tables of at most 256
    entries, each filled by doubling, one bit at a time."""
    n = len(perm)
    tables = []
    for base in range(0, n, 8):
        table = [0]
        for i in range(base, min(base + 8, n)):
            image = 1 << perm[i]
            table += [t | image for t in table]
        tables.append(tuple(table))
    return tuple(tables)


def orbit(mask: int, tables) -> set[int]:
    """Orbit of a support bitmask under the group some permutations make,
    each given by its byte_tables: the image of x is the union of the
    tables' entries at the bytes of x."""
    found = {mask}
    frontier = [mask]
    while frontier:
        x = frontier.pop()
        for perm in tables:
            y = 0
            rest = x
            for table in perm:
                y |= table[rest & 255]
                rest >>= 8
            if y not in found:
                found.add(y)
                frontier.append(y)
    return found


@derived
def automorphisms(a: Arrangement) -> tuple[tuple[int, ...], ...]:
    """Generators of a group of lattice automorphisms, as permutations of
    the affine indices: perm[i] is the image of hyperplane i.

    A permutation qualifies when it maps every affine flat support (a
    closure flat off the hyperplane at infinity) onto an affine flat
    support, so it preserves the affine intersection poset, codims and
    emptiness included.  The set is a stabiliser chain found from the
    deepest level up: at level i, for each c > i not in the orbit of i
    under the generators found so far (which all fix 0..i-1), one
    backtracking search looks for the first permutation
    fixing 0..i-1 with i -> c.  The search prunes a partial map on the
    codim-2 flat of each pair of assigned hyperplanes and on the (codim,
    size) profile of the affine flats through each one, and keeps a full
    permutation only if it passes the support check.  There are at most
    n(n-1)/2 generators, and the group itself is never enumerated.  A
    search that exceeds AUTOMORPHISM_NODE_BUDGET nodes gives up, which can
    only leave a subgroup.
    """
    n = a.n
    lattice = closure_lattice(a)
    flats, join = lattice.flats, lattice.join
    affine = [f.support for f in flats if n not in f.support]
    affine_set = set(map(support_mask, affine))
    # line[i][j]: the closure support of H_i cap H_j; bit n is set when
    # the two are parallel
    line = [[support_mask(flats[join[join[0][i]][j]].support)
             for j in range(n)] for i in range(n)]
    profile = [sorted((f.codim, len(f.support)) for f in flats
                      if i in f.support and n not in f.support) for i in range(n)]

    def first_leaf(i: int, c: int) -> tuple[int, ...] | None:
        image = list(range(i)) + [None] * (n - i)
        used = set(range(i))
        nodes = 0

        def fits(x: int, y: int) -> bool:
            # every codim-2 flat on x maps onto the one on the images
            if profile[x] != profile[y]:
                return False
            for u in range(x):
                s, t = line[u][x], line[image[u]][y]
                if s.bit_count() != t.bit_count() or s >> n != t >> n:
                    return False
                if any(s >> z & 1 != t >> image[z] & 1 for z in range(x)):
                    return False
            return True

        def extend(x: int) -> bool:
            nonlocal nodes
            if x == n:
                return all(support_mask(image[i] for i in s) in affine_set for s in affine)
            for y in ([c] if x == i else range(n)):
                if y in used or not fits(x, y):
                    continue
                nodes += 1
                if nodes > AUTOMORPHISM_NODE_BUDGET:
                    return False
                image[x] = y
                used.add(y)
                if extend(x + 1):
                    return True
                used.discard(y)
            return False

        return tuple(image) if extend(i) else None

    def point_orbit(i: int) -> set[int]:
        reached, frontier = {i}, [i]
        while frontier:
            x = frontier.pop()
            for perm in generators:
                if perm[x] not in reached:
                    reached.add(perm[x])
                    frontier.append(perm[x])
        return reached

    generators: list[tuple[int, ...]] = []
    for i in reversed(range(n)):
        reached = point_orbit(i)
        for c in range(i + 1, n):
            if c not in reached:
                perm = first_leaf(i, c)
                if perm is not None:
                    generators.append(perm)
                    reached = point_orbit(i)
    return tuple(generators)


@derived
def generator_tables(a: Arrangement) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The automorphisms as lookup tables on support bitmasks, one
    byte_tables(perm) per generator."""
    return tuple(map(byte_tables, automorphisms(a)))


@derived
def cube_representatives(a: Arrangement, size: int) -> tuple[int, ...]:
    """The first support mask of each orbit of the shift cube {-1, 0}^n
    among the masks of size bits (an orbit keeps the size), in combinations
    order.  Sizes 0 and n hold one mask each, so they read no automorphisms."""
    seen: set[int] = set()
    found = []
    for mask in map(sum, combinations([1 << i for i in range(a.n)], size)):
        if mask not in seen:
            found.append(mask)
            if 0 < size < a.n:
                seen |= orbit(mask, generator_tables(a))
    return tuple(found)


def _candidates(a: Arrangement, extra_shifts):
    """The shifts the lower-bound sweep evaluates, in order: the extra shifts
    (integer tuples of length n, checked by local_betti), then every vector of
    {-1, 0}^n by support size and then support (weights 1/k shifted by m stay
    in (-1, 1)), or only the zero shift beyond MAX_ENUMERATION.  Up to
    MAX_ENUMERATION a shift in {-1, 0}^n is held by its support bitmask and
    skipped when the orbit of a shift yielded before it holds it.

    The cube is read one support size at a time from cube_representatives,
    the first mask of each orbit, derived once per arrangement and size.  A
    representative is skipped exactly when the orbit of an extra shift holds
    it; every other mask lies in the orbit of an earlier representative.
    A size is derived only when a sweep first reaches it.
    """
    n = a.n
    small = n <= MAX_ENUMERATION
    seen: set[int] = set()
    for shift in extra_shifts:
        in_cube = small and set(shift) <= {-1, 0}
        mask = support_mask(i for i, v in enumerate(shift) if v) if in_cube else None
        if mask in seen:
            continue
        yield shift
        if mask is not None:
            seen |= orbit(mask, generator_tables(a))
    for size in range(n + 1 if small else 1):
        for mask in cube_representatives(a, size):
            if mask not in seen:
                yield tuple(-(mask >> i & 1) for i in range(n))


def local_betti(
    a: Arrangement,
    k: int,
    extra_shifts: tuple[tuple[int, ...], ...] = (),
) -> tuple[BettiInterval, ...]:
    """Per-degree intervals for b_q(L_k), weights 1/k.

    k = 1 is the trivial system (constant Betti numbers); nonresonant k give
    (0, ..., 0, beta) exactly; otherwise the combinatorial bounds are
    computed and unresolved intervals are returned as data, not errors.
    The lower-bound sweep tries the extra_shifts, a tuple of integer shift
    tuples of length n, before {-1, 0}^n (see _candidates); each is checked
    at every k, even where no sweep runs.  The k = 1 and nonresonant
    intervals come from the arrangement's one table (_local_table), so every
    call returns the same tuples.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if extra_shifts:
        for shift in extra_shifts:
            if len(shift) != a.n:
                raise ValueError(f"shift {shift} has length {len(shift)}, expected {a.n}")
        extra_shifts = tuple(map(integers, extra_shifts))
    resonant, trivial, nonresonant, _ = _local_table(a)
    if k in resonant:
        return _bound_intervals(a, k, extra_shifts)
    return trivial if k == 1 else nonresonant


def _assertions(a: Arrangement, ks, resolution) -> dict[int, dict[int, int]]:
    """resolution, a map (k, q) -> asserted b_q(L_k), as {k: {q: value}} once
    every key is checked: k must be one of ks and q in 0..ell; then every k
    of ks must be >= 1.  It reads no local value."""
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
    if min(ks, default=1) < 1:
        raise ValueError("k must be >= 1")
    return asserted


def resolve(a: Arrangement, ks, resolution=None, extra_shifts=()):
    """Yield (k, intervals, exact) for each k of the sequence ks, in order.

    The one owner of the assertion rule.  resolution maps (k, q) -> asserted
    b_q(L_k).  Before any interval is computed every key is checked against
    ks and every k against 1 (_assertions).  Then, one k at a time, an
    asserted value outside the interval of its degree is rejected whether or
    not that interval is resolved; an asserted open interval becomes that
    value, with no witness, and makes that k inexact.  Once the assertions at
    a k leave every degree resolved, the alternating sum of its values must
    be chi(M).  Open intervals without an assertion are passed on as data.
    """
    asserted = _assertions(a, ks, resolution)
    for k in ks:
        intervals = local_betti(a, k, extra_shifts)
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


def _local_values(a: Arrangement, ks, resolution,
                  q=None) -> tuple[dict[int, tuple[int, ...]], list[int], bool]:
    """Resolved b_q(L_k) values for each k of the ascending ks, the k with
    values of their own, and an exactness flag.

    The assertions are checked against all of ks before the arrangement's
    table is read.  The nonresonant k > 1 without an assertion share one
    values tuple, filled in one step; only k = 1, the resonant k and the
    asserted k go through resolve.  The caller reads degree q, or every
    degree when q is None; the first k that leaves a read degree open with
    no assertion raises UnresolvedBettiError, which lists every open
    interval at that k.  An open degree the caller does not read holds its
    lower bound.
    """
    asserted = _assertions(a, ks, resolution)
    resonant, _, shared, _ = _local_table(a)
    values = dict.fromkeys(ks, tuple(iv.lower for iv in shared))
    own = sorted(resonant.union((1,), asserted).intersection(ks))
    exact = True
    for k, intervals, k_exact in resolve(a, own, resolution):
        open_intervals = [iv for iv in intervals if not iv.resolved]
        if any(q in (None, iv.degree) for iv in open_intervals):
            raise UnresolvedBettiError(k, open_intervals)
        values[k] = tuple(iv.lower for iv in intervals)
        exact = exact and k_exact
    return values, own, exact


# ---------------------------------------------------------------------------
# Covers.
# ---------------------------------------------------------------------------

def cover_betti(a: Arrangement, m: int, resolution=None) -> CoverReport:
    """b_q(X_m) = sum over k | m of phi(k) * b_q(L_k), plus eigenspace data."""
    if m < 1:
        raise ValueError("m must be >= 1")
    phis = divisor_phis(m)
    values, own, exact = _local_values(a, list(phis), resolution)
    # distinct values -> sum of their phi(k); the phi(k) of all k | m sum to
    # m, so the shared nonresonant values weigh m less the phi(k) of the others
    weights = {tuple(iv.lower for iv in _local_table(a)[2]): m - sum(map(phis.get, own))}
    for k in own:
        weights[values[k]] = weights.get(values[k], 0) + phis[k]
    betti = tuple(sum(w * v[q] for v, w in weights.items()) for q in range(a.ell + 1))
    return CoverReport(m, betti, tuple(values.items()), exact)


def monodromy_charpoly(a: Arrangement, m: int, q: int, resolution=None) -> CharpolyReport:
    """Characteristic polynomial of the degree-q monodromy of X_m.

    Delta_q = prod over k | m of Phi_k^(b_q(L_k)); its degree is b_q(X_m).
    The canonical form is the cyclotomic exponent map.  The product is
    rewritten by Mobius inversion as prod over d | m of (t^d - 1)^(f_d) and
    expanded through those sparse factors; the (t^d - 1) form is attached as
    tk_factors when every f_d is positive.  The expansion is left out (None)
    when the degree, sum over k of phi(k) * e_k = b_q(X_m), exceeds
    MAX_EXPANDED_DEGREE, so its cost never grows past that bound.  m is
    factorised once, into the divisors k of m with their phi(k); the primes
    of the Mobius step are read off that map, so nothing else is factorised.
    """
    return charpoly_and_degree(a, m, q, resolution)[0]


def charpoly_and_degree(a: Arrangement, m: int, q: int,
                        resolution=None) -> tuple[CharpolyReport, int]:
    """monodromy_charpoly's report and the degree b_q(X_m) of Delta_q, both
    from the one factorisation of m."""
    if not 0 <= q <= a.ell:
        raise ValueError(f"degree {q} out of range 0..{a.ell}")
    if m < 1:
        raise ValueError("m must be >= 1")
    phis = divisor_phis(m)
    values, _, exact = _local_values(a, list(phis), resolution, q)
    exps = {k: v[q] for k, v in values.items()}
    degree = sum(phis[k] * e for k, e in exps.items())
    # a divisor k > 1 of m is prime exactly when phi(k) = k - 1
    factors = tk_exponents(exps, [k for k, phi in phis.items() if k > 1 and phi == k - 1])
    report = CharpolyReport(
        m,
        q,
        tuple((k, e) for k, e in exps.items() if e),
        tk_product(factors) if degree <= MAX_EXPANDED_DEGREE else None,
        tuple(factors.items()) if all(f > 0 for f in factors.values()) else None,
        exact,
    )
    return report, degree


def periodicity(a: Arrangement, resolution=None) -> PeriodicityReport:
    """Polynomial periodicity of m -> b_q(X_m).

    The period N = lcm(1..n) is the smallest integer divisible by every
    k <= n; residues i share a class exactly when they share the divisor
    pattern {k <= n : k | i}.  That pattern only depends on gcd(i, N), so the
    classes are read off the divisors g of N (each its own gcd) instead of
    all N residues; distinct g have distinct patterns, as g is the lcm of
    its own.  The patterns are built as bitmasks, bit k for k, one prime
    power of N at a time: k | g unless p^(i+1) | k, for i the exponent of p
    in g.  Per-byte lookup tables turn each mask into its tuple, and the
    classes follow the sorted tuples.  Degrees q < ell get constants
    b_q(X_i); the top degree gets beta * x plus the Euler-characteristic
    correction.  The terms phi(k) * b_q(L_k) below the top degree are formed
    once per k with values of its own (the shared ones are zero there); a
    class sums only the k whose terms are not all zero, keyed on their bits.
    """
    n = a.n
    ell = a.ell
    period = lcm(*range(1, n + 1))
    values, own, exact = _local_values(a, range(1, n + 1), resolution)
    b = beta(a)
    terms = {k: [euler_phi(k) * x for x in values[k][1:ell]]
             for k in own if any(values[k][1:ell])}
    full = (2 << n) - 2  # bits 1..n
    masks = [full]
    for p, e in factorize(period):
        # p^(i-1) exactly in g, 1 <= i <= e + 1: every k but the multiples of p^i
        cuts = [full ^ sum(1 << k for k in range(p**i, n + 1, p**i)) for i in range(1, e + 2)]
        masks = [mask & cut for mask in masks for cut in cuts]
    # tables[j][v]: the k at the set bits of v, byte j of mask >> 1
    tables = [[()] for _ in range(0, n, 8)]
    for k in range(1, n + 1):
        tables[(k - 1) // 8] += [t + (k,) for t in tables[(k - 1) // 8]]
    patterns = {sum(map(getitem, tables, (mask >> 1).to_bytes(len(tables), "little")), ()): mask
                for mask in masks}
    terms_mask = sum(1 << k for k in terms)
    by_terms = {}  # mask & terms_mask -> (constants, top constant)
    for summed in {mask & terms_mask for mask in masks}:
        constants = tuple(sum(t[i] for k, t in terms.items() if summed >> k & 1)
                          for i in range(ell - 1))
        alternating = sum((-1) ** q * c for q, c in enumerate(constants, start=1))
        by_terms[summed] = constants, (-1) ** (ell + 1) * (1 + alternating)
    classes = []
    for pattern in sorted(patterns):
        constants, top_constant = by_terms[patterns[pattern] & terms_mask]
        # by position: record's __init__ is fastest on that call
        classes.append(PeriodicityClass(pattern, constants, b, top_constant))
    return PeriodicityReport(period, ell, tuple(classes), exact)


def zeta_coefficients(a: Arrangement, q: int, resolution=None) -> ZetaReport:
    """Dirichlet coefficients of sum b_q(X_m) m^(-s) over the Riemann zeta.

    The finite part lists (k, phi(k) * b_q(L_k)) for k <= n; beyond n the
    coefficient is beta in the top degree and zero below it.
    """
    if not 0 <= q <= a.ell:
        raise ValueError(f"degree {q} out of range 0..{a.ell}")
    values, _, exact = _local_values(a, range(1, a.n + 1), resolution, q)
    return ZetaReport(
        q,
        tuple((k, euler_phi(k) * v[q]) for k, v in values.items() if v[q]),
        beta(a) if q == a.ell else 0,
        exact,
    )
