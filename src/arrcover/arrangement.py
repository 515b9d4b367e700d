"""Affine hyperplane arrangements over Q(zeta_d) and their intersection lattices.

An arrangement is an ordered list of affine hyperplanes c0 + sum(c_i x_i) = 0
with coefficients in one cyclotomic field.  This module provides validated
construction, the cone/decone pair, the intersection lattice with its Mobius
function, the Poincare polynomial, the beta invariant, and dense-edge flags on
the projective closure.  What is derived from an arrangement, here and in
osalgebra and covers, lives as long as the arrangement (see derived).

All exact linear algebra happens in one pass, the lattice of the projective
closure (the affine rows plus the hyperplane at infinity).  Its flats are
keyed by their supports, so the flat set does not depend on hyperplane
order; the pass finds each flat's covers from the residues of the rows
modulo that flat and records the join table flat -> flat cap H_j.  A flat's
residues are those of the flat it was found from, each reduced by one
fraction-free step with the flat's one new equation, and a flat of codim
ell, whose quotient is one-dimensional, is not reduced at all.  That pass
works in integer arithmetic over Z[zeta_d]: each row is scaled by the lcm of
its denominators, and each residue is keyed by the primitive integer point
on its line, reached through the norm of the leading entry.  The affine
flats are the closure flats off the hyperplane at infinity, and the dense
edges are the closure flats below the center of the cone, flagged by Crapo's
beta invariant of their localizations in the scan that finds the Mobius values.
"""

from __future__ import annotations

from functools import update_wrapper
from math import gcd, lcm
from threading import Lock
from types import SimpleNamespace
from weakref import finalize

from .cyclofield import CycNum, IntPoly, reduced_row_echelon, zadjugate, zmul
from .record import record


@record
class Hyperplane:
    """Affine hyperplane {x : constant + coeffs . x = 0}; linear part nonzero."""

    constant: CycNum
    coeffs: tuple[CycNum, ...]

    def __init__(self, constant, coeffs):
        coeffs = tuple(coeffs)
        if all(c.is_zero for c in coeffs):
            raise ValueError("hyperplane has zero linear part")
        orders = {constant.order} | {c.order for c in coeffs}
        if len(orders) != 1:
            raise ValueError(f"mixed cyclotomic orders in hyperplane: {sorted(orders)}")
        self.__dict__.update(constant=constant, coeffs=coeffs)

    @property
    def order(self) -> int:
        return self.constant.order

    def affine_row(self) -> tuple[CycNum, ...]:
        """Row (coeffs | -constant) of the linear system coeffs . x = -constant."""
        return self.coeffs + (-self.constant,)

    def line_key(self) -> tuple:
        """The primitive integer point on the line of the affine row over
        Q(zeta_d), with its leading column (see _residue).  Two hyperplanes
        are equal, their forms proportional, exactly when their keys are."""
        return _residue(_integer_row(self.affine_row()), (), self.order)


@record
class Arrangement:
    """Ordered, duplicate-free arrangement of n hyperplanes in C^ambient_dim."""

    ambient_dim: int
    cyc_order: int
    hyperplanes: tuple[Hyperplane, ...]
    is_central: bool

    @property
    def n(self) -> int:
        return len(self.hyperplanes)

    @property
    def ell(self) -> int:
        return self.ambient_dim


_derived: dict[int, dict] = {}  # id(a) -> {(fn, args): fn(a, *args)}
_derived_lock = Lock()


def derived(fn):
    """fn(a, *args), computed once per live value a (an arrangement or its
    algebra) and args and kept in _derived, not on a, so a pickles without
    it; weakref.finalize drops a's values when a is collected, before its id
    is reused.  Threads that miss together each compute, and all get the
    first value stored."""
    info = SimpleNamespace(misses=0)

    def once(a, *args):
        try:
            return _derived[id(a)][fn, args]
        except KeyError:
            pass
        value = fn(a, *args)
        with _derived_lock:
            info.misses += 1
            if id(a) not in _derived:
                finalize(a, _derived.pop, id(a))
            return _derived.setdefault(id(a), {}).setdefault((fn, args), value)

    once.cache_info = lambda: info  # misses: the calls that computed
    return update_wrapper(once, fn)


def build(ambient_dim: int, cyc_order: int, hyperplanes) -> Arrangement:
    """Validated arrangement: rejects duplicates and non-essential input.

    Hyperplanes are grouped by line key; with several duplicate groups, the
    error names the least pair (first, second index of a group).
    Essentiality (the linear parts span the ambient space) is required by all
    downstream invariants; the error message names the rank actually found.
    """
    hps = tuple(hyperplanes)
    if ambient_dim < 1:
        raise ValueError("ambient dimension must be >= 1")
    for h in hps:
        if h.order != cyc_order:
            raise ValueError(f"hyperplane order {h.order} != arrangement order {cyc_order}")
        if len(h.coeffs) != ambient_dim:
            raise ValueError(f"expected {ambient_dim} coefficients, got {len(h.coeffs)}")
    groups: dict[tuple, list[int]] = {}
    for j, h in enumerate(hps):
        groups.setdefault(h.line_key(), []).append(j)
    duplicates = [g[:2] for g in groups.values() if len(g) > 1]
    if duplicates:
        i, j = min(duplicates)
        raise ValueError(f"duplicate hyperplanes at indices {i} and {j}")
    rank = len(reduced_row_echelon([h.coeffs for h in hps])[0])
    if rank != ambient_dim:
        raise ValueError(
            f"non-essential arrangement: linear parts have rank {rank} < {ambient_dim}"
        )
    central = all(h.constant.is_zero for h in hps)
    return Arrangement(ambient_dim, cyc_order, hps, central)


# ---------------------------------------------------------------------------
# Cone and decone.
# ---------------------------------------------------------------------------

def cone(a: Arrangement) -> Arrangement:
    """Central arrangement in one more variable.

    Each form c0 + sum(c_i x_i) becomes c0*x0 + sum(c_i x_i) with the
    homogenizing coordinate x0 placed last; the new hyperplane {x0 = 0} is
    appended last.
    """
    d = a.cyc_order
    zero = CycNum.zero(d)
    one = CycNum.one(d)
    hps = [Hyperplane(zero, h.coeffs + (h.constant,)) for h in a.hyperplanes]
    hps.append(Hyperplane(zero, (zero,) * a.ambient_dim + (one,)))
    return build(a.ambient_dim + 1, d, hps)


def decone(c: Arrangement, at: int) -> Arrangement:
    """Affine arrangement obtained by sending hyperplane `at` to infinity.

    An invertible coordinate change takes the chosen linear form to the last
    coordinate (the complementary coordinates are chosen greedily by pivot
    position), which is then set to 1.
    """
    if not c.is_central:
        raise ValueError("decone requires a central arrangement")
    if not 0 <= at < c.n:
        raise ValueError(f"hyperplane index {at} out of range")
    d = c.cyc_order
    alpha = c.hyperplanes[at].coeffs
    dim = c.ambient_dim
    p = next(i for i, v in enumerate(alpha) if not v.is_zero)
    inv_ap = alpha[p].inverse()
    # Columns of the change of basis: e_k - (alpha_k/alpha_p) e_p for k != p,
    # then e_p/alpha_p.  A form with row vector `coef` becomes coef @ M, whose
    # last entry is the coefficient of the coordinate being set to 1.
    new_hps = []
    for i, h in enumerate(c.hyperplanes):
        if i == at:
            continue
        coef = h.coeffs
        linear = tuple(
            coef[k] - alpha[k] * coef[p] * inv_ap for k in range(dim) if k != p
        )
        constant = coef[p] * inv_ap
        new_hps.append(Hyperplane(constant, linear))
    return build(dim - 1, d, new_hps)


# ---------------------------------------------------------------------------
# Intersection lattice.
# ---------------------------------------------------------------------------

@record
class Flat:
    """Flat of the intersection lattice.

    support is the full closure (every hyperplane containing the flat), which
    identifies the flat; multiplicity is len(support).  dense is None only on
    the codim-0 flat.
    """

    support: tuple[int, ...]
    codim: int
    mobius: int
    dense: bool | None

    @property
    def multiplicity(self) -> int:
        return len(self.support)


@record
class IntersectionLattice:
    """Flats grouped by codimension 0..rank."""

    levels: tuple[tuple[Flat, ...], ...]
    rank: int

    def flats(self):
        for level in self.levels:
            yield from level


@record
class ClosureLattice:
    """Flats of the projective closure with their join table.

    flats lists every closure flat in level order, codim 0 first; support
    index n is the hyperplane at infinity.  join[f][j] is the index of the
    flat flats[f] cap H_j, the closure of support(f) + {j}.
    """

    flats: tuple[Flat, ...]
    join: tuple[tuple[int, ...], ...]


def support_mask(indices) -> int:
    return sum(1 << i for i in indices)


def _by_codim(flats) -> IntersectionLattice:
    levels: list[list[Flat]] = []
    for flat in flats:
        if flat.codim == len(levels):
            levels.append([])
        levels[flat.codim].append(flat)
    return IntersectionLattice(levels=tuple(map(tuple, levels)), rank=len(levels) - 1)


def _integer_row(row) -> tuple[tuple[int, ...], ...]:
    """A row over Q(zeta_d) scaled by the lcm of its denominators: a row over
    Z[zeta_d], each entry a power-basis tuple of ints."""
    scale = lcm(*(c.denominator for v in row for c in v.coeffs))
    return tuple(tuple(c.numerator * (scale // c.denominator) for c in v.coeffs) for v in row)


def _residue(row, basis, d: int):
    """(leading column, key) of an integer row reduced modulo a flat's basis:
    rows off the flat lie in one cover iff their keys are equal.

    Each basis row b has a positive rational integer L = b[lead], so
    row <- L*row - row[lead]*b clears row[lead] with integer operations only.
    The residue is then multiplied by the adjugate of its leading entry,
    which makes that entry a rational integer, and divided by the gcd of its
    coefficients, signed so that the leading entry is positive.  That is the
    unique primitive integer point on the residue's line over Q(zeta_d).
    The adjugate is taken of the leading entry divided by the gcd c of its
    coefficients: that scales the product by c^(phi(d) - 1) > 0 only, which
    leaves the point unchanged, and the elimination leaves large contents.
    """
    for lead, brow in basis:
        c = row[lead]
        if any(c):
            scale = brow[lead][0]
            row = tuple(
                tuple(scale * x - y for x, y in zip(v, zmul(c, w, d)))
                for v, w in zip(row, brow)
            )
    lead = next(i for i, v in enumerate(row) if any(v))
    if any(row[lead][1:]):
        entry = row[lead]
        content = gcd(*entry)
        if content > 1:
            entry = tuple(x // content for x in entry)
        adj = zadjugate(entry, d)
        row = tuple(zmul(adj, v, d) for v in row)
    g = gcd(*(x for v in row for x in v))
    if row[lead][0] < 0:
        g = -g
    return lead, tuple(tuple(x // g for x in v) for v in row)


@derived
def closure_lattice(a: Arrangement) -> ClosureLattice:
    """The one exact geometry pass: the lattice of the projective closure.

    The closure is the central arrangement of the affine rows
    (coeffs | -constant) plus the row (0, ..., 0 | 1) of the hyperplane at
    infinity, index n, each scaled by the lcm of its denominators so that its
    entries lie in Z[zeta_d].  A flat is keyed by its support.  The lattice
    is built level by level: each row outside a flat's support is reduced
    modulo the flat's equations, and rows j, k give the same cover
    flat cap H_j exactly when their residues are proportional over
    Q(zeta_d).  Each residue is keyed by the primitive integer point on its
    line, reached through the norm of its leading entry (see _residue).  So
    the rows grouped by key are the covers of the flat, each with support
    support(flat) plus its group, and the groups fill the flat's row of the
    join table.
    A flat's equations are the keys that found it, one per level, each zero
    in the leading columns of those before it.  A cover found from flat f
    reduces f's residues by its one new equation E, one fraction-free step
    each (Bareiss, Math. Comp. 22, 1968).  That is exact: the span of row j
    and the equations meets the zero pattern on their leading columns in
    one line, and the reduced residue and row j reduced from scratch are
    both nonzero points on it, so they share the primitive point.  A
    codim-ell flat, whose quotient is one-dimensional, is not reduced.
    Mobius values follow the recursion mu(Y) = -sum(mu(Z)) over flats Z with
    support(Z) strictly inside support(Y), all on lower levels; Y is dense
    (see dense_edges) when Crapo's beta |mu(Y) codim(Y) + sum(mu(Z) codim(Z))|
    over the same Z is nonzero (J. Combin. Theory 2, 1967).
    """
    d = a.cyc_order
    rows = [_integer_row(h.affine_row()) for h in a.hyperplanes]
    rows.append(_integer_row((CycNum.zero(d),) * a.ambient_dim + (CycNum.one(d),)))
    ell = a.ambient_dim
    supports: list[tuple[int, ...]] = [()]
    codims = [0]
    index_of = {(): 0}
    # found_from[f]: the residue of each row j off the flat f was found from,
    # by j (the rows themselves for flat 0), and f's new equation as a
    # one-row basis; dropped once f is scanned, so a residue map lives until
    # the last flat found from it is scanned
    found_from: list = [(rows, ())]
    join: list[tuple[int, ...]] = []
    # supports grows while it is scanned, one level after the other
    for f, support in enumerate(supports):
        (above, equation), found_from[f] = found_from[f], None
        groups: dict[tuple, list[int]] = {}
        if codims[f] < ell:
            residues = {}
            for j in range(len(rows)):
                if j not in support:
                    residue = _residue(above[j], equation, d)
                    residues[j] = residue[1]
                    groups.setdefault(residue, []).append(j)
        else:
            # the quotient by a codim-ell flat is one-dimensional, so every
            # row off the flat lies in its one cover
            groups[None] = [j for j in range(len(rows)) if j not in support]
        if codims[f] + 1 >= ell:
            residues = None  # covers of codim ell or more reduce nothing
        step = [f] * len(rows)
        for residue, members in groups.items():
            cover = tuple(sorted(support + tuple(members)))
            if cover not in index_of:
                index_of[cover] = len(supports)
                supports.append(cover)
                codims.append(codims[f] + 1)
                found_from.append((residues, (residue,)))
            for j in members:
                step[j] = index_of[cover]
        join.append(tuple(step))

    masks = [support_mask(s) for s in supports]
    mobius, dense = [1], [None]
    start = 0  # the first flat of the level being scanned
    for i in range(1, len(supports)):
        if codims[i] > codims[i - 1]:
            start = i
        # flats of one codim never nest, so only lower levels lie below a flat
        below = [k for k in range(start) if masks[k] & masks[i] == masks[k]]
        mu = -sum(mobius[k] for k in below)
        mobius.append(mu)
        dense.append(mu * codims[i] + sum(mobius[k] * codims[k] for k in below) != 0)
    return ClosureLattice(
        flats=tuple(map(Flat, supports, codims, mobius, dense)),
        join=tuple(join),
    )


@derived
def intersection_lattice(a: Arrangement) -> IntersectionLattice:
    """All nonempty intersections with Mobius values and dense flags.

    These are the closure flats off the hyperplane at infinity: an affine
    intersection is empty exactly when its projective closure lies at
    infinity.  Their Mobius values and flags are those of the closure, since
    every flat below an affine flat is affine.
    """
    return _by_codim(f for f in closure_lattice(a).flats if a.n not in f.support)


@derived
def poincare_polynomial(a: Arrangement) -> IntPoly:
    """P(A,t) = sum over flats of mu(Y) (-t)^codim(Y); coefficients are Betti numbers."""
    lattice = intersection_lattice(a)
    coeffs = [0] * (lattice.rank + 1)
    for flat in lattice.flats():
        coeffs[flat.codim] += flat.mobius * (-1) ** flat.codim
    return IntPoly(tuple(coeffs))


def betti_numbers(a: Arrangement) -> tuple[int, ...]:
    p = poincare_polynomial(a)
    return tuple(p.coefficient(q) for q in range(a.ell + 1))


def euler_characteristic(a: Arrangement) -> int:
    return poincare_polynomial(a).evaluate(-1)


def beta(a: Arrangement) -> int:
    """beta(A) = |P(A,-1)| = |chi(M(A))|."""
    return abs(euler_characteristic(a))


# ---------------------------------------------------------------------------
# Dense edges of the projective closure.
# ---------------------------------------------------------------------------

@derived
def dense_edges(a: Arrangement) -> IntersectionLattice:
    """Lattice of the projective closure with dense flags.

    These are the closure flats up to codim ell; the flat of codim ell+1 is
    the center of the cone, which is projectively empty.  A flat Y is dense
    when the decone of the central subarrangement A_Y has beta > 0 (flagged
    by closure_lattice); closure index n is the hyperplane at infinity.
    """
    return _by_codim(f for f in closure_lattice(a).flats if f.codim <= a.ell)
