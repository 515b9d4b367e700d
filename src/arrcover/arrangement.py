"""Affine hyperplane arrangements over Q(zeta_d) and their intersection lattices.

An arrangement is an ordered list of affine hyperplanes c0 + sum(c_i x_i) = 0
with coefficients in one cyclotomic field.  This module provides validated
construction, the cone/decone pair, the intersection lattice with its Mobius
function, the Poincare polynomial, the beta invariant, and dense-edge flags on
the projective closure.

All exact linear algebra happens in one pass, the lattice of the projective
closure (the affine rows plus the hyperplane at infinity).  Its flats are
keyed by their supports, so the flat set does not depend on hyperplane
order; the pass finds each flat's covers with one reduction of every row
modulo that flat and records the join table flat -> flat cap H_j.  That
pass works in integer arithmetic over Z[zeta_d]: each row is scaled by the
lcm of its denominators, reduced fraction-free, and keyed by the primitive
integer point on its residue's line, reached through the norm of the leading
entry.  The affine flats are the closure flats off the hyperplane at
infinity, and the dense edges are the closure flats below the center of the
cone, flagged by Crapo's beta invariant of their localizations.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd, lcm

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
    """Ordered, duplicate-free arrangement of n hyperplanes in C^ambient_dim.

    The hash is computed once and kept on the instance outside the fields, so
    equality and repr are the field-wise ones of every record; it equals the
    hash of the field tuple.  Every cache keyed on an arrangement would
    otherwise rehash all of its Fraction coefficients on each lookup.
    """

    ambient_dim: int
    cyc_order: int
    hyperplanes: tuple[Hyperplane, ...]
    is_central: bool

    def __init__(self, ambient_dim, cyc_order, hyperplanes, is_central):
        self.__dict__.update(ambient_dim=ambient_dim, cyc_order=cyc_order,
                             hyperplanes=hyperplanes, is_central=is_central)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.ambient_dim, self.cyc_order, self.hyperplanes, self.is_central))

    @property
    def n(self) -> int:
        return len(self.hyperplanes)

    @property
    def ell(self) -> int:
        return self.ambient_dim


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
    identifies the flat; multiplicity is len(support).
    """

    support: tuple[int, ...]
    codim: int
    mobius: int
    dense: bool | None

    def __init__(self, support, codim, mobius, dense):
        self.__dict__.update(support=support, codim=codim, mobius=mobius, dense=dense)

    @property
    def multiplicity(self) -> int:
        return len(self.support)


@record
class IntersectionLattice:
    """Flats grouped by codimension 0..rank."""

    levels: tuple[tuple[Flat, ...], ...]
    rank: int

    def __init__(self, levels, rank):
        self.__dict__.update(levels=levels, rank=rank)

    def flats(self):
        for level in self.levels:
            yield from level

    def of_codim(self, c: int) -> tuple[Flat, ...]:
        return self.levels[c] if 0 <= c < len(self.levels) else ()


@record
class ClosureLattice:
    """Flats of the projective closure with their join table.

    flats lists every closure flat in level order, codim 0 first; support
    index n is the hyperplane at infinity.  join[f][j] is the index of the
    flat flats[f] cap H_j, the closure of support(f) + {j}.
    """

    flats: tuple[Flat, ...]
    join: tuple[tuple[int, ...], ...]

    def __init__(self, flats, join):
        self.__dict__.update(flats=flats, join=join)

    @cached_property
    def automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """Generators of a group of lattice automorphisms, as permutations of
        the affine indices: perm[i] is the image of hyperplane i.

        A permutation qualifies when it maps every affine flat support (a
        closure flat off the hyperplane at infinity) onto an affine flat
        support, so it preserves the affine intersection poset, codims and
        emptiness included.  The set is a stabiliser chain found from the
        deepest level up: at level i, for each c > i whose mask 1 << c is not
        in the orbit of 1 << i under the generators found so far (which all
        fix 0..i-1), one backtracking search looks for the first permutation
        fixing 0..i-1 with i -> c.  The search prunes a partial map on the
        codim-2 flat of each pair of assigned hyperplanes and on the (codim,
        size) profile of the affine flats through each one, and keeps a full
        permutation only if it passes the support check.  There are at most
        n(n-1)/2 generators, and the group itself is never enumerated.  A
        search that exceeds AUTOMORPHISM_NODE_BUDGET nodes gives up, which can
        only leave a subgroup.
        """
        n = len(self.join[0]) - 1
        affine = [support_mask(f.support) for f in self.flats if n not in f.support]
        affine_set = set(affine)
        # line[i][j]: the closure support of H_i cap H_j; bit n is set when
        # the two are parallel
        line = [[support_mask(self.flats[self.join[self.join[0][i]][j]].support)
                 for j in range(n)] for i in range(n)]
        profile = [sorted((f.codim, len(f.support)) for f in self.flats
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
                    return all(support_image(s, image) in affine_set for s in affine)
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

        generators: list[tuple[int, ...]] = []
        for i in reversed(range(n)):
            reached = orbit(1 << i, generators)
            for c in range(i + 1, n):
                if 1 << c not in reached:
                    perm = first_leaf(i, c)
                    if perm is not None:
                        generators.append(perm)
                        reached = orbit(1 << i, generators)
        return tuple(generators)


# Nodes one backtracking search of ClosureLattice.automorphisms may visit.
AUTOMORPHISM_NODE_BUDGET = 4096


def support_mask(indices) -> int:
    return sum(1 << i for i in indices)


def support_image(mask: int, perm) -> int:
    """The bitmask of {perm[i] : bit i of mask is set}."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def orbit(mask: int, generators) -> set[int]:
    """Orbit of a support bitmask under the group the generators make, each
    generator acting by support_image."""
    found = {mask}
    frontier = [mask]
    while frontier:
        x = frontier.pop()
        for perm in generators:
            y = support_image(x, perm)
            if y not in found:
                found.add(y)
                frontier.append(y)
    return found


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


@lru_cache(maxsize=None)
def closure_lattice(a: Arrangement) -> ClosureLattice:
    """The one exact geometry pass: the lattice of the projective closure.

    The closure is the central arrangement of the affine rows
    (coeffs | -constant) plus the row (0, ..., 0 | 1) of the hyperplane at
    infinity, index n, each scaled by the lcm of its denominators so that its
    entries lie in Z[zeta_d].  A flat is keyed by its support.  The lattice
    is built level by level: each row outside a flat's support is reduced
    modulo the flat's equations, and rows j, k give the same cover
    flat cap H_j exactly when their residues are proportional over
    Q(zeta_d).  The reduction is fraction-free (Bareiss, Math. Comp. 22,
    1968), and each residue is keyed by the primitive integer point on its
    line, reached through the norm of its leading entry (see _residue).  So
    the rows grouped by key are the covers of the flat, each with support
    support(flat) plus its group, and the groups fill the flat's row of the
    join table.
    Mobius values follow the recursion mu(Y) = -sum(mu(Z)) over flats Z with
    support(Z) strictly inside support(Y).
    """
    d = a.cyc_order
    rows = [_integer_row(h.affine_row()) for h in a.hyperplanes]
    rows.append(_integer_row((CycNum.zero(d),) * a.ambient_dim + (CycNum.one(d),)))
    supports: list[tuple[int, ...]] = [()]
    codims = [0]
    index_of = {(): 0}
    # bases[f]: flat f's equations as (leading column, key) pairs, each key
    # with a positive rational integer leading entry and zero in the leading
    # columns of the rows before it; dropped once the covers of f are found
    bases: list = [()]
    join: list[tuple[int, ...]] = []
    # supports grows while it is scanned, one level after the other
    for f, support in enumerate(supports):
        basis, bases[f] = bases[f], None
        groups: dict[tuple, list[int]] = {}
        for j, row in enumerate(rows):
            if j not in support:
                groups.setdefault(_residue(row, basis, d), []).append(j)
        step = [f] * len(rows)
        for residue, members in groups.items():
            cover = tuple(sorted(support + tuple(members)))
            if cover not in index_of:
                index_of[cover] = len(supports)
                supports.append(cover)
                codims.append(codims[f] + 1)
                bases.append(basis + (residue,))
            for j in members:
                step[j] = index_of[cover]
        join.append(tuple(step))

    masks = [support_mask(s) for s in supports]
    mobius = [1]
    for i in range(1, len(supports)):
        mobius.append(-sum(mobius[k] for k in range(i) if masks[k] & masks[i] == masks[k]))
    return ClosureLattice(
        flats=tuple(Flat(s, c, mu, None) for s, c, mu in zip(supports, codims, mobius)),
        join=tuple(join),
    )


@lru_cache(maxsize=None)
def intersection_lattice(a: Arrangement) -> IntersectionLattice:
    """All nonempty intersections with Mobius values.

    These are the closure flats off the hyperplane at infinity: an affine
    intersection is empty exactly when its projective closure lies at
    infinity.  Their Mobius values are those of the closure, since every
    flat below an affine flat is affine.
    """
    return _by_codim(f for f in closure_lattice(a).flats if a.n not in f.support)


@lru_cache(maxsize=None)
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

@lru_cache(maxsize=None)
def dense_edges(a: Arrangement) -> IntersectionLattice:
    """Lattice of the projective closure with dense flags.

    These are the closure flats up to codim ell; the flat of codim ell+1 is
    the center of the cone, which is projectively empty.  A flat Y is dense
    when the decone of the central subarrangement A_Y has beta > 0.  Crapo's
    beta (J. Combin. Theory 2, 1967) is |sum(mu(Z) codim(Z))| over the flats
    Z <= Y, those with supports inside support(Y); hyperplane flats are
    always dense.  The last closure index is the hyperplane at infinity.
    """
    flats = closure_lattice(a).flats
    masks = [support_mask(f.support) for f in flats]

    def marked(y: int) -> Flat:
        beta_y = sum(f.mobius * f.codim for f, m in zip(flats, masks) if m & masks[y] == m)
        flat = flats[y]
        return Flat(flat.support, flat.codim, flat.mobius, beta_y != 0)

    return _by_codim(
        [flats[0]] + [marked(y) for y in range(1, len(flats)) if flats[y].codim <= a.ell]
    )
