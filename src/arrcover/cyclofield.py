"""Exact arithmetic in Q and in the cyclotomic fields Q(zeta_d).

Numbers in Q(zeta_d) are stored on the power basis {1, z, ..., z^(phi(d)-1)},
where z is a primitive d-th root of unity; every value is kept reduced modulo
the d-th cyclotomic polynomial, so two values are equal iff their coefficient
tuples are equal.  The ring of integers Z[zeta_d] uses the same basis with
plain int tuples, for fraction-free elimination; the field inverts through
it, as the adjugate over the norm, with no polynomial gcd.  Rationals are
stdlib ``fractions.Fraction`` (always reduced, positive denominator); their
string syntax in arrangement files belongs to fileformat.  The
module also provides integer polynomials, the cyclotomic polynomials
themselves and products of them written through the sparse factors
t^d - 1, the number theory those rest on (bounded trial-division
factorisation, divisors with their Euler phi), and exact Gaussian
elimination over Q(zeta_d).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, gcd, lcm
from operator import add, neg

from .record import record

TRIAL_LIMIT = 10**6
# Miller-Rabin with the prime bases 2..41 is deterministic below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017).
PRIME_TEST_LIMIT = 3317044064679887385961981


def _is_prime_below_limit(m: int) -> bool:
    """Miller-Rabin with bases 2..41; exact for odd 41 < m < PRIME_TEST_LIMIT."""
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(b, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def factorize(m: int) -> tuple[tuple[int, int], ...]:
    """Prime factorisation of m >= 1 by trial division: ((p, e), ...), p ascending.

    Trial division stops once p^2 exceeds the unfactored cofactor, or at
    p = TRIAL_LIMIT = 10^6, so it never takes more than 10^6 steps.  A cofactor
    left at the limit has no prime factor up to 10^6, so it exceeds 10^12; it
    is accepted as prime only when it lies below PRIME_TEST_LIMIT (about
    3.3e24) and passes Miller-Rabin with bases 2..41, which is deterministic
    there.  Any other cofactor raises ValueError.
    """
    if m < 1:
        raise ValueError("factorize requires m >= 1")
    original = m
    factors = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        elif p == TRIAL_LIMIT:
            # no prime factor up to TRIAL_LIMIT is left, so m > TRIAL_LIMIT^2
            if not (m < PRIME_TEST_LIMIT and _is_prime_below_limit(m)):
                raise ValueError(
                    f"cannot factor {original}: its cofactor {m} has no prime factor "
                    f"up to {TRIAL_LIMIT} and is not a prime below {PRIME_TEST_LIMIT}"
                )
            break
        p += 1
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


def euler_phi(k: int) -> int:
    """Euler phi: the count of 1 <= j <= k with gcd(j, k) = 1."""
    if k < 1:
        raise ValueError("euler_phi requires k >= 1")
    result = k
    for p, _ in factorize(k):
        result -= result // p
    return result


def divisor_phis(m: int) -> dict[int, int]:
    """{k: phi(k)} for the divisors k of m >= 1, ascending, built from the one
    factorisation of m prime by prime, as a list of divisors and a list of
    their phi: phi is multiplicative, and phi(p^i) = p^i - p^(i-1)."""
    ks, phis = [1], [1]
    for p, e in factorize(m):
        powers = [p**i for i in range(1, e + 1)]
        ks += [k * q for q in powers for k in ks]
        phis += [f * (q - q // p) for q in powers for f in phis]
    phi = dict(zip(ks, phis))
    return {k: phi[k] for k in sorted(ks)}


# ---------------------------------------------------------------------------
# Integer polynomials, coefficients low degree first.
# ---------------------------------------------------------------------------

@record
class IntPoly:
    """Polynomial with integer coefficients, low degree first.

    The zero polynomial has an empty coefficient tuple; otherwise the leading
    coefficient is nonzero.
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs):
        c = tuple(map(int, coeffs))
        while c and c[-1] == 0:
            c = c[:-1]
        self.__dict__["coeffs"] = c

    @classmethod
    def _trimmed(cls, coeffs: list[int]) -> "IntPoly":
        """The IntPoly of a list of ints that is empty or ends in a nonzero
        entry, without __init__'s per-coefficient pass."""
        poly = object.__new__(cls)
        poly.__dict__["coeffs"] = tuple(coeffs)
        return poly

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(tuple(self.coefficient(i) + other.coefficient(i) for i in range(n)))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(tuple(self.coefficient(i) - other.coefficient(i) for i in range(n)))

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if self.is_zero or other.is_zero:
            return IntPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        terms = other._terms()
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in terms:
                    out[i + j] += a * b
        return IntPoly(tuple(out))

    def _terms(self) -> list[tuple[int, int]]:
        """The nonzero (exponent, coefficient) pairs, so that multiplying by a
        sparse polynomial such as t^d - 1 costs O(degree)."""
        return [(j, b) for j, b in enumerate(self.coeffs) if b]

    def pow(self, e: int) -> "IntPoly":
        if e < 0:
            raise ValueError(f"exponent {e} is negative")
        result = IntPoly((1,))
        for _ in range(e):
            result = result * self
        return result

    def evaluate(self, x):
        acc = 0
        for a in reversed(self.coeffs):
            acc = acc * x + a
        return acc


def format_poly(p: IntPoly) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for i, a in reversed(p._terms()):
        if i == 0:
            term = str(abs(a))
        else:
            mag = "" if abs(a) == 1 else f"{abs(a)}*"
            term = f"{mag}t" + (f"^{i}" if i > 1 else "")
        if not parts:
            parts.append(("-" if a < 0 else "") + term)
        else:
            parts.append(("- " if a < 0 else "+ ") + term)
    return " ".join(parts)


def tk_exponents(exponents, primes=None) -> dict[int, int]:
    """Rewrite prod Phi_k^(e_k) as prod (t^d - 1)^(f_d).

    exponents maps k -> e_k.  Since t^d - 1 = prod over k | d of Phi_k, Mobius
    inversion gives f_d = sum over k with d | k of mu(k/d) * e_k.  mu(j) is
    zero unless j is squarefree, so the sum runs over the sets S of primes of
    k / d, with sign (-1)^|S|: it is the product over the primes p of
    (f_d -> f_d - f_(dp)), one pass per prime, and no key or quotient is
    factorised.  A pass visits its keys in ascending order, so each f_(dp)
    is read before the pass changes it.  primes lists the primes that divide
    the keys (extra primes are harmless); by default they come from
    factorising the lcm of the keys with e_k != 0.  The representation is
    unique; only nonzero f_d are returned, d ascending, and some may be
    negative.
    """
    f = {k: e for k, e in exponents.items() if e}
    if primes is None:
        primes = [p for p, _ in factorize(lcm(*f))]
    for p in primes:
        for k in sorted(k for k in f if k % p == 0):
            f[k // p] = f.get(k // p, 0) - f[k]
    return {d: v for d, v in sorted(f.items()) if v}


def tk_product(factors) -> IntPoly:
    """Expand prod (t^d - 1)^(f_d) for a map d -> f_d with integer f_d.

    The work is done on one coefficient list c, low degree first, and the
    IntPoly is built once at the end.  The factors with f_d > 0 are
    multiplied in first, d ascending, each as one binomial block:
    (t^d - 1)^f = sum over j of C(f, j) (-1)^(f - j) t^(dj), so the product
    is a zero list of its final length plus f + 1 scaled copies of c at the
    offsets d * j, (f + 1) * len(c) coefficient updates however large d is.
    Those with f_d < 0 are divided out after: c = g * (t^d - 1) means
    g_i = g_(i-d) - c_i, so g is minus the running sums of c along each
    residue class mod d, one accumulate per class.  The division is exact
    iff every class sums to zero, which also rejects a nonzero c of degree
    below d.  The list holds ints and ends in the leading coefficient 1, so
    it becomes the IntPoly as it is.
    """
    c = [1]
    for d, f in sorted(factors.items()):
        if f > 0:
            n = len(c)
            out = [0] * (n + d * f)
            for j in range(f + 1):
                o, scale = d * j, (-1) ** (f - j) * comb(f, j)
                out[o:o + n] = map(add, out[o:o + n], map(scale.__mul__, c))
            c = out
    for d, f in sorted(factors.items()):
        for _ in range(-f):
            g = [0] * max(len(c) - d, 0)
            for r in range(min(d, len(c))):
                sums = list(accumulate(map(neg, c[r::d])))
                if sums[-1]:
                    raise ValueError("inexact polynomial division")
                g[r::d] = sums[:-1]
            c = g
    return IntPoly._trimmed(c)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(k: int) -> IntPoly:
    """The k-th cyclotomic polynomial Phi_k, monic of degree phi(k).

    Computed as the Mobius product prod over d | k of (t^d - 1)^(mu(k/d)).
    Cached, because cyclotomic number reduction asks for Phi_d on every
    operation.
    """
    if k < 1:
        raise ValueError("cyclotomic_polynomial requires k >= 1")
    return tk_product(tk_exponents({k: 1}))


# ---------------------------------------------------------------------------
# Cyclotomic numbers.
# ---------------------------------------------------------------------------

def _reduce_mod_phi(coeffs: list, d: int, zero=Fraction(0)) -> tuple:
    """Remainder of sum(coeffs[i] * z^i) modulo Phi_d, padded with zero to
    length phi(d).

    Phi_d is monic, so no division is needed and the coefficients stay in
    their ring: Fractions for Q(zeta_d), ints for Z[zeta_d].
    """
    phi = cyclotomic_polynomial(d).coeffs
    deg = len(phi) - 1
    rem = list(coeffs)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            for j in range(deg + 1):
                rem[i - deg + j] -= c * phi[j]
        rem.pop()
    rem.extend([zero] * (deg - len(rem)))
    return tuple(rem)


def _mul_mod_phi(a, b, d: int, zero) -> tuple:
    """Product of two power-basis tuples of length phi(d), reduced modulo Phi_d."""
    out = [zero] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _reduce_mod_phi(out, d, zero)


@record
class CycNum:
    """Element of Q(zeta_d) with canonical coefficients of length phi(d)."""

    order: int
    coeffs: tuple[Fraction, ...]

    def __init__(self, order, coeffs):
        if order < 1:
            raise ValueError("cyclotomic order must be >= 1")
        expected = euler_phi(order)
        if len(coeffs) != expected:
            raise ValueError(
                f"expected {expected} coefficients for order {order}, got {len(coeffs)}"
            )
        self.__dict__.update(order=order, coeffs=tuple(Fraction(c) for c in coeffs))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _canonical(order: int, coeffs: tuple[Fraction, ...]) -> "CycNum":
        """A CycNum from coefficients that are canonical by construction
        (Fractions, reduced modulo Phi_order, length phi(order)), without the
        checks of the public constructor.  Arithmetic results are built so."""
        num = object.__new__(CycNum)
        num.__dict__.update(order=order, coeffs=coeffs)
        return num

    @staticmethod
    def zero(d: int) -> "CycNum":
        return CycNum(d, (Fraction(0),) * euler_phi(d))

    @staticmethod
    def one(d: int) -> "CycNum":
        return cyc_reduce([Fraction(1)], d)

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def _check_order(self, other: "CycNum"):
        if self.order != other.order:
            raise ValueError(f"mismatched cyclotomic orders {self.order} and {other.order}")

    def __add__(self, other: "CycNum") -> "CycNum":
        self._check_order(other)
        return CycNum._canonical(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "CycNum") -> "CycNum":
        self._check_order(other)
        return CycNum._canonical(
            self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "CycNum":
        return CycNum._canonical(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "CycNum") -> "CycNum":
        self._check_order(other)
        return CycNum._canonical(
            self.order, _mul_mod_phi(self.coeffs, other.coeffs, self.order, Fraction(0))
        )

    def inverse(self) -> "CycNum":
        """scale * adj(x) / N(x), where x = scale * self lies in Z[zeta_d]
        and N(x) = x * adj(x), its norm, is a nonzero rational integer."""
        if self.is_zero:
            raise ZeroDivisionError("division by zero in Q(zeta)")
        d = self.order
        scale = lcm(*(c.denominator for c in self.coeffs))
        x = tuple(c.numerator * (scale // c.denominator) for c in self.coeffs)
        adj = zadjugate(x, d)
        norm = zmul(x, adj, d)[0]
        return CycNum._canonical(d, tuple(Fraction(scale * a, norm) for a in adj))


def cyc_reduce(raw, d: int) -> CycNum:
    """Canonical representative of sum(raw[i] * zeta_d^i) in Q(zeta_d)."""
    if d < 1:
        raise ValueError("cyclotomic order must be >= 1")
    coeffs = [Fraction(c) for c in raw]
    return CycNum(d, _reduce_mod_phi(coeffs, d))


# ---------------------------------------------------------------------------
# The ring of integers Z[zeta_d]: power-basis tuples of ints, length phi(d).
# ---------------------------------------------------------------------------

def zmul(a: tuple[int, ...], b: tuple[int, ...], d: int) -> tuple[int, ...]:
    """Product in Z[zeta_d]; a rational integer a only scales b."""
    if not any(a[1:]):
        return tuple(a[0] * y for y in b)
    return _mul_mod_phi(a, b, d, 0)


def zconj(a: tuple[int, ...], j: int, d: int) -> tuple[int, ...]:
    """The Galois conjugate sigma_j(a), zeta_d -> zeta_d^j, for j coprime to d."""
    out = [0] * d
    for i, x in enumerate(a):
        out[i * j % d] += x
    return _reduce_mod_phi(out, d, 0)


def zadjugate(a: tuple[int, ...], d: int) -> tuple[int, ...]:
    """prod sigma_j(a) over the units j != 1 mod d, so that a * zadjugate(a, d)
    is the norm N(a), a rational integer.

    Along the chain of _unit_chain(d), H_i is the union of the cosets
    g^t H_{i-1}, t < o.  So the norm x_i of a over H_i is the product of
    sigma_{g^t}(x_{i-1}) over t < o, and the adjugate is the product over
    the chain of the factors for 0 < t < o, each found by doubling with
    O(log o) products instead of o - 1.
    """
    adj = x = factor = None
    for g, index in _unit_chain(d):
        x = a if x is None else zmul(x, factor, d)
        factor = _conjugates_after_one(x, g, index - 1, d)
        adj = factor if adj is None else zmul(adj, factor, d)
    return (1,) if adj is None else adj  # phi(d) = 1: no other conjugate


@lru_cache(maxsize=None)
def _unit_chain(d: int) -> tuple[tuple[int, int], ...]:
    """(g, o) for each step of a chain {1} = H_0 < H_1 < ... = (Z/d)^x:
    g is the least unit outside H_{i-1}, and H_i, generated by H_{i-1} and
    g, is the union of the o distinct cosets g^t H_{i-1}, t < o."""
    chain = []
    group = {1}
    for g in range(2, d):
        if g in group or gcd(g, d) != 1:
            continue
        cosets = [group]
        while (coset := {h * g % d for h in cosets[-1]}) != group:
            cosets.append(coset)
        chain.append((g, len(cosets)))
        group = set().union(*cosets)
    return tuple(chain)


def _conjugates_after_one(x: tuple[int, ...], g: int, n: int, d: int) -> tuple[int, ...]:
    """prod sigma_{g^t}(x) for t = 1..n, as sigma_g(P_n) with
    P_m = prod_{t < m} sigma_{g^t}(x) doubled along the bits of n:
    P_2m = P_m * sigma_{g^m}(P_m) and P_m+1 = P_m * sigma_{g^m}(x)."""
    p, m = x, 1
    for bit in bin(n)[3:]:
        p = zmul(p, zconj(p, pow(g, m, d), d), d)
        m *= 2
        if bit == "1":
            p = zmul(p, zconj(x, pow(g, m, d), d), d)
            m += 1
    return zconj(p, g, d)


# ---------------------------------------------------------------------------
# Exact linear algebra over Q(zeta_d).
# ---------------------------------------------------------------------------

def reduced_row_echelon(rows) -> tuple[tuple[tuple[CycNum, ...], ...], tuple[int, ...]]:
    """Canonical reduced row echelon form over Q(zeta_d).

    Returns (nonzero rows, pivot columns).  Two row sets span the same row
    space iff their reduced echelon forms are identical; the rank is the
    number of rows.
    All entries must share one cyclotomic order and rows must have equal
    length.
    """
    if not rows:
        return (), ()
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("ragged matrix")
    orders = {entry.order for row in rows for entry in row}
    if len(orders) > 1:
        raise ValueError(f"mixed cyclotomic orders in matrix: {sorted(orders)}")
    work = [list(r) for r in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(work)) if not work[r][col].is_zero), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = work[rank][col].inverse()
        work[rank] = [inv * v for v in work[rank]]
        for r in range(len(work)):
            if r != rank and not work[r][col].is_zero:
                factor = work[r][col]
                work[r] = [v - factor * w for v, w in zip(work[r], work[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return tuple(tuple(row) for row in work[:rank]), tuple(pivots)
