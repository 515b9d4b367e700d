"""Exact arithmetic in Q and in the cyclotomic fields Q(zeta_d).

Numbers in Q(zeta_d) are stored on the power basis {1, z, ..., z^(phi(d)-1)},
where z is a primitive d-th root of unity; every value is kept reduced modulo
the d-th cyclotomic polynomial, so two values are equal iff their coefficient
tuples are equal.  The ring of integers Z[zeta_d] uses the same basis with
plain int tuples, for fraction-free elimination.  Rationals are stdlib
``fractions.Fraction`` (always reduced, positive denominator).  The module
also provides integer polynomials, the cyclotomic polynomials themselves and
products of them written through the sparse factors t^d - 1, the number
theory those rest on (bounded trial-division factorisation, divisors with
their Euler phi, Mobius), and exact Gaussian elimination over Q(zeta_d).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

Rational = Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse a canonical rational string "p" or "p/q" (q > 0)."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"malformed rational {text!r}")
    return Fraction(text)


def format_rational(x: Fraction) -> str:
    """Canonical rational string: "p" when the denominator is 1, else "p/q"."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


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
    factorisation of m: phi is multiplicative, and phi(p^i) = p^i - p^(i-1)."""
    pairs = [(1, 1)]
    for p, e in factorize(m):
        powers = [(1, 1)] + [(p**i, p**i - p ** (i - 1)) for i in range(1, e + 1)]
        pairs = [(k * q, f * g) for k, f in pairs for q, g in powers]
    return dict(sorted(pairs))


def divisors(m: int) -> list[int]:
    """The divisors of m >= 1 in ascending order, built from its factorisation."""
    return list(divisor_phis(m))


def mobius(k: int) -> int:
    """Number-theoretic Mobius function: 0 unless k is squarefree, else (-1)^(#primes)."""
    factors = factorize(k)
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


# ---------------------------------------------------------------------------
# Integer polynomials, coefficients low degree first.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntPoly:
    """Polynomial with integer coefficients, low degree first.

    The zero polynomial has an empty coefficient tuple; otherwise the leading
    coefficient is nonzero.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = tuple(int(v) for v in self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

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
        """The nonzero (exponent, coefficient) pairs, so that multiplying by or
        dividing by a sparse polynomial such as t^d - 1 costs O(degree)."""
        return [(j, b) for j, b in enumerate(self.coeffs) if b]

    def pow(self, e: int) -> "IntPoly":
        result = IntPoly((1,))
        for _ in range(e):
            result = result * self
        return result

    def divexact(self, divisor: "IntPoly") -> "IntPoly":
        """Exact division; raises if the remainder is nonzero."""
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        lead = divisor.coeffs[-1]
        dd = divisor.degree
        q = [0] * max(len(rem) - dd, 0)
        terms = divisor._terms()
        for i in range(len(rem) - 1, dd - 1, -1):
            if rem[i] == 0:
                continue
            if rem[i] % lead != 0:
                raise ValueError("inexact polynomial division")
            c = rem[i] // lead
            q[i - dd] = c
            for j, b in terms:
                rem[i - dd + j] -= c * b
        if any(rem):
            raise ValueError("inexact polynomial division")
        return IntPoly(tuple(q))

    def evaluate(self, x):
        acc = 0
        for a in reversed(self.coeffs):
            acc = acc * x + a
        return acc

    def __str__(self):
        return format_poly(self, "t")


def format_poly(p: IntPoly, var: str = "t") -> str:
    if p.is_zero:
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        a = p.coefficient(i)
        if a == 0:
            continue
        if i == 0:
            term = str(abs(a))
        else:
            mag = "" if abs(a) == 1 else f"{abs(a)}*"
            term = f"{mag}{var}" + (f"^{i}" if i > 1 else "")
        if not parts:
            parts.append(("-" if a < 0 else "") + term)
        else:
            parts.append(("- " if a < 0 else "+ ") + term)
    return " ".join(parts)


def tk_exponents(exponents) -> dict[int, int]:
    """Rewrite prod Phi_k^(e_k) as prod (t^d - 1)^(f_d).

    exponents maps k -> e_k.  Since t^d - 1 = prod over k | d of Phi_k, Mobius
    inversion gives f_d = sum over k with d | k of mu(k/d) * e_k.  The
    representation is unique; only nonzero f_d are returned, and some may be
    negative.
    """
    f: dict[int, int] = {}
    for k, e in exponents.items():
        if e:
            for d in divisors(k):
                f[d] = f.get(d, 0) + mobius(k // d) * e
    return {d: v for d, v in f.items() if v}


def tk_product(factors) -> IntPoly:
    """Expand prod (t^d - 1)^(f_d) for a map d -> f_d with integer f_d.

    The factors with f_d > 0 are multiplied in first and those with f_d < 0
    are divided out after, exactly; each step touches the two terms of
    t^d - 1 only, so the cost is O(degree * sum |f_d|).
    """
    result = IntPoly((1,))
    for d, f in sorted(factors.items()):
        for _ in range(f):
            result = result * _tk_minus_one(d)
    for d, f in sorted(factors.items()):
        for _ in range(-f):
            result = result.divexact(_tk_minus_one(d))
    return result


def _tk_minus_one(d: int) -> IntPoly:
    return IntPoly((-1,) + (0,) * (d - 1) + (1,))


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

def _phi_coeffs(d: int) -> tuple[int, ...]:
    return cyclotomic_polynomial(d).coeffs


def _reduce_mod_phi(coeffs: list, d: int, zero=Fraction(0)) -> tuple:
    """Remainder of sum(coeffs[i] * z^i) modulo Phi_d, padded with zero to
    length phi(d).

    Phi_d is monic, so no division is needed and the coefficients stay in
    their ring: Fractions for Q(zeta_d), ints for Z[zeta_d].
    """
    phi = _phi_coeffs(d)
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


@dataclass(frozen=True)
class CycNum:
    """Element of Q(zeta_d) with canonical coefficients of length phi(d)."""

    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("cyclotomic order must be >= 1")
        expected = euler_phi(self.order)
        if len(self.coeffs) != expected:
            raise ValueError(
                f"expected {expected} coefficients for order {self.order}, got {len(self.coeffs)}"
            )
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _canonical(order: int, coeffs: tuple[Fraction, ...]) -> "CycNum":
        """A CycNum from coefficients that are canonical by construction
        (Fractions, reduced modulo Phi_order, length phi(order)), without the
        checks of the public constructor.  Arithmetic results are built so."""
        num = object.__new__(CycNum)
        object.__setattr__(num, "order", order)
        object.__setattr__(num, "coeffs", coeffs)
        return num

    @staticmethod
    def zero(d: int) -> "CycNum":
        return CycNum(d, (Fraction(0),) * euler_phi(d))

    @staticmethod
    def one(d: int) -> "CycNum":
        return cyc_reduce([Fraction(1)], d)

    @staticmethod
    def from_rational(x, d: int = 1) -> "CycNum":
        return cyc_reduce([Fraction(x)], d)

    @staticmethod
    def zeta(d: int) -> "CycNum":
        return cyc_reduce([Fraction(0), Fraction(1)], d)

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
        if self.is_zero:
            raise ZeroDivisionError("division by zero in Q(zeta)")
        phi = [Fraction(c) for c in _phi_coeffs(self.order)]
        g, s = _poly_half_xgcd(list(self.coeffs), phi)
        # Phi_d is irreducible over Q, so the gcd is a nonzero constant.
        inv = [c / g for c in s]
        return CycNum._canonical(self.order, _reduce_mod_phi(inv, self.order))

    def __truediv__(self, other: "CycNum") -> "CycNum":
        self._check_order(other)
        return self * other.inverse()

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(format_rational(c))
            else:
                z = "z" if i == 1 else f"z^{i}"
                if c == 1:
                    parts.append(z)
                elif c == -1:
                    parts.append(f"-{z}")
                else:
                    parts.append(f"{format_rational(c)}*{z}")
        return " + ".join(parts).replace("+ -", "- ")


def _trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _polydivmod(p: list[Fraction], q: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    rem = _trim(list(p))
    dq = len(q) - 1
    lead = q[-1]
    quot = [Fraction(0)] * max(len(rem) - dq, 0)
    while rem and len(rem) - 1 >= dq:
        c = rem[-1] / lead
        k = len(rem) - 1 - dq
        quot[k] += c
        for j in range(dq + 1):
            rem[k + j] -= c * q[j]
        rem = _trim(rem)
    return quot, rem


def _poly_half_xgcd(a: list[Fraction], b: list[Fraction]) -> tuple[Fraction, list[Fraction]]:
    """Return (g, s) with s*a == g (mod b) and g the constant gcd of a and b.

    Here b is irreducible over Q and a is nonzero of smaller degree, so the
    Euclidean algorithm terminates with a nonzero constant g.
    """
    r0, s0 = _trim(list(b)), [Fraction(0)]
    r1, s1 = _trim(list(a)), [Fraction(1)]
    if not r1:
        raise ZeroDivisionError("inverse of zero")
    while len(r1) > 1:
        q, r2 = _polydivmod(r0, r1)
        qs1 = [Fraction(0)] * (len(q) + len(s1) - 1 if q and s1 else 0)
        for i, qc in enumerate(q):
            if qc:
                for j, sc in enumerate(s1):
                    qs1[i + j] += qc * sc
        n = max(len(s0), len(qs1))
        s2 = [(s0[i] if i < len(s0) else Fraction(0)) - (qs1[i] if i < len(qs1) else Fraction(0))
              for i in range(n)]
        r0, s0, r1, s1 = r1, s1, r2, _trim(s2)
        if not r1:
            raise ArithmeticError("gcd degenerated; modulus not irreducible?")
    return r1[0], s1


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
    is the norm N(a), a rational integer."""
    adj = (1,) + (0,) * (len(a) - 1)
    for j in range(2, d):
        if gcd(j, d) == 1:
            adj = zmul(adj, zconj(a, j, d), d)
    return adj


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
