"""Built-in catalog of the classical example arrangements.

MacLane and Hessian are stored deconed at the first hyperplane of their
defining products (the cover invariants live on the affine complements);
Selberg is affine already and Ceva(3) stays central.  The central models are
exposed too, for the cone/decone and decone-choice tests.
"""

from __future__ import annotations

from functools import lru_cache

from .arrangement import Arrangement, Hyperplane, build, decone
from .cyclofield import CycNum, cyc_reduce
from .record import record


@record
class CatalogEntry:
    key: str
    arrangement: Arrangement
    notes: str

    def __init__(self, key, arrangement, notes):
        self.__dict__.update(key=key, arrangement=arrangement, notes=notes)


def _q(d, *values):
    # one cyclotomic number from power-basis rationals
    return cyc_reduce(list(values), d)


def _hp(d, constant, *coeffs):
    return Hyperplane(_q(d, constant), tuple(_q(d, *c) for c in coeffs))


@lru_cache(maxsize=None)
def selberg() -> Arrangement:
    """x y (x-y) (x-1) (y-1) in C^2."""
    d = 1
    return build(2, d, [
        _hp(d, 0, (1,), (0,)),     # x
        _hp(d, 0, (0,), (1,)),     # y
        _hp(d, 0, (1,), (-1,)),    # x - y
        _hp(d, -1, (1,), (0,)),    # x - 1
        _hp(d, -1, (0,), (1,)),    # y - 1
    ])


@lru_cache(maxsize=None)
def maclane_central() -> Arrangement:
    """MacLane (8_3) realization: x y (y-x) z (z-x-w^2 y) (z+w y) (z-x) (z+w^2 x+w y),
    w a primitive cube root of unity."""
    d = 3
    one, zero = (1,), (0,)
    w = (0, 1)
    w2 = (-1, -1)
    neg = lambda c: tuple(-v for v in c)
    return build(3, d, [
        _hp(d, 0, one, zero, zero),        # x
        _hp(d, 0, zero, one, zero),        # y
        _hp(d, 0, (-1,), one, zero),       # y - x
        _hp(d, 0, zero, zero, one),        # z
        _hp(d, 0, (-1,), neg(w2), one),    # z - x - w^2 y
        _hp(d, 0, zero, w, one),           # z + w y
        _hp(d, 0, (-1,), zero, one),       # z - x
        _hp(d, 0, w2, w, one),             # z + w^2 x + w y
    ])


@lru_cache(maxsize=None)
def hessian_central() -> Arrangement:
    """Hessian configuration: x1 x2 x3 prod_(i,j) (x1 + w^i x2 + w^j x3)."""
    d = 3
    one, zero = (1,), (0,)
    powers = [(1,), (0, 1), (-1, -1)]  # w^0, w^1, w^2
    hps = [
        _hp(d, 0, one, zero, zero),
        _hp(d, 0, zero, one, zero),
        _hp(d, 0, zero, zero, one),
    ]
    for i in range(3):
        for j in range(3):
            hps.append(_hp(d, 0, one, powers[i], powers[j]))
    return build(3, d, hps)


@lru_cache(maxsize=None)
def ceva3() -> Arrangement:
    """Ceva(3): (x^3-y^3)(x^3-z^3)(y^3-z^3) in C^3, central."""
    d = 3
    one, zero = (1,), (0,)
    powers = [(1,), (0, 1), (-1, -1)]
    neg = lambda c: tuple(-v for v in c)
    hps = []
    for a in range(3):
        hps.append(_hp(d, 0, one, neg(powers[a]), zero))  # x - w^a y
    for a in range(3):
        hps.append(_hp(d, 0, one, zero, neg(powers[a])))  # x - w^a z
    for a in range(3):
        hps.append(_hp(d, 0, zero, one, neg(powers[a])))  # y - w^a z
    return build(3, d, hps)


# key -> (builder, notes); get builds only the entry asked for
_ENTRIES = {
    "selberg": (
        selberg,
        "Selberg arrangement x y (x-y) (x-1) (y-1); decone of the rank-3 "
        "braid arrangement, so X_6 is homeomorphic to the braid Milnor fiber",
    ),
    "maclane-decone": (
        lambda: decone(maclane_central(), 0),
        "MacLane (8_3) configuration deconed at the first hyperplane (x)",
    ),
    "hessian-decone": (
        lambda: decone(hessian_central(), 0),
        "Hessian configuration (12 planes) deconed at the first hyperplane (x1)",
    ),
    "ceva3": (
        ceva3,
        "Ceva(3) arrangement (x^3-y^3)(x^3-z^3)(y^3-z^3), kept central",
    ),
}


@lru_cache(maxsize=None)
def get(key: str) -> CatalogEntry:
    if key not in _ENTRIES:
        known = ", ".join(sorted(_ENTRIES))
        raise KeyError(f"unknown catalog entry {key!r}; known entries: {known}")
    builder, notes = _ENTRIES[key]
    return CatalogEntry(key=key, arrangement=builder(), notes=notes)


@lru_cache(maxsize=None)
def entries() -> dict[str, CatalogEntry]:
    return {key: get(key) for key in _ENTRIES}
