"""Seeded benchmark inputs, written as arrangement files.

The generators are independent of the package: they build the hyperplane
coefficients with ``fractions.Fraction`` and emit the documented JSON file
format, so the package only ever sees the generated files.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb


def _rational(x: Fraction) -> list[str]:
    # cyclotomic order 1: one canonical rational string per number
    return [str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"]


def arrangement_file(name: str, rows) -> str:
    """File text for rows (constant, coeffs...) over Q, sorted keys like the CLI."""
    dim = len(rows[0]) - 1
    data = {
        "name": name,
        "ambient_dim": dim,
        "cyclotomic_order": 1,
        "hyperplanes": [
            {"constant": _rational(r[0]), "coeffs": [_rational(c) for c in r[1:]]}
            for r in rows
        ],
    }
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def braid_decone(L: int, seed: int) -> list[tuple[Fraction, ...]]:
    """Decone of the braid arrangement A_{L-1}, hyperplane order and decone
    hyperplane drawn from the seed.

    The essential central model lives in C^{L-1} (x_L = 0): x_i - x_j for
    i < j < L and x_i.  Deconing at alpha sets alpha = 1 after a change of
    coordinates, leaving C(L,2) - 1 affine hyperplanes in C^{L-2}.
    """
    rng = random.Random(f"braid-{L}-{seed}")
    r = L - 1
    central = []
    for i, j in combinations(range(r), 2):
        v = [Fraction(0)] * r
        v[i], v[j] = Fraction(1), Fraction(-1)
        central.append(v)
    for i in range(r):
        v = [Fraction(0)] * r
        v[i] = Fraction(1)
        central.append(v)
    rng.shuffle(central)
    at = rng.randrange(len(central))
    alpha = central[at]
    p = next(i for i, v in enumerate(alpha) if v)
    rows = []
    for idx, coef in enumerate(central):
        if idx == at:
            continue
        ratio = coef[p] / alpha[p]
        linear = tuple(coef[k] - alpha[k] * ratio for k in range(r) if k != p)
        rows.append((ratio,) + linear)
    return rows


def braid_poincare(L: int) -> list[int]:
    """prod_{j=2}^{L-1} (1 + j t), the Poincare polynomial of the decone."""
    poly = [1]
    for j in range(2, L):
        poly = [a + j * b for a, b in zip(poly + [0], [0] + poly)]
    return poly


def generic_lines(n: int, seed: int) -> list[tuple[Fraction, ...]]:
    """Lines 1 + x X + x^2 Y = 0 for n distinct nonzero seeded integers x.

    They are the duals of points on a conic, so no three meet and no two are
    parallel; the cone with the line at infinity is generic too.
    """
    rng = random.Random(f"generic-{n}-{seed}")
    xs = rng.sample([v for v in range(-60, 61) if v], n)
    return [(Fraction(1), Fraction(x), Fraction(x * x)) for x in xs]


def generic_poincare(n: int) -> list[int]:
    return [1, n, comb(n, 2)]
