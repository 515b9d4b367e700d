"""Hyperplane.line_key over Q(zeta_d), on forms drawn by hypothesis."""

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from arrcover.arrangement import Hyperplane  # noqa: E402
from arrcover.cyclofield import CycNum, euler_phi  # noqa: E402

ORDERS = (1, 3, 4, 5)


def numbers(d, values):
    return st.lists(values, min_size=euler_phi(d), max_size=euler_phi(d)).map(
        lambda coeffs: CycNum(d, coeffs)
    )


def forms(d):
    """(constant, c1, c2) with small integer coefficients and a nonzero linear part."""
    entry = numbers(d, st.integers(-1, 1))
    return st.tuples(entry, entry, entry).filter(lambda f: not all(c.is_zero for c in f[1:]))


def scalars(d):
    """Nonzero lambda in Q(zeta_d) with small rational coefficients."""
    return numbers(d, st.fractions(-3, 3, max_denominator=4)).filter(lambda x: not x.is_zero)


def hyperplane(form):
    return Hyperplane(form[0], form[1:])


def scaled(form, lam):
    return tuple(lam * c for c in form)


@st.composite
def form_pairs(draw):
    """Two forms over one Q(zeta_d): independent, a multiple, or a multiple
    with the constant moved (a parallel plane)."""
    d = draw(st.sampled_from(ORDERS))
    a = draw(forms(d))
    how = draw(st.sampled_from(("free", "multiple", "parallel")))
    if how == "free":
        return a, draw(forms(d))
    b = scaled(a, draw(scalars(d)))
    if how == "parallel":
        b = (b[0] + draw(scalars(d)),) + b[1:]
    return a, b


@st.composite
def scalings(draw):
    d = draw(st.sampled_from(ORDERS))
    return draw(forms(d)), draw(scalars(d))


@given(form_pairs())
def test_keys_agree_exactly_when_cross_products_vanish(pair):
    a, b = pair
    proportional = all(
        (a[i] * b[j] - a[j] * b[i]).is_zero for i, j in combinations(range(len(a)), 2)
    )
    assert (hyperplane(a).line_key() == hyperplane(b).line_key()) == proportional


@given(scalings())
def test_key_is_invariant_under_scaling(scaling):
    form, lam = scaling
    assert hyperplane(scaled(form, lam)).line_key() == hyperplane(form).line_key()
