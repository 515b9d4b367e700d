"""Two inputs of the lower-bound sweep, on data drawn by hypothesis: the byte
tables that apply a permutation to support bitmasks, and the integer
dense-edge weight test that decides which k are swept at all."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from arrcover import catalog  # noqa: E402
from arrcover.arrangement import dense_edges  # noqa: E402
from arrcover.covers import WeightSystem, byte_tables, orbit, stv_nonresonant  # noqa: E402
from permutation import support_image  # noqa: E402

KEYS = sorted(catalog.entries())


# ---------------------------------------------------------------------------
# Byte tables.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 17))
@settings(max_examples=20)
@given(data=st.data())
def test_byte_tables_are_support_image(n, data):
    perm = data.draw(st.permutations(range(n)))
    tables = byte_tables(perm)
    assert len(tables) == (n + 7) // 8
    for b, table in enumerate(tables):
        assert len(table) == 2 ** min(8, n - 8 * b)
        assert list(table) == [support_image(v << 8 * b, perm) for v in range(len(table))]
    # the orbit of one mask under <perm> is its cycle under support_image
    mask = data.draw(st.integers(0, 2 ** n - 1))
    cycle, x = {mask}, support_image(mask, perm)
    while x != mask:
        cycle.add(x)
        x = support_image(x, perm)
    assert orbit(mask, (tables,)) == cycle


# ---------------------------------------------------------------------------
# The dense-edge weight test.
# ---------------------------------------------------------------------------

def stv_by_fractions(a, w):
    """The rule on rational weights: some dense edge of the closure has
    weight in Z_{>=0}, where infinity carries -sum(lambda_H)."""
    weights = [Fraction(k, w.modulus) for k in w.k_vector + (-sum(w.k_vector),)]
    for flat in dense_edges(a).flats():
        if flat.dense:
            total = sum((weights[i] for i in flat.support), Fraction(0))
            if total.denominator == 1 and total >= 0:
                return False
    return True


@pytest.mark.parametrize("key", KEYS)
def test_stv_uniform_weights_match_fractions(key):
    a = catalog.get(key).arrangement
    for k in range(1, a.n + 1):
        w = WeightSystem.uniform(a.n, k)
        assert stv_nonresonant(a, w) == stv_by_fractions(a, w), k


@given(key=st.sampled_from(KEYS), data=st.data())
def test_stv_random_weights_match_fractions(key, data):
    a = catalog.get(key).arrangement
    modulus = data.draw(st.integers(1, 12))
    k_vector = data.draw(st.lists(st.integers(-2 * modulus, 2 * modulus),
                                  min_size=a.n, max_size=a.n))
    w = WeightSystem(k_vector, modulus)
    assert stv_nonresonant(a, w) == stv_by_fractions(a, w)
