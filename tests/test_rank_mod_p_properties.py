"""rank_mod_p (packed columns) against plain row-list elimination over F_p."""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from arrcover.exactlin import _eliminate  # noqa: E402
from rank_mod_p import rank_mod_p  # noqa: E402

PRIMES = (2, 3, 5, 7, 32749)


def rank_mod_p_oracle(matrix, p):
    """Gaussian elimination over F_p on lists of reduced entries."""
    rows = [[v % p for v in row] for row in matrix]
    nc = len(rows[0]) if rows else 0
    rank = 0
    for col in range(nc):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [inv * v % p for v in rows[rank]]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if f:
                rows[r] = [(v - f * w) % p for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@st.composite
def matrices(draw):
    """(matrix, p): tall, wide, square or empty, with entries that include
    negatives, p - 1 and multiples of p."""
    p = draw(st.sampled_from(PRIMES))
    nr = draw(st.integers(0, 9))
    nc = draw(st.integers(0, 9)) if nr else 0
    entry = st.one_of(
        st.integers(-3, 3),
        st.sampled_from((p - 1, -(p - 1))),
        st.integers(-3, 3).map(lambda c: c * p),
        st.integers(-2 * p, 2 * p),
    )
    row = st.lists(entry, min_size=nc, max_size=nc)
    return draw(st.lists(row, min_size=nr, max_size=nr)), p


@given(matrices())
def test_rank_mod_p_matches_row_list_elimination(case):
    matrix, p = case
    assert rank_mod_p(matrix, p) == rank_mod_p_oracle(matrix, p)


@given(matrices(), st.integers(1, 4))
def test_rank_mod_p_of_stacked_copies(case, copies):
    # repeated rows add nothing to the rank but rows the kernel updates
    matrix, p = case
    assert rank_mod_p(matrix * copies, p) == rank_mod_p_oracle(matrix, p)


@given(matrices(), st.integers(1, 3))
def test_eliminate_with_slots_near_their_bound(case, copies):
    # each slot starts as the largest value congruent to its entry that
    # leaves room for one update below p^2 per column, so the updates and
    # the reduction of each pivot run at the top of the range _eliminate
    # allows (every slot below 2^(width - 1))
    matrix, p = case
    matrix = matrix * copies
    nc = len(matrix[0]) if matrix else 0
    width = 2 * p.bit_length() + nc.bit_length() + 3
    top = (1 << (width - 1)) - nc * p * p - 1
    columns = [0] * nc
    for r, row in enumerate(matrix):
        for c, v in enumerate(row):
            columns[c] |= (top - (top - v) % p) << (r * width)
    rank, pivots = _eliminate(columns, len(matrix), width, p)
    assert rank == len(pivots) == rank_mod_p_oracle(matrix, p)


def test_rank_mod_p_worst_carry():
    # entries p - 1 start every slot at its largest reduced value; in the
    # dense matrix (20 random rows, three times) a row takes up to 20
    # updates with large multipliers, and a carry would show in the rank
    p = 32749
    matrix = [[p - 1] * 40 for _ in range(60)]
    assert rank_mod_p(matrix, p) == rank_mod_p_oracle(matrix, p) == 1
    rng = random.Random(83)
    dense = [[rng.choice((p - 1, rng.randrange(p))) for _ in range(40)] for _ in range(20)] * 3
    assert rank_mod_p(dense, p) == rank_mod_p_oracle(dense, p) == 20
