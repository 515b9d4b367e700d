"""Rank mod p of a dense integer matrix, the packed kernel's reference.

The package ranks mod p only from generator columns packed once per prime
(exactlin._ranks_mod_p); the tests pack a dense matrix into the same kernel,
exactlin._eliminate, and compare it with the packed ranks and the
fraction-free rank over Q.
"""

from arrcover.exactlin import _eliminate


def rank_mod_p(matrix, p: int) -> int:
    """Rank over the field Z_p (p prime) of an integer matrix.

    The nc columns are packed for _eliminate, one int per column with a
    w-bit slot per row, w = 2*bitlen(p) + bitlen(nc) + 1, the entries first
    reduced into [0, p): a slot then stays below (p - 1) + nc*(p - 1)^2,
    less than nc*p^2 < 2^(w - 1).
    """
    nc = len(matrix[0]) if matrix else 0
    w = 2 * p.bit_length() + nc.bit_length() + 1
    columns = [0] * nc
    for r, row in enumerate(matrix):
        for c, v in enumerate(row):
            columns[c] |= (v % p) << (r * w)
    return _eliminate(columns, len(matrix), w, p)[0]
