"""Which k the tests sweep: the resonant k that an arrangement's local table
holds (covers._local_table), read as local_betti reads them."""

from arrcover.covers import _local_table


def is_nonresonant(a, k: int) -> bool:
    """True when weights 1/k, k >= 1, are nonresonant for a: local_betti
    gives them without a sweep."""
    return k not in _local_table(a)[0]
