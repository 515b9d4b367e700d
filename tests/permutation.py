"""Hyperplane permutations, the helpers of the order-invariance tests.

The package never reorders an arrangement; the tests check that lattices,
NBC counts and local Betti intervals do not depend on hyperplane order.
support_image applies a permutation to a support bitmask one bit at a time,
the reference for the covers' byte tables.
"""

from arrcover.arrangement import Arrangement, build


def permuted(a: Arrangement, perm) -> Arrangement:
    """Reorder hyperplanes; perm[i] is the old index placed at position i."""
    return build(a.ambient_dim, a.cyc_order, tuple(a.hyperplanes[i] for i in perm))


def support_image(mask: int, perm) -> int:
    """The bitmask of {perm[i] : bit i of mask is set}."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out
