"""Hyperplane reordering, the helper of the order-invariance tests.

The package never reorders an arrangement; the tests check that lattices,
NBC counts and local Betti intervals do not depend on hyperplane order.
"""

from arrcover.arrangement import Arrangement, build


def permuted(a: Arrangement, perm) -> Arrangement:
    """Reorder hyperplanes; perm[i] is the old index placed at position i."""
    return build(a.ambient_dim, a.cyc_order, tuple(a.hyperplanes[i] for i in perm))
