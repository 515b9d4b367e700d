"""Deletion and restriction, the oracles of the deletion-restriction identity.

P(A, t) = P(A - H, t) + t P(A^H, t) for every hyperplane H.  Both sides may
be non-essential or empty, so they are built without the validation of
arrangement.build and serve lattice and Poincare computations only.
"""

from arrcover.arrangement import Arrangement, Hyperplane


def _unchecked(ambient_dim: int, cyc_order: int, hps) -> Arrangement:
    hps = tuple(hps)
    central = all(h.constant.is_zero for h in hps)
    return Arrangement(ambient_dim, cyc_order, hps, central)


def deletion(a: Arrangement, at: int) -> Arrangement:
    """A minus one hyperplane; may be non-essential, so skips validation."""
    hps = tuple(h for i, h in enumerate(a.hyperplanes) if i != at)
    return _unchecked(a.ambient_dim, a.cyc_order, hps)


def restriction(a: Arrangement, at: int) -> Arrangement:
    """The arrangement induced on hyperplane `at`, coincident images deduplicated.

    Parallel hyperplanes (empty trace) are dropped.  The result may be empty
    or non-essential.
    """
    h0 = a.hyperplanes[at]
    alpha = h0.coeffs
    p = next(i for i, v in enumerate(alpha) if not v.is_zero)
    inv_ap = alpha[p].inverse()
    restricted: list[Hyperplane] = []
    for i, h in enumerate(a.hyperplanes):
        if i == at:
            continue
        # substitute x_p = -(c0 + sum_{k != p} a_k x_k)/a_p into h
        factor = h.coeffs[p] * inv_ap
        constant = h.constant - factor * h0.constant
        linear = tuple(
            h.coeffs[k] - factor * alpha[k] for k in range(a.ambient_dim) if k != p
        )
        if all(c.is_zero for c in linear):
            continue  # parallel to the restriction hyperplane
        candidate = Hyperplane(constant, linear)
        if candidate.line_key() not in {g.line_key() for g in restricted}:
            restricted.append(candidate)
    return _unchecked(a.ambient_dim - 1, a.cyc_order, restricted)
