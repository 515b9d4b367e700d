"""Span membership against a reduced echelon form, the brute-force lattice
oracles' helper.

The package identifies a flat by its support and never tests span
membership row by row; the oracles close every row subset this way instead.
"""


def row_in_span(row, echelon_rows) -> bool:
    """Whether an affine row lies in the row space of a reduced echelon form."""
    residue = list(row)
    for erow in echelon_rows:
        lead = next(i for i, v in enumerate(erow) if not v.is_zero)
        if not residue[lead].is_zero:
            factor = residue[lead]
            residue = [v - factor * w for v, w in zip(residue, erow)]
    return all(v.is_zero for v in residue)
