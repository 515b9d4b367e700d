"""Exact invariants of cyclic covers of hyperplane arrangement complements.

The pipeline: arrangements over cyclotomic fields -> intersection lattice and
dense edges -> Orlik-Solomon algebra with weighted differentials -> exact
rational / mod-N cohomology bounds -> Betti numbers, monodromy characteristic
polynomials, polynomial periodicity, and zeta coefficients of the family of
cyclic covers X_m.
"""

import importlib

# public name -> the submodule that defines it; a name is imported with its
# module on first access (PEP 562), so a command loads only what it uses
_HOMES = {
    **dict.fromkeys(
        ("Arrangement", "Flat", "Hyperplane", "IntersectionLattice", "beta", "betti_numbers",
         "build", "cone", "decone", "dense_edges", "euler_characteristic",
         "intersection_lattice", "poincare_polynomial"),
        "arrangement",
    ),
    **dict.fromkeys(
        ("BettiInterval", "CharpolyReport", "CoverReport", "PeriodicityReport",
         "UnresolvedBettiError", "WeightSystem", "ZetaReport",
         "cover_betti", "fast_nonresonant", "local_betti", "monodromy_charpoly",
         "periodicity", "stv_nonresonant", "zeta_coefficients"),
        "covers",
    ),
    **dict.fromkeys(
        ("CycNum", "IntPoly", "cyc_reduce", "cyclotomic_polynomial", "euler_phi"),
        "cyclofield",
    ),
    **dict.fromkeys(
        ("CohomologyProfile", "SnfResult", "cohomology_modN", "cohomology_Q",
         "smith_normal_form"),
        "exactlin",
    ),
    **dict.fromkeys(("ArrangementFileError", "parse_file", "serialize_arrangement"),
                    "fileformat"),
    **dict.fromkeys(("AomotoComplex", "aomoto_matrices", "nbc_basis", "straighten"),
                    "osalgebra"),
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    # Only the exported names resolve here.  Any other name raises, so that
    # ``from arrcover import covers`` falls back to importing the submodule.
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value
