"""Exact invariants of cyclic covers of hyperplane arrangement complements.

The pipeline: arrangements over cyclotomic fields -> intersection lattice and
dense edges -> Orlik-Solomon algebra with weighted differentials -> exact
rational / mod-N cohomology bounds -> Betti numbers, monodromy characteristic
polynomials, polynomial periodicity, and zeta coefficients of the family of
cyclic covers X_m.
"""

from .arrangement import (
    Arrangement,
    Flat,
    Hyperplane,
    IntersectionLattice,
    beta,
    betti_numbers,
    build,
    cone,
    decone,
    dense_edges,
    euler_characteristic,
    intersection_lattice,
    poincare_polynomial,
)
from .covers import (
    BettiInterval,
    CharpolyReport,
    CoverReport,
    PeriodicityReport,
    ShiftSearchConfig,
    UnresolvedBettiError,
    WeightSystem,
    ZetaReport,
    cover_betti,
    fast_nonresonant,
    local_betti,
    monodromy_charpoly,
    periodicity,
    stv_nonresonant,
    zeta_coefficients,
)
from .cyclofield import (
    CycNum,
    IntPoly,
    Rational,
    cyc_reduce,
    cyclotomic_polynomial,
    euler_phi,
)
from .exactlin import (
    CohomologyProfile,
    SnfResult,
    cohomology_modN,
    cohomology_Q,
    smith_normal_form,
)
from .fileformat import ArrangementFileError, parse_file, serialize_arrangement
from .osalgebra import AomotoComplex, aomoto_matrices, nbc_basis, straighten

__all__ = [
    "AomotoComplex",
    "Arrangement",
    "ArrangementFileError",
    "BettiInterval",
    "CharpolyReport",
    "CohomologyProfile",
    "CoverReport",
    "CycNum",
    "Flat",
    "Hyperplane",
    "IntPoly",
    "IntersectionLattice",
    "PeriodicityReport",
    "Rational",
    "ShiftSearchConfig",
    "SnfResult",
    "UnresolvedBettiError",
    "WeightSystem",
    "ZetaReport",
    "aomoto_matrices",
    "beta",
    "betti_numbers",
    "build",
    "cohomology_Q",
    "cohomology_modN",
    "cone",
    "cover_betti",
    "cyc_reduce",
    "cyclotomic_polynomial",
    "decone",
    "dense_edges",
    "euler_characteristic",
    "euler_phi",
    "fast_nonresonant",
    "intersection_lattice",
    "local_betti",
    "monodromy_charpoly",
    "nbc_basis",
    "parse_file",
    "periodicity",
    "poincare_polynomial",
    "serialize_arrangement",
    "smith_normal_form",
    "straighten",
    "stv_nonresonant",
    "zeta_coefficients",
]
