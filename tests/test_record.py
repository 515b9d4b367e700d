"""Value semantics of the package's record classes.

Every immutable class of the package is a ``record``: construction by
position or keyword, field-wise equality within one class, the hash of the
field tuple, a ``Name(field=value, ...)`` repr and no assignment or
deletion.  ``record`` supplies the ``__init__`` of a class that defines
none; only the classes that validate or normalise their arguments write
their own.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import arrcover
from arrcover import catalog
from arrcover.arrangement import (
    Arrangement,
    ClosureLattice,
    Flat,
    Hyperplane,
    IntersectionLattice,
    closure_lattice,
)
from arrcover.catalog import CatalogEntry
from arrcover.covers import (
    BettiInterval,
    CharpolyReport,
    CoverReport,
    PeriodicityClass,
    PeriodicityReport,
    WeightSystem,
    ZetaReport,
    local_betti,
)
from arrcover.cyclofield import CycNum, IntPoly, cyc_reduce
from arrcover.exactlin import CohomologyProfile, SnfResult, cohomology_Q
from arrcover.osalgebra import AomotoComplex, OSAlgebra, aomoto_matrices, os_algebra
from arrcover.record import record


def samples():
    """(class, field values by name, in field order) for every record class
    of the package, with values already in the form the class stores."""
    selberg = catalog.get("selberg").arrangement
    one, zeta = CycNum(3, (Fraction(1), Fraction(0))), CycNum(3, (Fraction(0), Fraction(1)))
    flat = Flat((0, 1), 2, 1, None)
    pclass = PeriodicityClass((1, 3), (5,), 2, 6)
    return [
        (Hyperplane, {"constant": one, "coeffs": (zeta, one)}),
        (Arrangement, {"ambient_dim": selberg.ambient_dim, "cyc_order": selberg.cyc_order,
                       "hyperplanes": selberg.hyperplanes, "is_central": selberg.is_central}),
        (Flat, {"support": (0, 1), "codim": 2, "mobius": 1, "dense": True}),
        (IntersectionLattice, {"levels": ((Flat((), 0, 1, None),), (flat,)), "rank": 1}),
        (ClosureLattice, {"flats": closure_lattice(selberg).flats,
                          "join": closure_lattice(selberg).join}),
        (IntPoly, {"coeffs": (1, -2, 3)}),
        (CycNum, {"order": 3, "coeffs": (Fraction(1, 2), Fraction(-3))}),
        (WeightSystem, {"k_vector": (1, 2, -1), "modulus": 4}),
        (BettiInterval, {"degree": 1, "lower": 1, "upper": 2, "resolved": False,
                         "witness_shift": (0, -1)}),
        (CoverReport, {"m": 6, "betti": (1, 7, 18),
                       "charpoly_exponents": ((1, (1, 5, 6)), (3, (0, 1, 2))), "exact": True}),
        (CharpolyReport, {"m": 12, "degree": 1, "exponents": ((1, 9), (4, 2)),
                          "expanded": IntPoly((1, -1)), "tk_factors": ((1, 9),),
                          "exact": False}),
        (PeriodicityClass, {"divisors": (1, 2), "constants": (5,), "top_slope": 2,
                            "top_constant": 4}),
        (PeriodicityReport, {"period": 60, "ell": 2, "classes": (pclass,), "exact": True}),
        (ZetaReport, {"degree": 1, "finite_terms": ((1, 5), (3, 2)), "tail_beta": 0,
                      "exact": True}),
        (SnfResult, {"invariant_factors": (1, 2, 0)}),
        (CohomologyProfile, {"ring": "rationals", "dims": (1, 2, 1)}),
        (OSAlgebra, {"bases": (((),), ((0,), (1,))), "generators": (((((0, 0, 1),),),),)}),
        (AomotoComplex, {"algebra": OSAlgebra((((),), ((0,),)), (((((0, 0, 1),),),),)),
                         "weights": (1,)}),
        (CatalogEntry, {"key": "selberg", "arrangement": selberg, "notes": "five lines"}),
    ]


def test_samples_cover_every_record_class():
    # the classes the package source decorates with @record
    declared = set()
    for path in Path(arrcover.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(dec, ast.Name) and dec.id == "record" for dec in node.decorator_list
            ):
                declared.add((path.stem, node.name))
    sampled = {(cls.__module__.rpartition(".")[2], cls.__name__) for cls, _ in samples()}
    assert sampled == declared
    assert len(declared) == 19


@pytest.mark.parametrize("cls, fields", samples(), ids=lambda v: getattr(v, "__name__", ""))
def test_record_semantics(cls, fields):
    assert cls.__match_args__ == tuple(fields)
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert by_keyword == by_position
    assert by_keyword is not by_position
    values = tuple(fields.values())
    assert tuple(getattr(by_keyword, name) for name in fields) == values
    assert hash(by_keyword) == hash(by_position) == hash(values)

    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(by_keyword) == f"{cls.__name__}({shown})"

    # equality is within one class only
    assert by_keyword.__eq__(values) is NotImplemented
    assert by_keyword.__eq__(object()) is NotImplemented
    assert by_keyword != values

    for name in fields:
        with pytest.raises(AttributeError):
            setattr(by_keyword, name, None)
        with pytest.raises(AttributeError):
            delattr(by_keyword, name)
    with pytest.raises(AttributeError):
        by_keyword.extra = 1
    assert tuple(getattr(by_keyword, name) for name in fields) == values


def test_equality_compares_every_field():
    assert Flat((0, 1), 2, 1, None) != Flat((0, 1), 2, -1, None)
    assert BettiInterval(1, 2, 2, True) != BettiInterval(1, 2, 2, True, (0,))
    assert hash(IntPoly((1, 2))) != hash(IntPoly((2, 1)))


def test_equality_against_another_record_class_is_not_implemented():
    profile = CohomologyProfile("rationals", (1,))
    snf = SnfResult((1,))
    assert profile.__eq__(snf) is NotImplemented
    assert profile != snf


def test_defaults():
    assert BettiInterval(0, 1, 1, True).witness_shift is None
    assert BettiInterval(0, 1, 1, True) == BettiInterval(0, 1, 1, True, None)


def test_validation_in_init():
    with pytest.raises(ValueError, match="lower 3 exceeds upper 2"):
        BettiInterval(1, 3, 2, False)
    with pytest.raises(ValueError, match="modulus must be >= 1"):
        WeightSystem((1, 1), 0)
    with pytest.raises(ValueError, match="expected 2 coefficients for order 3, got 1"):
        CycNum(3, (1,))
    with pytest.raises(ValueError, match="cyclotomic order must be >= 1"):
        CycNum(0, ())
    zero = cyc_reduce([0], 1)
    with pytest.raises(ValueError, match="zero linear part"):
        Hyperplane(zero, [zero, zero])
    with pytest.raises(ValueError, match="mixed cyclotomic orders"):
        Hyperplane(zero, [cyc_reduce([1], 3)])


def test_init_normalizes_its_fields():
    assert IntPoly([1.0, 2, 0, 0]).coeffs == (1, 2)
    assert all(type(c) is int for c in IntPoly([1.0, 2]).coeffs)
    assert IntPoly((0, 0)).coeffs == ()
    w = WeightSystem([1, 2.0], 3)
    assert w.k_vector == (1, 2) and all(type(k) is int for k in w.k_vector)
    x = CycNum(3, [1, "1/2"])
    assert x.coeffs == (Fraction(1), Fraction(1, 2))
    assert all(type(c) is Fraction for c in x.coeffs)
    one = cyc_reduce([1], 1)
    assert Hyperplane(one, [one]).coeffs == (one,)


def test_a_class_keeps_its_own_hash_and_a_complex_holds_its_fields_only():
    a = catalog.get("selberg").arrangement
    assert hash(a) == hash((a.ambient_dim, a.cyc_order, a.hyperplanes, a.is_central))
    # ranks and dense differentials are computed, never kept on the complex
    complex_ = aomoto_matrices(a, (1,) * a.n)
    cohomology_Q(complex_)
    for q in range(len(complex_.dims())):
        complex_.differential(q)
    assert vars(complex_).keys() == {"algebra", "weights"}


@pytest.mark.parametrize("key", ["selberg", "maclane-decone", "hessian-decone", "ceva3"])
def test_closure_lattice_holds_its_fields_only(key):
    # what a sweep derives from the lattice and the algebra is kept by
    # arrangement.derived, so after local_betti at every k the lattice is
    # still (flats, join) and the algebra (bases, generators)
    a = catalog.get(key).arrangement
    for k in range(1, a.n + 1):
        local_betti(a, k)
    assert vars(closure_lattice(a)).keys() == {"flats", "join"}
    assert vars(os_algebra(a)).keys() == {"bases", "generators"}


def test_record_on_a_new_class():
    @record
    class Pair:
        left: int
        right: int

    assert "__init__" in vars(Pair)
    assert Pair(1, 2) == Pair(left=1, right=2) != Pair(2, 1)
    assert hash(Pair(1, 2)) == hash((1, 2))
    assert repr(Pair(1, [2])).endswith("Pair(left=1, right=[2])")
    assert {Pair(1, 2): "x"}[Pair(1, 2)] == "x"
    # keywords are stored in field order, as by position
    assert list(vars(Pair(right=2, left=1)).items()) == [("left", 1), ("right", 2)]


@pytest.mark.parametrize("args, kwargs, message", [
    ((1,), {}, "Pair() takes 2 fields, 1 given by position; missing 'right'"),
    ((), {}, "Pair() takes 2 fields, 0 given by position; missing 'left'; missing 'right'"),
    ((1, 2), {"middle": 3}, "Pair() takes 2 fields, 2 given by position; unexpected 'middle'"),
    ((1,), {"left": 2}, "Pair() takes 2 fields, 1 given by position; repeated 'left'; "
                        "missing 'right'"),
    ((1, 2), {"left": 3}, "Pair() takes 2 fields, 2 given by position; repeated 'left'"),
    ((1, 2, 3), {}, "Pair() takes 2 fields, 3 given by position"),
], ids=["missing", "missing-all", "unknown", "repeated", "repeated-after-all", "too-many"])
def test_generated_init_rejects_bad_arguments(args, kwargs, message):
    @record
    class Pair:
        left: int
        right: int

    with pytest.raises(TypeError) as raised:
        Pair(*args, **kwargs)
    assert str(raised.value) == message
