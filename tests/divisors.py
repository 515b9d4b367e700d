"""The divisors of m, ascending, the helper of the number-theory tests.

The package reads the divisors of m only with their Euler phi
(cyclofield.divisor_phis); the tests that list divisors by themselves read
them off that map.
"""

from arrcover.cyclofield import divisor_phis


def divisors(m: int) -> list[int]:
    """The divisors of m >= 1 in ascending order."""
    return list(divisor_phis(m))
