"""The Mobius function by trial division, the number-theory oracles' helper.

The package inverts by Mobius through one pass per prime
(cyclofield.tk_exponents) and never evaluates mu itself; the tests check
that inversion, and sums over divisors, against this plain loop.
"""


def mobius(n: int) -> int:
    """0 when n has a square factor, else (-1)^(number of primes of n)."""
    if n < 1:
        raise ValueError("mobius requires n >= 1")
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign
