"""Primes and residues.

Every polynomial is over Q.  F_p enters only through residues: the scans'
int32 tables and the rank mod p take the image of a rational number in
[0, p), which exists unless p divides its denominator.
"""

from __future__ import annotations

import functools

from .errors import ReductionError


# every scan of a run asks again for the same few primes
@functools.cache
def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for every 64-bit integer."""
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    d = p - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def residue(value, p):
    """The image of an int or Fraction in F_p, as an int in [0, p)."""
    if value.denominator % p == 0:
        raise ReductionError(f"denominator of {value} vanishes mod {p}")
    return value.numerator * pow(value.denominator, -1, p) % p
