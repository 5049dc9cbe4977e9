"""Exact primality of a characteristic p, without numpy.

The cover and filtration layers check p here, so the commands built on
them alone (``dim`` and ``tot``) never load the field arithmetic.
"""

from .errors import ValidationError

__all__ = []


# Miller-Rabin with the primes up to 37 as bases has no strong pseudoprime
# below _PRIME_BOUND (Sorenson and Webster, Math. Comp. 86, 2017), so it
# decides primality exactly there
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_BOUND = 318665857834031151167461


def _is_prime(n):
    """Exact primality of n; ValidationError for a probable prime >= _PRIME_BOUND."""
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    if n < 41 * 41:
        return True
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False  # b witnesses that n is composite
    if n >= _PRIME_BOUND:
        raise ValidationError(
            "primality of p is only decided below %d; got %d" % (_PRIME_BOUND, n)
        )
    return True
