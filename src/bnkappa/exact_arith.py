"""Exact integer arithmetic for square-root comparisons.

Every decision made by this package reduces to comparing integers or values
of the form (a + b*sqrt(m)) / q with a, b, m, q integers and q > 0.  Callers
clear the denominator q, which never changes a sign, and surd_sign decides
the sign of what is left.  Floating point is never consulted for a decision;
it appears only in explicitly approximate display columns.  Python integers
are unbounded, so intermediate products such as b*b*m are always exact.
"""

from __future__ import annotations

import math

from .errors import DomainError

__all__ = [
    "floor_neg_2sqrt",
    "surd_sign",
]


def floor_neg_2sqrt(n: int) -> int:
    """floor(-2*sqrt(n)) for n >= 1, computed exactly.

    Uses floor(-2*sqrt(n)) = -ceil(sqrt(4n)): with m = isqrt(4n), the answer
    is -m when 4n is a perfect square and -(m+1) otherwise.  Note that
    floor(-2*sqrt(n)) = floor(-2*sqrt(n - 1/4)), i.e. ceil(sqrt(4n)) equals
    ceil(sqrt(4n - 1)), since 4n-1 is never a perfect square.
    """
    if n < 1:
        raise DomainError(f"floor_neg_2sqrt requires n >= 1, got {n}")
    m = math.isqrt(4 * n)
    return -m if m * m == 4 * n else -(m + 1)


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def surd_sign(a: int, b: int, m: int) -> int:
    """Exact sign (-1, 0, +1) of a + b*sqrt(m) for integers a, b and m >= 0.

    Mixed-sign cases compare a*a against b*b*m; both sides are exact, so no
    precision is lost.  Zero is returned only when the value is exactly zero
    (possible only if m is a perfect square or b = 0).
    """
    if m < 0:
        raise DomainError(f"surd_sign requires m >= 0, got m={m}")
    if b == 0 or m == 0:
        return _sign(a)
    if a == 0:
        return _sign(b)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # Opposite signs: a + b*sqrt(m) > 0  <=>  a*a > b*b*m when a > 0,
    # and  <=>  b*b*m > a*a when b > 0.
    if a > 0:
        return _sign(a * a - b * b * m)
    return _sign(b * b * m - a * a)

