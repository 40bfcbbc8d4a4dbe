"""Exact integer arithmetic for square-root comparisons.

Every decision made by this package reduces to comparing integers or values
of the form (a + b*sqrt(m)) / q with a, b, m, q integers.  Floating point is
never consulted for a decision; it appears only in explicitly approximate
display columns.  Python integers are unbounded, so intermediate products
such as b*b*m are always exact.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .errors import DomainError

__all__ = [
    "floor_neg_2sqrt",
    "surd_sign",
    "Surd",
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


class _SurdFields(NamedTuple):
    a: int
    b: int
    m: int
    q: int = 1


class Surd(_SurdFields):
    """The number (a + b*sqrt(m)) / q with integer fields, m >= 0, q >= 1.

    The denominator lets rational values such as g/(r+1) + r be carried
    exactly; comparisons always happen after clearing it.

    A named tuple whose constructor validates: _make and _replace build
    through it too, so no Surd skips the checks.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, m: int, q: int = 1) -> "Surd":
        if m < 0:
            raise DomainError(f"Surd radicand must be >= 0, got {m}")
        if q < 1:
            raise DomainError(f"Surd denominator must be >= 1, got {q}")
        return tuple.__new__(cls, (a, b, m, q))

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> "Surd":
        return cls(*iterable)

    def sign(self) -> int:
        """Exact sign; the (positive) denominator never affects it."""
        return surd_sign(self.a, self.b, self.m)

    def minus_int(self, k: int) -> "Surd":
        """The surd minus an integer k, over the same denominator."""
        return Surd(self.a - k * self.q, self.b, self.m, self.q)

    def approx(self) -> float:
        """Floating-point approximation, for display columns only."""
        return (self.a + self.b * math.sqrt(self.m)) / self.q
