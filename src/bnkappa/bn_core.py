"""Core Brill-Noether numerology.

A locus is indexed by (g, r, d): curves of genus g carrying a linear series
of rank r and degree d.  The classical expected codimension is -rho where

    rho(g, r, d) = g - (r+1)(g - d + r).

For rho < 0 the locus is a proper subvariety of the moduli of curves, and the
gonality invariant kappa(g, r, d) is the largest gonality k such that the
general k-gonal curve still carries a series of rank r and degree d.  It is
computed here two independent ways:

* brute force over Pflueger's k-gonal adjustment of rho, and
* a closed formula, valid for d <= g - 1, with a Serre-duality reduction
  used to reach that range when d > g - 1 (kappa; kappa_closed is kappa
  restricted to d <= g - 1).

The two routes are kept separate on purpose so they can be checked against
each other: `kappa` is the closed route alone, and `kappa_brute` is its
oracle.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import DomainError, InternalError
from .exact_arith import floor_neg_2sqrt

__all__ = [
    "BNLocus",
    "KappaBranch",
    "KappaResult",
    "rho",
    "clifford_index",
    "r_prime",
    "general_gonality",
    "rho_pflueger",
    "kappa_brute",
    "kappa_closed",
    "kappa",
]


class _LocusFields(NamedTuple):
    g: int
    r: int
    d: int


class BNLocus(_LocusFields):
    """Index triple (g, r, d) of a Brill-Noether locus.

    A named tuple, so equality, hashing, ordering and repr are those of the
    tuple (g, r, d): a locus equals, hashes like and orders like that plain
    tuple.

    rho and kappa are memoized attributes: functools.cached_property computes
    each on first read and stores it in the instance __dict__, which exists
    because the class sets no __slots__.  The memo is not a field, so the
    tuple never sees it.  __setattr__ and __delattr__ raise AttributeError
    for every name, so a locus stays immutable and no assignment can
    overwrite or drop a memoized value.  A DomainError is not memoized, and
    nothing is shared between instances.  gamma, the Clifford index, is a
    plain property.

    Building one validates it: g >= 2 and r, d >= 0, or DomainError.  _make
    and _replace build through the constructor, so they validate too.
    """

    def __new__(cls, g: int, r: int, d: int) -> "BNLocus":
        if g < 2:
            raise DomainError(f"genus must be >= 2, got {g}")
        if r < 0 or d < 0:
            raise DomainError(f"rank and degree must be >= 0, got r={r} d={d}")
        return tuple.__new__(cls, (g, r, d))

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> "BNLocus":
        return cls(*iterable)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: a BNLocus is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: a BNLocus is immutable")

    @cached_property
    def rho(self) -> int:
        return rho(self.g, self.r, self.d)

    @cached_property
    def kappa(self) -> "KappaResult":
        """kappa(g, r, d) by the closed formula, computed once per instance."""
        return kappa(self.g, self.r, self.d)

    @property
    def gamma(self) -> int:
        return clifford_index(self.r, self.d)

    def __str__(self) -> str:
        return f"(g={self.g}, r={self.r}, d={self.d})"


class KappaBranch(Enum):
    """Which computation produced a kappa value."""

    CLOSED_FIRST_CASE = "closed-first-case"
    CLOSED_SECOND_CASE = "closed-second-case"
    BRUTE_FORCE = "brute-force"
    SERRE_DUAL_REDUCTION = "serre-dual-reduction"


class KappaResult(NamedTuple):
    """A kappa value together with the branch that computed it.

    rho() and clifford_index() give the input's other invariants; on the
    Serre-dual branch the dual shares both.

    A plain named tuple, cheap to build (kappa builds one per call): it
    equals, hashes and orders like the tuple (value, branch), so results
    order by value, and two of equal value and different branch have no order.
    """

    value: int
    branch: KappaBranch


def rho(g: int, r: int, d: int) -> int:
    """Brill-Noether number g - (r+1)(g - d + r)."""
    if g < 2 or r < 0 or d < 0:
        raise DomainError(f"rho requires g >= 2, r >= 0, d >= 0; got ({g}, {r}, {d})")
    return g - (r + 1) * (g - d + r)


def clifford_index(r: int, d: int) -> int:
    """Clifford index d - 2r of a series of rank r and degree d."""
    if r < 0 or d < 0:
        raise DomainError(f"clifford_index requires r >= 0, d >= 0; got ({r}, {d})")
    return d - 2 * r


def r_prime(g: int, r: int, d: int) -> int:
    """Rank cutoff min(r, g - d + r - 1) for the k-gonal adjustment."""
    # a comparison, not min(): rho_pflueger and kappa_brute call it once each
    top = g - d + r - 1
    return r if r <= top else top


def general_gonality(g: int) -> int:
    """Gonality floor((g+3)/2) of the general curve of genus g."""
    return (g + 3) // 2


def rho_pflueger(g: int, r: int, d: int, k: int) -> int:
    """Pflueger's k-gonal Brill-Noether number, in O(1).

    rho_k(g, r, d) = max over 0 <= l <= r' of  rho(g, r - l, d) - l*k,
    with r' = min(r, g - d + r - 1).  The l = 0 term is always included, so
    rho_k >= rho.  Checks its arguments, then evaluates _rho_k.
    """
    if k < 2:
        raise DomainError(f"gonality k must be >= 2, got {k}")
    if g < 2 or r < 0 or d < 0:
        raise DomainError(f"rho_pflueger requires g >= 2, r >= 0, d >= 0; got ({g}, {r}, {d})")
    return _rho_k(g, r + 1, g - d + r, r_prime(g, r, d), k)


def _rho_k(g: int, a: int, h: int, top: int, k: int) -> int:
    """rho_k from a = r + 1, h = g - d + r and top = r', unchecked.

    Term l of rho_k is g - a*h + (a + h - k)*l - l^2, a concave parabola in l
    with vertex at (a + h - k)/2.  When a + h - k is odd the two integers
    beside the vertex tie, so the vertex's ceiling, clamped to
    [0, max(0, top)], is a maximiser and one evaluation gives rho_k.
    """
    # plain comparisons, not min/max: this is kappa_brute's inner step
    l = (a + h - k + 1) // 2
    if l > top:
        l = top
    if l < 0:
        l = 0
    return g - (a - l) * (h - l) - l * k


def kappa_brute(g: int, r: int, d: int) -> KappaResult:
    """Gonality invariant from the definition: the largest k with rho_k >= 0.

    Checks (g, r, d) once, computes a = r + 1, h = g - d + r and r' once, and
    bisects over k in [2, floor((g+3)/2)], evaluating the unchecked _rho_k at
    each probe; no closed form of kappa is used.  This is sound because every
    term rho(g, r - l, d) - l*k of rho_k has l >= 0, so rho_k is
    non-increasing in k and the k with rho_k >= 0 form an initial segment of
    the range.  The cap is probed first (rho_k >= 0 there contradicts
    rho < 0) and then k = 2 (rho_2 < 0 means no k qualifies); both are
    InternalErrors.  Cost: O(log g) evaluations of rho_k, each O(1) by its
    parabola vertex, against O(g) for a scan over every k.
    Requires rho < 0 (otherwise kappa is undefined) and d - 2r >= 0
    (otherwise no k qualifies).  No k qualifies when g - d + r <= 0 either,
    but then rho >= g, so rho < 0 already rules that out.
    """
    rv = rho(g, r, d)
    if rv >= 0:
        raise DomainError(f"kappa undefined outside rho < 0: rho({g},{r},{d}) = {rv}")
    if d - 2 * r < 0:
        raise DomainError(f"kappa_brute requires d - 2r >= 0, got {d - 2 * r}")
    a, h, top = r + 1, g - d + r, r_prime(g, r, d)
    cap = general_gonality(g)
    if _rho_k(g, a, h, top, cap) >= 0:
        raise InternalError(
            f"rho_k >= 0 at the general gonality k={cap} although rho({g},{r},{d}) < 0"
        )
    if _rho_k(g, a, h, top, 2) < 0:
        raise InternalError(f"no gonality k in [2, {cap}] admits ({g},{r},{d}); expected k=2 to")
    lo, hi = 2, cap  # invariant: rho_lo >= 0 > rho_hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _rho_k(g, a, h, top, mid) >= 0:
            lo = mid
        else:
            hi = mid
    return KappaResult(lo, KappaBranch.BRUTE_FORCE)


def kappa_closed(g: int, r: int, d: int) -> KappaResult:
    """kappa restricted to d <= g - 1, where the closed formula applies directly.

    Raises kappa's errors, and refuses rho < 0 with d > g - 1 instead of
    reducing by Serre duality.
    """
    if d > g - 1 and rho(g, r, d) < 0:
        raise DomainError(f"kappa_closed requires d <= g - 1, got d={d}, g={g}")
    return kappa(g, r, d)


def kappa(g: int, r: int, d: int) -> KappaResult:
    """Gonality invariant by the closed formula.

    With gamma = d - 2r, for d <= g - 1:

        kappa = floor(d/r)                                if g + 1 > floor(d/r) + d,
        kappa = g + 1 - gamma + floor(-2*sqrt(-rho))      otherwise.

    For d > g - 1 the formula is evaluated once on the Serre-dual indices
    (g - d + r - 1, 2g - 2 - d), with the rho already in hand (branch
    SERRE_DUAL_REDUCTION): the dual has degree <= g - 1 and the same rho and
    Clifford index.  A rank-0 locus has rho = d >= 0, so rho < 0 gives rank
    >= 1 on both sides, as floor(d/r) needs.

    The domain is rho < 0 and gamma >= 0, the same as kappa_brute's, and
    nothing else is checked.  The dual's indices need no check: rho < 0
    gives h = g - d + r >= 1 (else rho >= g), and with d >= 2r that gives
    d <= g - 1 + r <= g - 1 + d/2, so d <= 2g - 2 and both dual indices are
    >= 0.  Duality keeps gamma, so gamma is checked once, on the input.
    """
    rv = rho(g, r, d)
    if rv >= 0:
        raise DomainError(f"kappa undefined outside rho < 0: rho({g},{r},{d}) = {rv}")
    gamma = d - 2 * r
    if gamma < 0:
        raise DomainError(f"kappa requires d - 2r >= 0, got {gamma}")
    if d <= g - 1:
        first, second = KappaBranch.CLOSED_FIRST_CASE, KappaBranch.CLOSED_SECOND_CASE
    else:
        r, d = g - d + r - 1, 2 * g - 2 - d
        first = second = KappaBranch.SERRE_DUAL_REDUCTION
    fl = d // r
    if g + 1 > fl + d:
        return KappaResult(fl, first)
    return KappaResult(g + 1 - gamma + floor_neg_2sqrt(-rv), second)
