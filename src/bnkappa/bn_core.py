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
  used to reach that range when d > g - 1.

The two routes are kept separate on purpose so they can be checked against
each other: `kappa` is the closed route alone, and `kappa_brute` is its
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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
    "serre_dual",
]


@dataclass(frozen=True, order=True)
class BNLocus:
    """Index triple (g, r, d) of a Brill-Noether locus."""

    g: int
    r: int
    d: int

    def __post_init__(self) -> None:
        if self.g < 2:
            raise DomainError(f"genus must be >= 2, got {self.g}")
        if self.r < 0 or self.d < 0:
            raise DomainError(f"rank and degree must be >= 0, got r={self.r} d={self.d}")

    def rho(self) -> int:
        return rho(self.g, self.r, self.d)

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


@dataclass(frozen=True)
class KappaResult:
    """A kappa value together with the branch taken and the inputs' rho, gamma."""

    value: int
    branch: KappaBranch
    rho: int
    gamma: int


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
    return min(r, g - d + r - 1)


def general_gonality(g: int) -> int:
    """Gonality floor((g+3)/2) of the general curve of genus g."""
    return (g + 3) // 2


def rho_pflueger(g: int, r: int, d: int, k: int) -> int:
    """Pflueger's k-gonal Brill-Noether number.

    rho_k(g, r, d) = max over 0 <= l <= r' of  rho(g, r - l, d) - l*k,
    with r' = min(r, g - d + r - 1).  The l = 0 term is always included, so
    rho_k >= rho.
    """
    if k < 2:
        raise DomainError(f"gonality k must be >= 2, got {k}")
    if g < 2 or r < 0 or d < 0:
        raise DomainError(f"rho_pflueger requires g >= 2, r >= 0, d >= 0; got ({g}, {r}, {d})")
    top = max(0, r_prime(g, r, d))
    return max(rho(g, r - l, d) - l * k for l in range(0, top + 1))


def kappa_brute(g: int, r: int, d: int) -> KappaResult:
    """Gonality invariant from the definition: the largest k with rho_k >= 0.

    Bisects over k in [2, floor((g+3)/2)], evaluating rho_pflueger at each
    probe.  This is sound because every term rho(g, r - l, d) - l*k of rho_k
    has l >= 0, so rho_k is non-increasing in k and the k with rho_k >= 0
    form an initial segment of the range.  The cap is probed first (rho_k >= 0
    there contradicts rho < 0) and then k = 2 (rho_2 < 0 means no k
    qualifies); both are InternalErrors.  Cost: O(log g) evaluations of
    rho_k at O(r') each, against O(g) for a scan over every k.
    Requires rho < 0 (otherwise kappa is undefined), d - 2r >= 0 and
    g - d + r >= 1 (otherwise no k qualifies).
    """
    rv = rho(g, r, d)
    if rv >= 0:
        raise DomainError(f"kappa undefined outside rho < 0: rho({g},{r},{d}) = {rv}")
    if d - 2 * r < 0:
        raise DomainError(f"kappa_brute requires d - 2r >= 0, got {d - 2 * r}")
    if g - d + r < 1:
        raise DomainError(f"kappa_brute requires g - d + r >= 1, got {g - d + r}")
    cap = general_gonality(g)
    if rho_pflueger(g, r, d, cap) >= 0:
        raise InternalError(
            f"rho_k >= 0 at the general gonality k={cap} although rho({g},{r},{d}) < 0"
        )
    if rho_pflueger(g, r, d, 2) < 0:
        raise InternalError(f"no gonality k in [2, {cap}] admits ({g},{r},{d}); expected k=2 to")
    lo, hi = 2, cap  # invariant: rho_lo >= 0 > rho_hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rho_pflueger(g, r, d, mid) >= 0:
            lo = mid
        else:
            hi = mid
    return KappaResult(lo, KappaBranch.BRUTE_FORCE, rv, clifford_index(r, d))


def kappa_closed(g: int, r: int, d: int) -> KappaResult:
    """Gonality invariant by closed formula, valid for d <= g - 1.

    With gamma = d - 2r:

        kappa = floor(d/r)                                if g + 1 > floor(d/r) + d,
        kappa = g + 1 - gamma + floor(-2*sqrt(-rho))      otherwise.

    Requires rho < 0, r >= 1, d <= g - 1 and gamma >= 0.
    """
    rv = rho(g, r, d)
    if rv >= 0:
        raise DomainError(f"kappa undefined outside rho < 0: rho({g},{r},{d}) = {rv}")
    if r < 1:
        raise DomainError(f"kappa_closed requires r >= 1, got {r}")
    if d > g - 1:
        raise DomainError(f"kappa_closed requires d <= g - 1, got d={d}, g={g}")
    gamma = clifford_index(r, d)
    if gamma < 0:
        raise DomainError(f"kappa_closed requires d - 2r >= 0, got {gamma}")
    fl = d // r
    if g + 1 > fl + d:
        return KappaResult(fl, KappaBranch.CLOSED_FIRST_CASE, rv, gamma)
    value = g + 1 - gamma + floor_neg_2sqrt(-rv)
    return KappaResult(value, KappaBranch.CLOSED_SECOND_CASE, rv, gamma)


def serre_dual(g: int, r: int, d: int) -> BNLocus:
    """Serre-dual locus (g, g - d + r - 1, 2g - 2 - d).

    Two dual loci coincide as subvarieties; rho and the Clifford index are
    both preserved by the involution.
    """
    s = g - d + r - 1
    e = 2 * g - 2 - d
    if s < 0 or e < 0:
        raise DomainError(f"Serre dual of ({g},{r},{d}) has negative rank or degree")
    return BNLocus(g, s, e)


def kappa(g: int, r: int, d: int) -> KappaResult:
    """Gonality invariant by the closed formula.

    For d <= g - 1 this is kappa_closed.  For d > g - 1 the Serre-dual locus
    has degree 2g - 2 - d <= g - 1 and the same rho and Clifford index, so
    the closed formula is applied there (branch SERRE_DUAL_REDUCTION).  When
    the dual does not exist or lies outside the formula's domain, its
    DomainError propagates: with rho < 0 that happens exactly when d < 2r,
    g - d + r <= 1 or d > 2g - 2, where kappa_brute has no value either.
    """
    rv = rho(g, r, d)
    if rv >= 0:
        raise DomainError(f"kappa undefined outside rho < 0: rho({g},{r},{d}) = {rv}")
    if d <= g - 1:
        return kappa_closed(g, r, d)
    dual = serre_dual(g, r, d)
    res = kappa_closed(dual.g, dual.r, dual.d)
    return KappaResult(res.value, KappaBranch.SERRE_DUAL_REDUCTION, rv, clifford_index(r, d))
