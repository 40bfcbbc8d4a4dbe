"""Expected maximal loci and the rank-comparison inequality.

For fixed genus g and rank r the largest degree with rho < 0 is

    d_max(g, r) = g + r - 1 - floor(g / (r+1)),

and the locus (g, r, d_max) is "expected maximal": it is not trivially
contained in any other proper locus.  Such loci exist exactly for ranks
1 <= r <= r_max_expected(g).  At d_max both rho and kappa have closed forms,
which makes large scans cheap; this module also houses the genus scans that
locate, for each rank r, the genera where the strict kappa inequality

    kappa(g, r, d_max(g, r)) > kappa(g, s, d_max(g, s))   for all s > r

fails, and the threshold G(r) past which it always holds.  A scan ends at
the genus scan_end(r), about 2(r+1)^(5/2), from which kappa's own bracket
proves the inequality; the paper's threshold genus_threshold_min(r), about
4(r+1)^(5/2), stays as that end's upper check.

Three choices of the s-range are supported.  MAXIMAL compares against the
ranks s <= r_max_expected(g) (the default).  PAPER uses the smaller bound
s <= floor(sqrt(g) - 1/2).  LEMMA uses the coarser bound s <= ceil(sqrt(g)-1),
which additionally includes, for g just above a square, a top rank whose
maximal-degree locus has d > g - 1 and is Serre-dual to a lower-rank one;
published tables of exceptional genera include those duplicate comparisons,
so reproducing them requires LEMMA (see the README).
"""

from __future__ import annotations

from enum import Enum
from math import isqrt
from typing import NamedTuple

from . import bn_core
from .bn_core import BNLocus, KappaResult
from .errors import DomainError, InternalError
from .exact_arith import Surd, floor_neg_2sqrt, surd_sign

__all__ = [
    "SRange",
    "MaximalLocusRecord",
    "d_max",
    "r_max_expected",
    "is_expected_maximal",
    "enumerate_expected_maximal",
    "kappa_at_dmax",
    "kappa_bounds",
    "f_criterion",
    "genus_threshold_holds",
    "genus_threshold_min",
    "scan_end",
    "ineq_holds_all_s",
    "compute_G",
    "exceptional_genera",
    "min_genus_for_rank",
]


class SRange(Enum):
    """Which ranks s > r to compare against in the kappa inequality."""

    MAXIMAL = "maximal"  # s <= r_max_expected(g)
    PAPER = "paper"      # s <= floor(sqrt(g) - 1/2)
    LEMMA = "lemma"      # s <= ceil(sqrt(g) - 1)


class MaximalLocusRecord(NamedTuple):
    """An expected maximal locus with its rho and kappa, read from its memo.

    kappa_bounds(g, r) gives the locus' kappa bracket.
    """

    locus: BNLocus
    rho: int
    kappa: KappaResult


def d_max(g: int, r: int) -> int:
    """Largest degree d with rho(g, r, d) < 0: g + r - 1 - floor(g/(r+1)).

    rho(g, r, d) < 0 means (r+1)(g - d + r) > g, that is g - d + r >= the
    least integer above g/(r+1), which is floor(g/(r+1)) + 1.
    """
    if g < 2 or r < 1:
        raise DomainError(f"d_max requires g >= 2 and r >= 1, got ({g}, {r})")
    return g + r - 1 - g // (r + 1)


def r_max_expected(g: int) -> int:
    """Largest rank admitting an expected maximal locus at genus g.

    Equals ceil(sqrt(g) - 1) when g >= floor(sqrt(g))^2 + floor(sqrt(g)),
    and floor(sqrt(g) - 1) otherwise; both collapse to a single isqrt test.
    """
    if g < 3:
        raise DomainError(f"r_max_expected requires g >= 3, got {g}")
    s = isqrt(g)
    return s if g >= s * (s + 1) else s - 1


def is_expected_maximal(g: int, r: int, d: int) -> bool:
    """True iff (g, r, d) is a proper locus not trivially contained in one.

    Requires 2r <= d <= g - 1 and rho < 0, with both one-step specialization
    targets already improper: rho(g, r, d+1) >= 0 and rho(g, r-1, d-1) >= 0.
    """
    if g < 3 or r < 1:
        raise DomainError(f"is_expected_maximal requires g >= 3, r >= 1, got ({g}, {r})")
    if not (2 * r <= d <= g - 1):
        return False
    return (
        bn_core.rho(g, r, d) < 0
        and bn_core.rho(g, r, d + 1) >= 0
        and bn_core.rho(g, r - 1, d - 1) >= 0
    )


def kappa_at_dmax(g: int, r: int) -> int:
    """kappa at the maximal degree, in closed form:

        floor(g/(r+1)) + r + 2 + floor(-2*sqrt(r + 1 - (g mod (r+1))))

    The square root's argument is -rho(g, r, d_max(g, r)) = r + 1 - (g mod
    (r+1)), in [1, r+1].  At r = 1 this is ceil(g/2), the general gonality.
    """
    if g < 3 or r < 1:
        raise DomainError(f"kappa_at_dmax requires g >= 3 and r >= 1, got ({g}, {r})")
    return g // (r + 1) + r + 2 + floor_neg_2sqrt(r + 1 - g % (r + 1))


def kappa_bounds(g: int, r: int) -> tuple[Surd, Surd]:
    """Exact bracket  g/(r+1) + r - 2*sqrt(r+1)  <  kappa  <=  g/(r+1) + r.

    Returned as (exclusive lower, inclusive upper), both over denominator
    r + 1 so callers can compare against integers via Surd.sign.
    """
    if g < 3 or r < 1:
        raise DomainError(f"kappa_bounds requires g >= 3 and r >= 1, got ({g}, {r})")
    a = g + r * (r + 1)
    lower = Surd(a, -2 * (r + 1), r + 1, r + 1)
    upper = Surd(a, 0, 0, r + 1)
    return lower, upper


def enumerate_expected_maximal(g: int) -> list[MaximalLocusRecord]:
    """All expected maximal loci at genus g, one per rank 1..r_max_expected(g).

    The boundary of the rank range is checked against is_expected_maximal:
    it must hold at r_max_expected(g) and fail one rank above.  The full scan
    over every r <= g is the oracle of the tests and of `selftest`.
    """
    if g < 3:
        raise DomainError(f"enumerate_expected_maximal requires g >= 3, got {g}")
    top = r_max_expected(g)
    if not is_expected_maximal(g, top, d_max(g, top)) or is_expected_maximal(
        g, top + 1, d_max(g, top + 1)
    ):
        raise InternalError(f"rank range at g={g} does not end at r_max_expected = {top}")
    records = []
    for r in range(1, top + 1):
        locus = BNLocus(g, r, d_max(g, r))
        records.append(
            MaximalLocusRecord(
                locus=locus,
                rho=locus.rho,
                kappa=locus.kappa,  # memoized on the locus: a report's pairs share it
            )
        )
    return records


def f_criterion(g: int, r: int, delta: int) -> bool:
    """Sufficient criterion for a kappa gap between ranks r and r + delta.

    Evaluates the sign of f = A + B*sqrt(r+1) with

        A = (r+1)*delta^2 + ((r+1)^2 - g) * delta,
        B = 2*(r+1)*delta + 2*(r+1)^2,

    exactly; f <= 0 guarantees kappa_at_dmax(g, r) > kappa_at_dmax(g, r+delta).
    """
    if r < 1 or delta < 1:
        raise DomainError(f"f_criterion requires r >= 1 and delta >= 1, got ({r}, {delta})")
    n = r + 1
    a = n * delta * delta + (n * n - g) * delta
    b = 2 * n * delta + 2 * n * n
    return surd_sign(a, b, n) <= 0


def genus_threshold_holds(g: int, r: int) -> bool:
    """True iff g >= 4(r+1)^(5/2) + (r+1)^2 + 2(r+1)^(3/2), decided exactly.

    With t = g - (r+1)^2 and c = 4(r+1)^2 + 2(r+1) the condition is
    t - c*sqrt(r+1) >= 0, i.e. t >= 0 and t^2 >= c^2 (r+1).
    """
    if r < 1:
        raise DomainError(f"genus_threshold_holds requires r >= 1, got {r}")
    n = r + 1
    t = g - n * n
    c = 4 * n * n + 2 * n
    return t >= 0 and surd_sign(t, -c, n) >= 0


def genus_threshold_min(r: int) -> int:
    """Smallest genus satisfying genus_threshold_holds(., r).

    The closed form is checked at its boundary: genus_threshold_holds must
    hold at the result and fail one genus below.
    """
    if r < 1:
        raise DomainError(f"genus_threshold_min requires r >= 1, got {r}")
    n = r + 1
    c = 4 * n * n + 2 * n
    t = isqrt(c * c * n)
    if t * t < c * c * n:
        t += 1
    gmin = n * n + t
    if not genus_threshold_holds(gmin, r) or genus_threshold_holds(gmin - 1, r):
        raise InternalError(f"genus threshold for r={r} does not start at {gmin}")
    return gmin


def _lower_bound_clears_2sqrt_g(g: int, r: int) -> bool:
    """True iff g/(r+1) + r - 2*sqrt(r+1) >= 2*sqrt(g) + 1, decided exactly.

    With n = r + 1 and P = g + n(n-2), n times the difference is
    A - 2n*sqrt(g) with A = P - 2n*sqrt(n); it is >= 0 iff A >= 0 and
    A^2 = P^2 + 4n^3 - 4nP*sqrt(n) >= 4n^2 g.
    """
    n = r + 1
    p = g + n * (n - 2)
    return surd_sign(p, -2 * n, n) >= 0 and surd_sign(
        p * p + 4 * n**3 - 4 * n * n * g, -4 * n * p, n
    ) >= 0


def scan_end(r: int) -> int:
    """A genus S(r) from which the kappa inequality holds for rank r, proven.

    With n = r + 1, S(r) = n(n+1) + ceil(sqrt(4 n^3 (n+1)^2)), the least
    integer g >= n(n+1)(1 + 2*sqrt(n)), about 2 n^(5/2).  For every
    g >= S(r) and every s-range, ineq_holds_all_s(g, r, s_range) holds:

    1. kappa_at_dmax(g, r) > L(g) = g/n + r - 2*sqrt(n), and
       kappa_at_dmax(g, s) <= U(s) = g/(s+1) + s for every s (kappa_bounds).
       U is convex in s, so L >= U at s = r + 1 and at s = B, the top of the
       s-range, gives kappa(r) > L >= U(s) >= kappa(s) for all r < s <= B.
    2. The end s = r + 1.  L >= U(r+1) reads g/(n(n+1)) >= 1 + 2*sqrt(n),
       that is g >= n(n+1)(1 + 2*sqrt(n)): it holds from S(r) on.
    3. The end s = B.  Each s-range has sqrt(g) - 1/2 < B + 1 and
       B <= sqrt(g).  With x = B + 1, U(B) = 2*sqrt(g) - 1 + (x - sqrt(g))^2/x,
       and (x - sqrt(g))^2 <= 1 < x for g >= 3, so U(B) < 2*sqrt(g) + 1.
       The inequality L(g) >= 2*sqrt(g) + 1 holds at S(r), decided by surd
       signs, and keeps holding for larger g, because g/n - 2*sqrt(g)
       increases once g > n^2, and S(r) > n^2.

    The closed form is checked at its boundary: step 2's condition must hold
    at S(r) and fail one genus below, step 3's must hold at S(r), and S(r)
    may not exceed the paper's genus_threshold_min(r).  Step 3 fails at
    r = 1 (S(1) = 23), hence the domain r >= 2.
    """
    if r < 2:
        raise DomainError(f"scan_end requires r >= 2, got {r}")
    n = r + 1
    m = n * (n + 1)
    root = isqrt(4 * n * m * m)
    end = m + root + (root * root < 4 * n * m * m)
    if (
        surd_sign(end - m, -2 * m, n) < 0
        or surd_sign(end - 1 - m, -2 * m, n) >= 0
        or not _lower_bound_clears_2sqrt_g(end, r)
        or end > genus_threshold_min(r)
    ):
        raise InternalError(f"scan end for r={r} does not hold at {end}")
    return end


def _paper_s_bound(g: int) -> int:
    # floor(sqrt(g) - 1/2): the largest s with (2s+1)^2 <= 4g.
    return (isqrt(4 * g) - 1) // 2


def _lemma_s_bound(g: int) -> int:
    # ceil(sqrt(g) - 1) = ceil(sqrt(g)) - 1.
    s = isqrt(g)
    return s - 1 if s * s == g else s


def _s_bound(g: int, s_range: SRange) -> int:
    if s_range is SRange.MAXIMAL:
        return r_max_expected(g)
    if s_range is SRange.PAPER:
        return _paper_s_bound(g)
    return _lemma_s_bound(g)


def ineq_holds_all_s(g: int, r: int, s_range: SRange = SRange.MAXIMAL) -> bool:
    """True iff kappa_at_dmax(g, r) > kappa_at_dmax(g, s) for every s in range.

    The range is r < s <= B(g) with B given by `s_range`; an empty range
    holds vacuously.

    The ranks are pruned with kappa's inclusive upper bound
    kappa_at_dmax(g, s) <= g/(s+1) + s (the upper end of `kappa_bounds`),
    which holds for every s >= 1.  The bound is convex in s, so once
    kappa_at_dmax(g, r) exceeds it at both ends of [s, B] it exceeds kappa at
    every rank between, and the inequality holds.  Exact kappa is computed
    only for the close ranks below that point.
    """
    if g < 3 or r < 1:
        raise DomainError(f"ineq_holds_all_s requires g >= 3 and r >= 1, got ({g}, {r})")
    kr = kappa_at_dmax(g, r)
    top = _s_bound(g, s_range)
    # kr > g/(s+1) + s, cleared of its denominator
    beats_top = kr * (top + 1) > g + top * (top + 1)
    for s in range(r + 1, top + 1):
        if beats_top and kr * (s + 1) > g + s * (s + 1):
            return True
        if kr <= kappa_at_dmax(g, s):
            return False
    return True


def min_genus_for_rank(r: int) -> int:
    """Smallest genus at which rank r admits an expected maximal locus.

    r_max_expected(g) >= r exactly when g >= r(r+1), and genera start at 3.
    """
    if r < 1:
        raise DomainError(f"min_genus_for_rank requires r >= 1, got {r}")
    return max(3, r * (r + 1))


def compute_G(r: int, s_range: SRange = SRange.MAXIMAL) -> int:
    """Smallest genus from which the kappa inequality holds for rank r.

    One more than the largest exceptional genus, or the first genus where
    rank r is expected maximal if there is none.  It lies at most at
    scan_end(r).
    """
    genera = exceptional_genera(r, s_range)
    return genera[-1] + 1 if genera else min_genus_for_rank(r)


def exceptional_genera(r: int, s_range: SRange = SRange.MAXIMAL) -> list[int]:
    """All genera where the kappa inequality fails for rank r, in order.

    Scans every genus from the first where rank r is expected maximal,
    min_genus_for_rank(r), up to scan_end(r), from which the inequality is
    proven to hold.
    """
    if r < 2:
        raise DomainError(f"exceptional_genera requires r >= 2, got {r}")
    return [
        g
        for g in range(min_genus_for_rank(r), scan_end(r) + 1)
        if not ineq_holds_all_s(g, r, s_range)
    ]
