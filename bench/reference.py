"""Brill-Noether numerology written from the definitions, apart from bnkappa.

The benchmark checks the program's outputs against these functions, so they
import nothing from the package.  They favour the plain definition over
speed, with one shortcut: kappa bisects over k instead of scanning every k,
which is sound because rho_k never increases as k grows.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from pathlib import Path


def rho(g: int, r: int, d: int) -> int:
    """Brill-Noether number g - (r+1)(g-d+r)."""
    return g - (r + 1) * (g - d + r)


def gamma(r: int, d: int) -> int:
    """Clifford index d - 2r."""
    return d - 2 * r


def ceil_2sqrt(n: int) -> int:
    """ceil(2*sqrt(n)) for n >= 0."""
    m = math.isqrt(4 * n)
    return m if m * m == 4 * n else m + 1


def rho_k(g: int, r: int, d: int, k: int) -> int:
    """Pflueger's k-gonal rho: max of rho(g, r-l, d) - l*k over 0 <= l <= min(r, g-d+r-1)."""
    top = max(0, min(r, g - d + r - 1))
    return max(rho(g, r - l, d) - l * k for l in range(top + 1))


def kappa(g: int, r: int, d: int) -> int:
    """Largest k in [2, floor((g+3)/2)] with rho_k(g, r, d, k) >= 0.

    Every term of rho_k falls as k grows, so the qualifying k form an
    initial segment of the range and bisection finds its last element.
    """
    lo, hi = 2, (g + 3) // 2
    if rho(g, r, d) >= 0 or rho_k(g, r, d, lo) < 0:
        raise ValueError(f"kappa undefined at ({g}, {r}, {d})")
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if rho_k(g, r, d, mid) >= 0:
            lo = mid
        else:
            hi = mid - 1
    return lo


def d_max(g: int, r: int) -> int:
    """Largest d with rho(g, r, d) < 0, i.e. with g - d + r > g/(r+1)."""
    return g + r - 1 - g // (r + 1)


def expected_maximal(g: int) -> list[tuple[int, int]]:
    """(r, d) of every proper locus with 2r <= d <= g-1 whose trivial steps are not proper.

    The steps are adding a base point, (r, d+1), and removing a point,
    (r-1, d-1); both must have rho >= 0, which forces d = d_max(g, r).
    """
    out = []
    r = 1
    while (d := d_max(g, r)) <= g - 1:
        if 2 * r <= d and rho(g, r, d + 1) >= 0 and rho(g, r - 1, d - 1) >= 0:
            out.append((r, d))
        r += 1
    return out


def r_max(g: int) -> int:
    loci = expected_maximal(g)
    return loci[-1][0] if loci else 0


def s_bound(g: int, s_range: str) -> int:
    """Top competitor rank s for the kappa inequality under each s-range."""
    if s_range == "maximal":
        return r_max(g)
    if s_range == "paper":  # floor(sqrt(g) - 1/2): largest s with (2s+1)^2 <= 4g
        return (math.isqrt(4 * g) - 1) // 2
    s = math.isqrt(g)  # lemma: ceil(sqrt(g)) - 1
    return s - 1 if s * s == g else s


@lru_cache(maxsize=None)
def kappa_at_dmax(g: int, r: int) -> int:
    # cached: the scans compare the same (g, r) for many ranks and s-ranges
    return kappa(g, r, d_max(g, r))


def ineq_holds(g: int, r: int, s_range: str = "maximal") -> bool:
    """kappa(g, r, d_max) > kappa(g, s, d_max) for every r < s <= s_bound."""
    kr = kappa_at_dmax(g, r)
    return all(kr > kappa_at_dmax(g, s) for s in range(r + 1, s_bound(g, s_range) + 1))


def min_genus(r: int) -> int:
    """Smallest genus with an expected maximal locus of rank r."""
    g = 3
    while r_max(g) < r:
        g += 1
    return g


def threshold_genus(r: int) -> int:
    """Smallest g >= 4(r+1)^(5/2) + (r+1)^2 + 2(r+1)^(3/2), where the scans stop."""
    n = r + 1
    c = 4 * n * n + 2 * n
    return n * n + math.isqrt(c * c * n - 1) + 1


@lru_cache(maxsize=None)
def scan_range(r: int) -> range:
    """The genera a G(r) or exceptional-genera scan of rank r must test."""
    return range(min_genus(r), threshold_genus(r) + 1)


def exceptional(r: int, s_range: str) -> list[int]:
    return [g for g in scan_range(r) if not ineq_holds(g, r, s_range)]


def trivial_targets(g: int, source: tuple[int, int], targets) -> set[tuple[int, int]]:
    """The members of targets that (g, *source) reaches by trivial steps.

    A step adds a base point, (r, d) -> (r, d+1) while d+1 <= 2g-2, or
    removes a point, (r, d) -> (r-1, d-1) while that locus is proper.
    Reaching (s, e) from (r, d) takes r-s removals and so needs
    d - r <= e - s; a removal keeps d - r and an addition raises it, so
    the walk never leaves d - r <= max(e - s).
    """
    targets = set(targets) - {source}
    if not targets:
        return set()
    cap = max(e - s for s, e in targets)
    seen = set()
    frontier = [source]
    while frontier:
        r, d = frontier.pop()
        if d - r > cap:
            continue
        steps = []
        if d + 1 <= 2 * g - 2:
            steps.append((r, d + 1))
        if r >= 2 and rho(g, r - 1, d - 1) < 0:
            steps.append((r - 1, d - 1))
        for node in steps:
            if node not in seen:
                seen.add(node)
                frontier.append(node)
    return seen & targets


def load_ledger(path: Path) -> dict:
    """{(g, (r, d), (s, e)): cite} from a JSON array of ledger entries."""
    entries = json.loads(Path(path).read_text(encoding="utf-8"))
    return {
        (e["g"], tuple(e["source"]), tuple(e["target"])): e["cite"] for e in entries
    }


def certificate(g, source, target, ledger, allow_flip=True):
    """(rule, witness) of the first rule that rules out source in target, or None.

    Rules are tried in the method's fixed order; the flip applies to two
    rho = -1 loci once the reverse direction is settled without a flip.
    """
    (r, d), (s, e) = source, target
    ks, kt = kappa(g, r, d), kappa(g, s, e)
    if ks > kt:
        return "kappa-gap", {"kappa_source": ks, "kappa_target": kt}
    rs, rt = rho(g, r, d), rho(g, s, e)
    if -rs < -rt <= 3:
        return "dimension", {"rho_source": rs, "rho_target": rt}
    gap = ceil_2sqrt(-rs) - 2
    if rt == -1 and r >= 2 and g + 1 <= d // r + d and gamma(s, e) > gamma(r, d) + gap:
        witness = {"gamma_source": gamma(r, d), "gamma_target": gamma(s, e), "clifford_gap": gap}
        return "divisor-criterion", witness
    if allow_flip and rs == rt == -1:
        reverse = certificate(g, target, source, ledger, allow_flip=False)
        if reverse is not None:
            return "equidimensional-flip", {"reverse_rule": reverse[0], "rho": -1}
    cite = (ledger or {}).get((g, source, target))
    if cite is not None:
        return "external", {"cite": cite}
    return None
