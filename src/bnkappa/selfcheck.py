"""Built-in consistency suites behind the `selftest` CLI command.

Each suite re-derives a family of values two independent ways and counts
agreements; any disagreement is a bug.  These deliberately overlap with the
pytest suite so a deployed installation can be smoke-checked without a test
harness present.
"""

from __future__ import annotations

import random
from decimal import Decimal, localcontext
from typing import Optional

from . import bn_core, maximal_loci
from .exact_arith import floor_neg_2sqrt, surd_sign


class SuiteResult:
    """One suite's counts and its first few failure details; check() adds to them."""

    def __init__(
        self, name: str, passed: int = 0, failed: int = 0, failures: Optional[list[str]] = None
    ) -> None:
        self.name, self.passed, self.failed = name, passed, failed
        self.failures = [] if failures is None else failures

    def check(self, ok: bool, detail: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < 8:
                self.failures.append(detail)


def suite_exact_arithmetic() -> SuiteResult:
    res = SuiteResult("exact-arithmetic")
    # linear-search oracle for ceil(2*sqrt(n)), which never falls as n grows,
    # so m counts up once over the whole range
    m = 0
    for n in range(1, 5_000):
        while m * m < 4 * n:
            m += 1
        res.check(floor_neg_2sqrt(n) == -m, f"floor_neg_2sqrt({n}) != {-m}")
    with localcontext() as ctx:
        ctx.prec = 60
        rng = random.Random(20260815)
        for _ in range(2_000):
            a = rng.randint(-(10**6), 10**6)
            b = rng.randint(-(10**6), 10**6)
            m = rng.randint(0, 10**3)
            numeric = Decimal(a) + Decimal(b) * Decimal(m).sqrt()
            # 60 digits decide the sign: the root of a square is exact, and a
            # non-zero surd is at least 1/(|a| + |b|*sqrt(m)), about 3e-8, from 0
            want = (numeric > 0) - (numeric < 0)
            res.check(
                surd_sign(a, b, m) == want,
                f"surd_sign({a},{b},{m}) != numeric sign {want}",
            )
    return res


def suite_kappa_oracle(gmax: int) -> SuiteResult:
    res = SuiteResult("kappa-oracle-equivalence")
    for g in range(3, gmax + 1):
        for r in range(1, g // 2 + 1):
            for d in range(2 * r, g):
                if bn_core.rho(g, r, d) >= 0:
                    continue
                closed = bn_core.kappa(g, r, d)
                brute = bn_core.kappa_brute(g, r, d)
                res.check(
                    closed.value == brute.value,
                    f"closed {closed.value} != brute {brute.value} at ({g},{r},{d})",
                )
    return res


def suite_maximal_degree(gmax: int) -> SuiteResult:
    res = SuiteResult("maximal-degree-formulas")
    for g in range(3, gmax + 1):
        top = maximal_loci.r_max_expected(g)
        scanned = [
            r for r in range(1, g + 1)
            if maximal_loci.is_expected_maximal(g, r, maximal_loci.d_max(g, r))
        ]
        res.check(
            scanned == list(range(1, top + 1)),
            f"expected maximal ranks at g={g} are {scanned}, not 1..{top}",
        )
        for r in range(1, top + 1):
            d = maximal_loci.d_max(g, r)
            res.check(
                bn_core.rho(g, r, d) < 0 <= bn_core.rho(g, r, d + 1),
                f"d_max({g},{r}) = {d} is not the last degree with rho < 0",
            )
            res.check(
                bn_core.rho(g, r, d) == -(r + 1 - g % (r + 1)),
                f"rho at d_max({g},{r}) is not -(r + 1 - g mod (r+1))",
            )
            res.check(
                maximal_loci.kappa_at_dmax(g, r) == bn_core.kappa(g, r, d).value,
                f"kappa_at_dmax({g},{r}) != kappa",
            )
    return res


def suite_kappa_bounds(gmax: int) -> SuiteResult:
    res = SuiteResult("kappa-bounds")
    for g in range(3, gmax + 1):
        for r in range(1, maximal_loci.r_max_expected(g) + 1):
            k = maximal_loci.kappa_at_dmax(g, r)
            lower, upper = maximal_loci.kappa_bounds(g, r)
            res.check(
                lower.minus_int(k).sign() < 0 <= upper.minus_int(k).sign(),
                f"kappa {k} outside bounds at ({g},{r})",
            )
    return res


def suite_certificates(gmax: int) -> SuiteResult:
    from . import certificates

    res = SuiteResult("certificate-reverification")
    example = None
    for g in range(4, gmax + 1):
        report = certificates.genus_report(g, ledger=None)
        for pair in report.pairs:
            cert = pair.status.certificate
            if cert is None:
                continue
            res.check(cert.verify(), f"certificate fails to re-verify: {cert}")
            example = example or cert
    if example is not None:
        corrupt = certificates.NonContainmentCertificate(
            example.source,
            example.target,
            example.rule,
            {**example.witness, next(iter(example.witness)): 10**6},
        )
        res.check(not corrupt.verify(), "corrupted witness still verifies")
    return res


def run_all(gmax: int) -> list[SuiteResult]:
    """Every suite; each genus sweep covers exactly the genera up to gmax."""
    return [
        suite_exact_arithmetic(),
        suite_kappa_oracle(gmax),
        suite_maximal_degree(gmax),
        suite_kappa_bounds(gmax),
        suite_certificates(gmax),
    ]


def render(results: list[SuiteResult]) -> tuple[str, bool]:
    """Human-readable summary and overall pass flag.

    A suite passes only if it ran at least one check and none failed.
    """
    lines = []
    ok = True
    for r in results:
        passed = r.passed > 0 and r.failed == 0
        status = "PASS" if passed else "FAIL"
        ok = ok and passed
        lines.append(f"{status}  {r.name}: {r.passed} passed, {r.failed} failed")
        lines.extend(f"      {msg}" for msg in r.failures)
    total_pass = sum(r.passed for r in results)
    total_fail = sum(r.failed for r in results)
    lines.append(f"total: {total_pass} passed, {total_fail} failed")
    return "\n".join(lines), ok

