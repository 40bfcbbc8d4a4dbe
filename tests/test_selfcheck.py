"""The built-in consistency suites behind `selftest`."""

from decimal import getcontext, localcontext

from bnkappa import bn_core
from bnkappa.bn_core import KappaBranch, rho
from bnkappa.selfcheck import (
    run_all,
    suite_exact_arithmetic,
    suite_kappa_bounds,
    suite_kappa_oracle,
    suite_maximal_degree,
)


def _counts(results):
    return {r.name: (r.passed, r.failed) for r in results}


def test_exact_arithmetic_suite_leaves_decimal_precision_alone():
    with localcontext() as ctx:
        ctx.prec = 17
        result = suite_exact_arithmetic()
        assert getcontext().prec == 17
    assert result.passed > 0 and result.failed == 0



def test_run_all_sweeps_the_degree_suites_up_to_gmax():
    counts = _counts(run_all(10))
    for suite in (suite_maximal_degree(10), suite_kappa_bounds(10)):
        assert counts[suite.name] == (suite.passed, 0)


def test_run_all_certifies_genera_above_30():
    assert (
        _counts(run_all(40))["certificate-reverification"][0]
        > _counts(run_all(30))["certificate-reverification"][0]
    )


def test_exact_arithmetic_suite_runs_one_check_per_case():
    # floor_neg_2sqrt on n = 1..4,999 and surd_sign on 2,000 random surds
    result = suite_exact_arithmetic()
    assert (result.passed, result.failed) == (6_999, 0)


def test_kappa_oracle_suite_checks_every_triple_of_kappa_brutes_domain(monkeypatch):
    # d runs up to g + r - 1, so kappa's Serre-dual branch is checked too
    seen = []
    original = bn_core.kappa

    def spy(g, r, d):
        result = original(g, r, d)
        seen.append(((g, r, d), result.branch))
        return result

    monkeypatch.setattr(bn_core, "kappa", spy)
    result = suite_kappa_oracle(30)
    want = [
        (g, r, d)
        for g in range(2, 31)
        for r in range(1, g)
        for d in range(2 * r, g + r)
        if rho(g, r, d) < 0
    ]
    assert [triple for triple, _ in seen] == want
    assert (result.passed, result.failed) == (len(want), 0)
    assert {branch for _, branch in seen} == {
        KappaBranch.CLOSED_FIRST_CASE,
        KappaBranch.CLOSED_SECOND_CASE,
        KappaBranch.SERRE_DUAL_REDUCTION,
    }
    assert (suite_kappa_oracle(10).passed, suite_kappa_oracle(60).passed) == (93, 30_799)
