"""The built-in consistency suites behind `selftest`."""

from decimal import getcontext, localcontext

from bnkappa.selfcheck import (
    run_all,
    suite_exact_arithmetic,
    suite_kappa_bounds,
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
