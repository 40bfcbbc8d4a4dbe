"""The built-in consistency suites behind `selftest`."""

from decimal import getcontext, localcontext

from bnkappa.selfcheck import suite_exact_arithmetic


def test_exact_arithmetic_suite_leaves_decimal_precision_alone():
    with localcontext() as ctx:
        ctx.prec = 17
        result = suite_exact_arithmetic()
        assert getcontext().prec == 17
    assert result.passed > 0 and result.failed == 0

