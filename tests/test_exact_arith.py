"""Exact-arithmetic layer: the sqrt-floor helper and surd signs."""

import random
from decimal import Decimal, localcontext
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bnkappa.errors import DomainError
from bnkappa.exact_arith import floor_neg_2sqrt, surd_sign


def _is_ceil_2sqrt(m, n):
    # m = ceil(2*sqrt(n)) iff (m-1)^2 < 4n <= m^2, for m >= 1
    return m >= 1 and (m - 1) * (m - 1) < 4 * n <= m * m


def test_floor_neg_2sqrt_ceiling_property_exhaustive_range():
    for n in range(1, 100_000):
        assert _is_ceil_2sqrt(-floor_neg_2sqrt(n), n), n


def test_floor_neg_2sqrt_ceiling_property_large_strided():
    for n in range(1, 10**6 + 1, 997):
        assert _is_ceil_2sqrt(-floor_neg_2sqrt(n), n), n


@given(st.integers(min_value=1, max_value=10**18))
def test_floor_neg_2sqrt_ceiling_property_random(n):
    assert _is_ceil_2sqrt(-floor_neg_2sqrt(n), n)


def test_floor_neg_2sqrt_frozen():
    # floor(-2*sqrt(n)) for n = 1..5: -2, -3, -4, -4, -5
    assert [floor_neg_2sqrt(n) for n in range(1, 6)] == [-2, -3, -4, -4, -5]


def test_floor_neg_2sqrt_matches_linear_search_oracle():
    # oracle: ceil(2*sqrt(n)) is the least m with m*m >= 4n, found by counting up
    for n in range(1, 3_000):
        m = 0
        while m * m < 4 * n:
            m += 1
        assert floor_neg_2sqrt(n) == -m


def test_floor_neg_2sqrt_rejects_nonpositive():
    with pytest.raises(DomainError):
        floor_neg_2sqrt(0)


def test_sqrt_floor_lemma():
    # floor(-2*sqrt(n)) = -ceil(sqrt(4n)) = -ceil(sqrt(4n-1)): 4n-1 is never
    # a perfect square, so its ceiling is isqrt(4n-1) + 1
    for n in range(1, 100_001):
        b = isqrt(4 * n - 1)
        assert b * b != 4 * n - 1
        assert floor_neg_2sqrt(n) == -(b + 1)


def test_surd_sign_frozen_cases():
    assert surd_sign(-8, 24, 3) == 1  # 24*sqrt(3) ~ 41.6 > 8
    assert surd_sign(-42, 24, 3) == -1  # 24*sqrt(3) ~ 41.6 < 42
    assert surd_sign(0, 0, 5) == 0
    assert surd_sign(-6, 2, 9) == 0  # 2*sqrt(9) = 6 exactly
    assert surd_sign(7, 0, 11) == 1
    assert surd_sign(0, -3, 2) == -1
    assert surd_sign(5, 1, 0) == 1


def test_surd_sign_and_minus_int():
    # (32 - 8*sqrt(4))/4 = 4; subtracting k shifts the rational part by 4k
    a, b, m, d = 32, -8, 4, 4
    assert surd_sign(a, b, m) == 1
    assert surd_sign(a - 4 * d, b, m) == 0
    assert surd_sign(a - 5 * d, b, m) == -1
    assert (a + b * m**0.5) / d == pytest.approx(4.0)


def test_surd_sign_rejects_negative_radicand():
    with pytest.raises(DomainError):
        surd_sign(1, 1, -1)


def test_surd_sign_against_high_precision_numeric():
    # 10^4 random triples vs a 60-digit Decimal evaluation; exact zeros are
    # recognized by the cross-multiplied condition a^2 = b^2 m with a, b of
    # opposite sign and are asserted separately.
    rng = random.Random(421731)
    with localcontext() as ctx:
        ctx.prec = 60
        for _ in range(10_000):
            a = rng.randint(-(10**6), 10**6)
            b = rng.randint(-(10**6), 10**6)
            m = rng.randint(0, 10**3)
            got = surd_sign(a, b, m)
            if a * a == b * b * m and a * b <= 0:
                assert got == 0
                continue
            numeric = Decimal(a) + Decimal(b) * Decimal(m).sqrt()
            assert got == (1 if numeric > 0 else -1), (a, b, m)
    # exact zeros are rare under random sampling; pin the branch explicitly
    assert surd_sign(-10, 5, 4) == 0


@given(
    st.integers(min_value=-(10**9), max_value=10**9),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.integers(min_value=0, max_value=10**6),
)
def test_surd_sign_antisymmetry(a, b, m):
    assert surd_sign(-a, -b, m) == -surd_sign(a, b, m)

