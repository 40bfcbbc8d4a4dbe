"""Extremal loci: maximal degrees, kappa there, and the rank-ordering scan."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnkappa.bn_core import BNLocus, kappa, kappa_brute, rho
from bnkappa import maximal_loci
from bnkappa.errors import DomainError, InternalError
from bnkappa.maximal_loci import (
    SRange,
    compute_G,
    d_max,
    enumerate_expected_maximal,
    exceptional_genera,
    f_criterion,
    genus_threshold_holds,
    genus_threshold_min,
    ineq_holds_all_s,
    is_expected_maximal,
    kappa_at_dmax,
    kappa_bounds,
    min_genus_for_rank,
    r_max_expected,
    rho_at_dmax,
)

# Published failure sets for the rank ordering, r = 2, 3, 4 (Auel-Haburcak
# 2022).  Reproducing them requires comparing against every rank s up to
# ceil(sqrt(g)) - 1, i.e. SRange.LEMMA; see the module docstring.
PUBLISHED_EXCEPTIONAL = {
    2: [10, 11, 12, 15, 18, 19, 24, 27],
    3: [17, 18, 19, 21, 24, 28, 29, 33, 34, 41, 44, 49],
    4: [26, 27, 28, 29, 30, 32, 35, 40, 41, 45, 46, 47, 48, 50,
        52, 53, 55, 62, 65, 70, 71, 77, 95],
}

G_TABLE = {2: 28, 3: 50, 4: 96, 5: 140, 6: 232, 7: 306, 8: 390, 9: 561, 10: 684}


# ---------------------------------------------------------------------------
# d_max / r_max_expected / is_expected_maximal


def test_d_max_frozen():
    assert d_max(20, 1) == 10
    assert d_max(20, 2) == 15
    assert d_max(20, 3) == 17
    assert d_max(20, 4) == 19
    assert d_max(21, 3) == 18
    assert d_max(4, 1) == 2


def test_d_max_is_the_largest_negative_rho_degree():
    for g in range(3, 120):
        for r in range(1, 12):
            d = d_max(g, r)
            assert rho(g, r, d) < 0 <= rho(g, r, d + 1), (g, r)


@given(st.integers(min_value=2, max_value=10**9), st.integers(min_value=1, max_value=10**4))
@settings(max_examples=200)
def test_d_max_definitional_property(g, r):
    d = d_max(g, r)
    assert rho(g, r, d) < 0 <= rho(g, r, d + 1)


def test_r_max_expected_frozen():
    assert r_max_expected(12) == 3
    assert r_max_expected(20) == 4
    assert r_max_expected(25) == 4
    assert r_max_expected(30) == 5
    assert r_max_expected(96) == 9


def test_r_max_expected_matches_scan():
    # the full-scan oracle behind enumerate_expected_maximal's boundary check
    for g in range(3, 3001):
        expected = [r for r in range(1, g + 1) if is_expected_maximal(g, r, d_max(g, r))]
        assert expected == list(range(1, r_max_expected(g) + 1)), g


def test_is_expected_maximal_frozen():
    assert is_expected_maximal(20, 3, 17)
    assert is_expected_maximal(20, 4, 19)
    assert not is_expected_maximal(20, 3, 16)  # degree bump stays proper
    assert not is_expected_maximal(20, 5, 21)  # out of the d <= g-1 range
    assert not is_expected_maximal(20, 1, 12)  # rho >= 0


# ---------------------------------------------------------------------------
# invariants at the maximal degree


def test_rho_at_dmax_frozen_and_agrees_with_rho():
    assert [rho_at_dmax(20, r) for r in range(1, 5)] == [-2, -1, -4, -5]
    for g in range(3, 400):
        for r in range(1, 25):
            assert rho_at_dmax(g, r) == rho(g, r, d_max(g, r)), (g, r)


def test_rho_at_dmax_range():
    for g in range(3, 300):
        for r in range(1, 20):
            assert -(r + 1) <= rho_at_dmax(g, r) <= -1


def test_kappa_at_dmax_frozen():
    assert [kappa_at_dmax(20, r) for r in range(1, 5)] == [10, 8, 6, 5]
    assert [kappa_at_dmax(96, r) for r in range(1, 10)] == [48, 32, 25, 21, 18, 18, 15, 16, 16]
    assert kappa_at_dmax(21, 1) == 11


def test_kappa_at_dmax_agrees_with_both_routes():
    # ranks up to the lemma s-range's top, whose d_max can exceed g - 1
    for g in range(3, 200):
        for r in range(1, max(r_max_expected(g), maximal_loci._lemma_s_bound(g)) + 1):
            d = d_max(g, r)
            closed = kappa_at_dmax(g, r)
            assert closed == kappa(g, r, d).value, (g, r)
            if g <= 90:
                assert closed == kappa_brute(g, r, d).value, (g, r)


def test_kappa_bounds_frozen():
    lower, upper = kappa_bounds(20, 2)
    assert (lower.a, lower.b, lower.m, lower.q) == (26, -6, 3, 3)
    assert (upper.a, upper.b, upper.m, upper.q) == (26, 0, 0, 3)
    assert lower.approx() == pytest.approx(5.2026, abs=1e-4)
    assert upper.approx() == pytest.approx(26 / 3)


def test_kappa_bounds_sandwich_kappa_at_dmax():
    # exclusive below, inclusive above, across every expected maximal locus
    for g in range(3, 2000, 7):
        for r in range(1, r_max_expected(g) + 1):
            k = kappa_at_dmax(g, r)
            lower, upper = kappa_bounds(g, r)
            assert lower.minus_int(k).sign() < 0, (g, r)
            assert upper.minus_int(k).sign() >= 0, (g, r)


def test_enumerate_expected_maximal_frozen():
    recs = enumerate_expected_maximal(20)
    assert [rec.locus for rec in recs] == [
        BNLocus(20, 1, 10),
        BNLocus(20, 2, 15),
        BNLocus(20, 3, 17),
        BNLocus(20, 4, 19),
    ]
    assert [rec.rho for rec in recs] == [-2, -1, -4, -5]
    assert [rec.kappa.value for rec in recs] == [10, 8, 6, 5]

    recs21 = enumerate_expected_maximal(21)
    assert [(rec.locus.r, rec.locus.d, rec.kappa.value) for rec in recs21] == [
        (1, 11, 11),
        (2, 15, 7),
        (3, 18, 6),
        (4, 20, 6),
    ]

    (only,) = enumerate_expected_maximal(4)
    assert only.locus == BNLocus(4, 1, 2)
    assert only.kappa.value == 2


def test_enumerate_expected_maximal_checks_only_the_boundary(monkeypatch):
    calls = []
    original = maximal_loci.is_expected_maximal

    def counted(g, r, d):
        calls.append(r)
        return original(g, r, d)

    monkeypatch.setattr(maximal_loci, "is_expected_maximal", counted)
    records = enumerate_expected_maximal(10**6)
    assert len(records) == r_max_expected(10**6) == 999
    assert len(calls) <= 2


@pytest.mark.parametrize("shift", [-1, 1])
def test_enumerate_expected_maximal_rejects_a_wrong_rank_range(monkeypatch, shift):
    monkeypatch.setattr(maximal_loci, "r_max_expected", lambda g: r_max_expected(g) + shift)
    with pytest.raises(InternalError, match="rank range"):
        enumerate_expected_maximal(30)


# ---------------------------------------------------------------------------
# the f-criterion and the genus threshold


def test_f_criterion_frozen():
    assert f_criterion(100, 2, 1)
    assert not f_criterion(28, 2, 1)
    with pytest.raises(DomainError):
        f_criterion(100, 2, 0)


def test_f_criterion_is_sound():
    # wherever it fires, the strict kappa drop it promises must hold
    for g in range(3, 260):
        rmax = r_max_expected(g)
        for r in range(1, rmax):
            for delta in range(1, rmax - r + 1):
                if f_criterion(g, r, delta):
                    assert kappa_at_dmax(g, r) > kappa_at_dmax(g, r + delta), (g, r, delta)


def test_genus_threshold_frozen():
    assert genus_threshold_holds(82, 2)
    assert not genus_threshold_holds(81, 2)
    assert {r: genus_threshold_min(r) for r in range(2, 11)} == {
        2: 82, 3: 160, 4: 271, 5: 419, 6: 605, 7: 834, 8: 1107, 9: 1429, 10: 1800,
    }


def test_genus_threshold_min_is_tight():
    for r in range(1, 12):
        gmin = genus_threshold_min(r)
        assert genus_threshold_holds(gmin, r)
        assert not genus_threshold_holds(gmin - 1, r)


def test_genus_threshold_implies_inequality():
    # past the threshold the ordering can no longer fail; spot-check a window
    for r in (2, 3):
        gmin = genus_threshold_min(r)
        for g in range(gmin, gmin + 200):
            assert ineq_holds_all_s(g, r, SRange.LEMMA), (g, r)


# ---------------------------------------------------------------------------
# G(r) and the exceptional genera


def test_ineq_holds_all_s_frozen():
    assert ineq_holds_all_s(28, 2)
    assert not ineq_holds_all_s(27, 2)
    assert not ineq_holds_all_s(10, 2, SRange.LEMMA)
    assert ineq_holds_all_s(10, 2)  # rank 3 not expected maximal at g = 10


def test_min_genus_for_rank_frozen():
    assert {r: min_genus_for_rank(r) for r in range(1, 11)} == {
        1: 3, 2: 6, 3: 12, 4: 20, 5: 30, 6: 42, 7: 56, 8: 72, 9: 90, 10: 110,
    }


def test_min_genus_for_rank_matches_scan():
    # the closed form r(r+1) against the first genus whose r_max_expected
    # reaches r, found by walking up from genus 3
    g = 3
    for r in range(1, 201):
        while r_max_expected(g) < r:
            g += 1
        assert min_genus_for_rank(r) == g, r


def test_compute_G_frozen_and_range_independent():
    for s_range in SRange:
        assert {r: compute_G(r, s_range) for r in range(2, 11)} == G_TABLE, s_range


def test_exceptional_genera_lemma_matches_published():
    for r, want in PUBLISHED_EXCEPTIONAL.items():
        assert exceptional_genera(r, SRange.LEMMA) == want


def test_exceptional_genera_frozen_other_ranges():
    # the narrower ranges drop the low-genus entries caused by the phantom
    # top rank (whose extremal locus is dual to a lower-rank one)
    assert exceptional_genera(2) == [12, 15, 18, 19, 24, 27]
    assert exceptional_genera(2, SRange.PAPER) == [15, 18, 19, 24, 27]
    assert exceptional_genera(3) == [21, 24, 28, 29, 33, 34, 41, 44, 49]
    assert exceptional_genera(4, SRange.PAPER) == PUBLISHED_EXCEPTIONAL[4][5:]


def test_exceptional_genera_nesting_and_G_consistency():
    for r in range(2, 11):
        paper = exceptional_genera(r, SRange.PAPER)
        maximal = exceptional_genera(r)
        lemma = exceptional_genera(r, SRange.LEMMA)
        assert set(paper) <= set(maximal) <= set(lemma), r
        assert compute_G(r) == max(maximal) + 1, r
        assert compute_G(r, SRange.LEMMA) == max(lemma) + 1, r


def test_compute_G_rejects_rank_one():
    with pytest.raises(DomainError):
        compute_G(1)
    with pytest.raises(DomainError):
        exceptional_genera(1)
