"""Extremal loci: maximal degrees, kappa there, and the rank-ordering scan."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnkappa.bn_core import BNLocus, kappa, kappa_brute, rho
from bnkappa import maximal_loci
from bnkappa.errors import DomainError, InternalError
from bnkappa.exact_arith import floor_neg_2sqrt
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
    scan_end,
)

# Published failure sets for the rank ordering, r = 2, 3, 4 (Auel-Haburcak
# 2022).  Reproducing them requires comparing against every rank s up to
# ceil(sqrt(g)) - 1, i.e. SRange.LEMMA: the MAXIMAL list plus the genera
# (r+1)^2 < g < (r+1)(r+2), where the top rank ties rank r with its Serre
# dual; see exceptional_genera.
PUBLISHED_EXCEPTIONAL = {
    2: [10, 11, 12, 15, 18, 19, 24, 27],
    3: [17, 18, 19, 21, 24, 28, 29, 33, 34, 41, 44, 49],
    4: [26, 27, 28, 29, 30, 32, 35, 40, 41, 45, 46, 47, 48, 50,
        52, 53, 55, 62, 65, 70, 71, 77, 95],
}

G_TABLE = {
    2: 28, 3: 50, 4: 96, 5: 140, 6: 232, 7: 306, 8: 390, 9: 561, 10: 684,
    11: 819, 12: 1106, 13: 1290, 14: 1488, 15: 1700, 16: 2160, 17: 2432, 18: 2720,
    19: 3024, 20: 3718, 21: 4094, 22: 4488, 23: 4900, 24: 5330, 25: 6345, 26: 6860,
    27: 7395, 28: 7950, 29: 8525, 30: 9952,
}


def _s_bound(g, s_range):
    # the top competing rank under each s-range
    if s_range is SRange.MAXIMAL:
        return r_max_expected(g)  # the largest s with s(s+1) <= g
    if s_range is SRange.PAPER:
        return (math.isqrt(4 * g) - 1) // 2  # floor(sqrt(g) - 1/2): largest s with s(s+1) < g
    s = math.isqrt(g)
    return s - 1 if s * s == g else s  # ceil(sqrt(g) - 1): largest s with s^2 < g


def _ineq_holds_in_range(g, r, s_range):
    # the oracle of the derived PAPER and LEMMA lists: the pruned ladder
    # against every rank of the s-range
    kr = kappa_at_dmax(g, r)
    top = _s_bound(g, s_range)
    beats_top = kr * (top + 1) > g + top * (top + 1)
    for s in range(r + 1, top + 1):
        if beats_top and kr * (s + 1) > g + s * (s + 1):
            return True
        if kr <= kappa_at_dmax(g, s):
            return False
    return True


def _ineq_unpruned(g, r, s_range):
    # the oracle of the pruned ladder: exact kappa at every rank in range
    kr = kappa_at_dmax(g, r)
    return all(kr > kappa_at_dmax(g, s) for s in range(r + 1, _s_bound(g, s_range) + 1))


def _full_scan(r, s_range, holds=_ineq_holds_in_range):
    # the oracle of the scans: every genus up to the paper's threshold
    return [
        g
        for g in range(min_genus_for_rank(r), genus_threshold_min(r) + 1)
        if not holds(g, r, s_range)
    ]


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
    # -(r + 1 - g mod (r+1)) is the square root's argument in kappa_at_dmax
    assert [rho(20, r, d_max(20, r)) for r in range(1, 5)] == [-2, -1, -4, -5]
    for g in range(3, 400):
        for r in range(1, 25):
            assert rho(g, r, d_max(g, r)) == -(r + 1 - g % (r + 1)), (g, r)


def test_rho_at_dmax_range():
    for g in range(3, 300):
        for r in range(1, 20):
            assert -(r + 1) <= rho(g, r, d_max(g, r)) <= -1, (g, r)


def test_kappa_at_dmax_frozen():
    assert [kappa_at_dmax(20, r) for r in range(1, 5)] == [10, 8, 6, 5]
    assert [kappa_at_dmax(96, r) for r in range(1, 10)] == [48, 32, 25, 21, 18, 18, 15, 16, 16]
    assert kappa_at_dmax(21, 1) == 11


def test_kappa_at_dmax_agrees_with_both_routes():
    # ranks up to the lemma s-range's top, whose d_max can exceed g - 1
    for g in range(3, 200):
        for r in range(1, _s_bound(g, SRange.LEMMA) + 1):
            d = d_max(g, r)
            closed = kappa_at_dmax(g, r)
            assert closed == kappa(g, r, d).value, (g, r)
            if g <= 90:
                assert closed == kappa_brute(g, r, d).value, (g, r)


@given(st.data())
@settings(max_examples=200)
def test_kappa_at_dmax_agrees_with_kappa_at_huge_genus(data):
    g = data.draw(st.integers(min_value=3, max_value=10**9))
    r = data.draw(st.integers(min_value=1, max_value=r_max_expected(g)))
    assert kappa_at_dmax(g, r) == kappa(g, r, d_max(g, r)).value


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
    for r in (0, -1):
        with pytest.raises(DomainError):
            genus_threshold_min(r)


def test_genus_threshold_min_is_tight():
    for r in range(1, 12):
        gmin = genus_threshold_min(r)
        assert genus_threshold_holds(gmin, r)
        assert not genus_threshold_holds(gmin - 1, r)


@pytest.mark.parametrize("holds", [True, False])
def test_genus_threshold_min_rejects_a_wrong_boundary(monkeypatch, holds):
    monkeypatch.setattr(maximal_loci, "genus_threshold_holds", lambda g, r: holds)
    with pytest.raises(InternalError, match="genus threshold"):
        genus_threshold_min(5)


def test_genus_threshold_implies_inequality():
    # past the threshold the ordering can no longer fail; spot-check a window
    for r in (2, 3):
        gmin = genus_threshold_min(r)
        for g in range(gmin, gmin + 200):
            assert ineq_holds_all_s(g, r), (g, r)
            assert _ineq_holds_in_range(g, r, SRange.LEMMA), (g, r)


# ---------------------------------------------------------------------------
# the scan end S(r)


def test_scan_end_frozen():
    assert {r: scan_end(r) for r in range(2, 11)} == {
        2: 54, 3: 100, 4: 165, 5: 248, 6: 353, 7: 480, 8: 630, 9: 806, 10: 1008,
    }


def test_scan_end_is_the_least_genus_past_the_rank_r_plus_one_end():
    # S(r) is the least g >= n(n+1)(1 + 2 sqrt(n)); floats are exact enough here
    for r in range(2, 200):
        n = r + 1
        bound = n * (n + 1) * (1 + 2 * math.sqrt(n))
        assert scan_end(r) - 1 < bound <= scan_end(r), r


def test_scan_end_lies_between_the_first_genus_and_the_paper_threshold():
    for r in range(2, 10**4 + 1):
        assert min_genus_for_rank(r) < scan_end(r) <= genus_threshold_min(r), r


def test_lower_bound_clears_2sqrt_g_matches_floats():
    decided = {True: 0, False: 0}
    for r in range(1, 31):
        n = r + 1
        for g in range(3, 3000):
            margin = g / n + r - 2 * math.sqrt(n) - 2 * math.sqrt(g) - 1
            if abs(margin) > 1e-9:
                got = maximal_loci._lower_bound_clears_2sqrt_g(g, r)
                assert got == (margin > 0), (g, r)
                decided[got] += 1
    assert decided[True] and decided[False]
    # rank 1 is outside scan_end's domain because this fails at S(1) = 23
    assert not maximal_loci._lower_bound_clears_2sqrt_g(23, 1)


@pytest.mark.parametrize("name, replacement", [
    ("surd_sign", lambda a, b, m: -1),  # the closed form no longer reaches the bound
    ("surd_sign", lambda a, b, m: 1),  # the bound already holds one genus below
    ("_lower_bound_clears_2sqrt_g", lambda g, r: False),
    ("genus_threshold_min", lambda r: min_genus_for_rank(r)),
])
def test_scan_end_rejects_a_wrong_boundary(monkeypatch, name, replacement):
    monkeypatch.setattr(maximal_loci, name, replacement)
    with pytest.raises(InternalError, match="^scan end for r=5 does not hold at 248$"):
        scan_end(5)


@given(st.data())
@settings(max_examples=200)
def test_ineq_holds_from_the_scan_end_on(data):
    r = data.draw(st.integers(min_value=2, max_value=300))
    g = data.draw(st.integers(min_value=scan_end(r), max_value=10**12))
    s_range = data.draw(st.sampled_from(SRange))
    assert ineq_holds_all_s(g, r)
    assert _ineq_holds_in_range(g, r, s_range)


# ---------------------------------------------------------------------------
# G(r) and the exceptional genera


def test_ineq_holds_all_s_frozen():
    assert ineq_holds_all_s(28, 2)
    assert not ineq_holds_all_s(27, 2)
    assert not _ineq_holds_in_range(10, 2, SRange.LEMMA)
    assert ineq_holds_all_s(10, 2)  # rank 3 not expected maximal at g = 10
    assert 10 in exceptional_genera(2, SRange.LEMMA)


def test_ineq_holds_all_s_matches_unpruned_loop():
    for g in range(3, 1001):
        for s_range in SRange:
            for r in range(1, _s_bound(g, s_range) + 2):
                holds = _ineq_holds_in_range(g, r, s_range)
                assert holds == _ineq_unpruned(g, r, s_range), (g, r, s_range)
                if s_range is SRange.MAXIMAL:
                    assert ineq_holds_all_s(g, r) == holds, (g, r)


@given(
    st.integers(min_value=3, max_value=10**6),
    st.floats(min_value=0, max_value=1),
    st.sampled_from(SRange),
)
@settings(max_examples=200)
def test_ineq_holds_all_s_matches_unpruned_loop_at_large_genus(g, fraction, s_range):
    r = 1 + int(fraction * _s_bound(g, s_range))
    holds = _ineq_holds_in_range(g, r, s_range)
    assert holds == _ineq_unpruned(g, r, s_range)
    if s_range is SRange.MAXIMAL:
        assert ineq_holds_all_s(g, r) == holds


@pytest.mark.parametrize("r", [2, 10, 22, 40])
def test_exceptional_genera_computes_kappa_about_once_per_genus(monkeypatch, r):
    calls = []
    original = maximal_loci.kappa_at_dmax

    def counted(g, s):
        calls.append(g)
        return original(g, s)

    monkeypatch.setattr(maximal_loci, "kappa_at_dmax", counted)
    genera = scan_end(r) - min_genus_for_rank(r) + 1  # the genera the scan tests
    for s_range in SRange:
        calls.clear()
        exceptional_genera(r, s_range)
        assert len(calls) <= 2.1 * genera, (s_range, len(calls) / genera)


@pytest.mark.parametrize("r", [2, 10, 22, 40])
def test_each_scan_tests_every_genus_up_to_the_scan_end_once(monkeypatch, r):
    tested = []
    original = maximal_loci.ineq_holds_all_s

    def counted(g, r):
        tested.append(g)
        return original(g, r)

    monkeypatch.setattr(maximal_loci, "ineq_holds_all_s", counted)
    for s_range in SRange:
        tested.clear()
        exceptional_genera(r, s_range)
        assert tested == list(range(min_genus_for_rank(r), scan_end(r) + 1)), s_range
    tested.clear()
    compute_G(r)
    assert tested == list(range(min_genus_for_rank(r), scan_end(r) + 1))


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
    assert {r: compute_G(r) for r in G_TABLE} == G_TABLE
    for s_range in SRange:
        # one more than each list's last genus; the lists match the oracle's
        # in test_exceptional_genera_match_the_full_scan_to_rank_30
        got = {r: exceptional_genera(r, s_range)[-1] + 1 for r in G_TABLE}
        assert got == G_TABLE, s_range


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


def test_exceptional_genera_match_the_unpruned_scan():
    for s_range in SRange:
        for r in range(2, 13):
            assert exceptional_genera(r, s_range) == _full_scan(r, s_range, _ineq_unpruned), (
                r, s_range,
            )


def test_exceptional_genera_match_the_full_scan_to_rank_30():
    # G_TABLE pins compute_G, one more than each list's last genus, to r = 30
    for s_range in SRange:
        for r in range(2, 31):
            assert exceptional_genera(r, s_range) == _full_scan(r, s_range), (r, s_range)


def test_the_s_ranges_differ_only_on_the_window_below_the_last_maximal_genus():
    # E_PAPER = E_MAXIMAL without n(n+1), which is in E_MAXIMAL exactly when
    # ceil(2 sqrt(n)) = ceil(2 sqrt(n+1)); E_LEMMA adds n^2 < g < n(n+1);
    # E_MAXIMAL's last genus lies past the window, so G(r) is range-free
    for r in range(2, 41):
        n = r + 1
        span = range(min_genus_for_rank(r), scan_end(r) + 1)
        oracle = {
            s: [g for g in span if not _ineq_holds_in_range(g, r, s)]
            for s in (SRange.PAPER, SRange.LEMMA)
        }
        maximal = exceptional_genera(r)
        assert exceptional_genera(r, SRange.PAPER) == oracle[SRange.PAPER], r
        assert exceptional_genera(r, SRange.LEMMA) == oracle[SRange.LEMMA], r
        assert set(oracle[SRange.PAPER]) == set(maximal) - {n * (n + 1)}, r
        assert set(oracle[SRange.LEMMA]) == set(maximal) | set(range(n * n + 1, n * (n + 1))), r
        assert (n * (n + 1) in maximal) == (floor_neg_2sqrt(n) == floor_neg_2sqrt(n + 1)), r
        assert maximal[-1] > n * (n + 1), r


def _top_rank_ties(s, window):
    # rank s's kappa at g = s(s+1), where PAPER drops rank s, is at most rank
    # s - 1's; on the window s^2 < g < s(s+1), where LEMMA adds rank s, its
    # maximal locus (g, s, g) is Serre-dual to (g, s - 1, g - 2) and ties it
    g = s * (s + 1)
    assert kappa_at_dmax(g, s) == 2 * s + 2 + floor_neg_2sqrt(s + 1), s
    assert kappa_at_dmax(g, s - 1) == 2 * s + 2 + floor_neg_2sqrt(s), s
    assert kappa_at_dmax(g, s) <= kappa_at_dmax(g, s - 1), s
    for g in window:
        assert d_max(g, s) == g and d_max(g, s - 1) == g - 2, (g, s)
        assert kappa_at_dmax(g, s) == kappa_at_dmax(g, s - 1), (g, s)


def test_the_top_rank_identities_for_every_s_to_500():
    for s in range(2, 501):
        _top_rank_ties(s, range(s * s + 1, s * (s + 1)))


@given(st.data())
@settings(max_examples=200)
def test_the_top_rank_identities_up_to_s_10_to_the_6(data):
    s = data.draw(st.integers(min_value=2, max_value=10**6))
    _top_rank_ties(s, [s * s + data.draw(st.integers(min_value=1, max_value=s - 1))])


def test_exceptional_genera_nesting_and_G_consistency():
    for r in range(2, 11):
        paper = exceptional_genera(r, SRange.PAPER)
        maximal = exceptional_genera(r)
        lemma = exceptional_genera(r, SRange.LEMMA)
        assert set(paper) <= set(maximal) <= set(lemma), r
        assert compute_G(r) == max(maximal) + 1, r
        assert compute_G(r) == max(_full_scan(r, SRange.LEMMA)) + 1 == max(lemma) + 1, r


def test_compute_G_rejects_rank_one():
    with pytest.raises(DomainError):
        compute_G(1)
    with pytest.raises(DomainError):
        exceptional_genera(1)


@pytest.mark.parametrize("fn, args, message", [
    (d_max, (1, 1), "d_max requires g >= 2 and r >= 1, got (1, 1)"),
    (d_max, (2, 0), "d_max requires g >= 2 and r >= 1, got (2, 0)"),
    (r_max_expected, (2,), "r_max_expected requires g >= 3, got 2"),
    (is_expected_maximal, (2, 1, 2), "is_expected_maximal requires g >= 3, r >= 1, got (2, 1)"),
    (is_expected_maximal, (3, 0, 2), "is_expected_maximal requires g >= 3, r >= 1, got (3, 0)"),
    (enumerate_expected_maximal, (2,), "enumerate_expected_maximal requires g >= 3, got 2"),
    (genus_threshold_min, (0,), "genus_threshold_min requires r >= 1, got 0"),
    (kappa_at_dmax, (2, 1), "kappa_at_dmax requires g >= 3 and r >= 1, got (2, 1)"),
    (kappa_at_dmax, (3, 0), "kappa_at_dmax requires g >= 3 and r >= 1, got (3, 0)"),
    (kappa_bounds, (2, 1), "kappa_bounds requires g >= 3 and r >= 1, got (2, 1)"),
    (kappa_bounds, (3, 0), "kappa_bounds requires g >= 3 and r >= 1, got (3, 0)"),
    (genus_threshold_holds, (100, 0), "genus_threshold_holds requires r >= 1, got 0"),
    (ineq_holds_all_s, (2, 1), "ineq_holds_all_s requires g >= 3 and r >= 1, got (2, 1)"),
    (ineq_holds_all_s, (3, 0), "ineq_holds_all_s requires g >= 3 and r >= 1, got (3, 0)"),
    (min_genus_for_rank, (0,), "min_genus_for_rank requires r >= 1, got 0"),
    (scan_end, (1,), "scan_end requires r >= 2, got 1"),
])
def test_each_function_refuses_one_step_outside_its_domain(fn, args, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        fn(*args)
