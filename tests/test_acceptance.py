"""Acceptance gate: the eleven headline checks, one test (and one verbose
pass/fail line) per criterion.

Run `pytest tests/test_acceptance.py -v` to see the per-criterion lines;
each test also prints a `criterion NN PASS` summary visible with `-s` or
in captured output.  Criteria 1, 3 and 7 carry wall-clock budgets which are
asserted, not just hoped for.
"""

import time

from bnkappa.bn_core import BNLocus, kappa, kappa_brute, kappa_closed, rho
from bnkappa.certificates import StatusKind, Rule, genus_report, load_ledger, pair_status
from bnkappa.cli import main
from bnkappa.exact_arith import surd_sign
from bnkappa.maximal_loci import (
    SRange,
    compute_G,
    enumerate_expected_maximal,
    exceptional_genera,
    f_criterion,
    genus_threshold_holds,
    ineq_holds_all_s,
    kappa_at_dmax,
    r_max_expected,
    scan_end,
)

from test_maximal_loci import _ineq_holds_in_range  # the s-range oracle

SHIPPED_LEDGER = "data/known.json"


def _announce(n: int, detail: str) -> None:
    print(f"criterion {n:02d} PASS: {detail}")


def test_criterion_01_genus20_key_inequality():
    start = time.monotonic()
    for g, r, d, want in [(20, 3, 17, 6), (20, 4, 19, 5)]:
        assert kappa_closed(g, r, d).value == want
        assert kappa_brute(g, r, d).value == want
    assert kappa_closed(20, 3, 17).value > kappa_closed(20, 4, 19).value
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.2f}s"
    _announce(1, f"kappa(20,3,17)=6 > 5=kappa(20,4,19) both routes in {elapsed:.3f}s")


def test_criterion_02_expected_maximal_loci_sets():
    got20 = {(rec.locus.r, rec.locus.d) for rec in enumerate_expected_maximal(20)}
    got21 = {(rec.locus.r, rec.locus.d) for rec in enumerate_expected_maximal(21)}
    assert got20 == {(1, 10), (2, 15), (3, 17), (4, 19)}
    assert got21 == {(1, 11), (2, 15), (3, 18), (4, 20)}
    _announce(2, "locus sets at genus 20 and 21 match exactly")


def test_criterion_03_G_table():
    start = time.monotonic()
    got = [compute_G(r) for r in range(2, 11)]
    assert got == [28, 50, 96, 140, 232, 306, 390, 561, 684]
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.2f}s"
    _announce(3, f"G(2..10) = {got} in {elapsed:.2f}s")


def test_criterion_04_exceptional_genera():
    # The known failure sets (Auel-Haburcak 2022) count a rank-s competitor
    # for every s <= ceil(sqrt(g)) - 1, including the top rank whose extremal
    # locus at genus just above a square is Serre-dual to a lower-rank one.
    # That comparison set is SRange.LEMMA; the default MAXIMAL range drops
    # those duplicate competitors and hence the handful of smallest genera.
    assert exceptional_genera(2, SRange.LEMMA) == [10, 11, 12, 15, 18, 19, 24, 27]
    assert exceptional_genera(3, SRange.LEMMA) == [
        17, 18, 19, 21, 24, 28, 29, 33, 34, 41, 44, 49,
    ]
    assert exceptional_genera(4, SRange.LEMMA) == [
        26, 27, 28, 29, 30, 32, 35, 40, 41, 45, 46, 47, 48, 50,
        52, 53, 55, 62, 65, 70, 71, 77, 95,
    ]
    _announce(4, "failure lists for r = 2, 3, 4 match the known tables exactly")


def test_criterion_05_kappa_equality_cases():
    assert kappa(24, 2, 17).value == kappa(24, 4, 23).value == 8
    assert kappa(27, 2, 19).value == kappa(27, 3, 23).value == 9
    assert kappa_brute(24, 2, 17).value == kappa_brute(24, 4, 23).value == 8
    assert kappa_brute(27, 2, 19).value == kappa_brute(27, 3, 23).value == 9
    _announce(5, "kappa ties (24,2,17)=(24,4,23)=8 and (27,2,19)=(27,3,23)=9")


def test_criterion_06_parametric_families():
    for alpha in range(3, 21):
        g = 2 * alpha * alpha + alpha - 2
        assert kappa(g, alpha - 1, 2 * alpha * alpha - 4).value == 3 * alpha - 2
        assert kappa(g, alpha, 2 * alpha * alpha - 1).value == 3 * alpha - 2
        h = alpha * alpha - 2
        assert kappa(h, alpha - 1, alpha * alpha - 3).value == 2 * alpha - 3
        assert kappa(h, alpha - 2, alpha * alpha - 5).value == 2 * alpha - 2
    _announce(6, "all four parametric kappa identities hold for alpha = 3..20")


def test_criterion_07_oracle_equivalence():
    start = time.monotonic()
    checked = 0
    for g in range(3, 61):
        for r in range(1, g):
            for d in range(2 * r, g):
                if rho(g, r, d) >= 0:
                    continue
                closed = kappa_closed(g, r, d).value
                brute = kappa_brute(g, r, d).value
                assert closed == brute, (g, r, d, closed, brute)
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.2f}s"
    _announce(7, f"closed = brute on all {checked} admissible triples, g <= 60, {elapsed:.1f}s")


def test_criterion_08_bounds_and_threshold_soundness():
    sandwiched = fired = guaranteed = scan_ended = 0
    ends = {r: scan_end(r) for r in range(2, r_max_expected(2000) + 1)}
    for g in range(3, 2001):
        rmax = r_max_expected(g)
        for r in range(1, rmax + 1):
            k = kappa_at_dmax(g, r)
            n = r + 1
            t = g + r * n - k * n  # n times (g/n + r - kappa)
            assert surd_sign(t, -2 * n, n) < 0 <= t, (g, r)
            sandwiched += 1
            for delta in range(1, rmax - r + 1):
                if f_criterion(g, r, delta):
                    assert k > kappa_at_dmax(g, r + delta), (g, r, delta)
                    fired += 1
            if genus_threshold_holds(g, r):
                assert ineq_holds_all_s(g, r), (g, r)
                guaranteed += 1
            if r >= 2 and g >= ends[r]:
                assert ineq_holds_all_s(g, r), (g, r)
                for s_range in SRange:
                    assert _ineq_holds_in_range(g, r, s_range), (g, r, s_range)
                scan_ended += 1
    assert sandwiched and fired and guaranteed and scan_ended
    _announce(
        8,
        f"{sandwiched} sandwiches, {fired} f-criterion firings, "
        f"{guaranteed} threshold guarantees, {scan_ended} scan-end guarantees, "
        "zero violations",
    )


def test_criterion_09_genus_reports():
    ledger = load_ledger(SHIPPED_LEDGER)
    report20 = genus_report(20, ledger)
    assert report20.verified and report20.open_pairs == ()
    report21 = genus_report(21, ledger)
    (open_pair,) = report21.open_pairs
    assert (open_pair.source, open_pair.target) == (BNLocus(21, 3, 18), BNLocus(21, 4, 20))
    _announce(9, "genus 20 verified; genus 21 open exactly at (3,18) vs (4,20)")


def test_criterion_10_figure_data(capsys):
    figures = {}
    for g, ranks in ((96, 9), (479, 21)):
        assert main(["figure", "--g", str(g)]) == 0
        lines = capsys.readouterr().out.rstrip("\r\n").split("\r\n")
        assert len(lines) == ranks + 1
        kappas = []
        for r, line in zip(range(1, ranks + 1), lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == r
            assert int(cells[3]) == kappa_at_dmax(g, r)
            kappas.append(int(cells[3]))
        assert any(a <= b for a, b in zip(kappas, kappas[1:])), g  # non-strict step
        figures[g] = lines
    fig96 = figures[96]
    assert int(fig96[5].split(",")[3]) == int(fig96[6].split(",")[3]) == 18
    _announce(10, "figure CSVs for g = 96 (plateau at 18) and g = 479 check out")


def test_criterion_11_rho_minus_one_distinctness_sweep():
    pairs = 0
    for g in range(10, 151):
        records = [rec for rec in enumerate_expected_maximal(g) if rec.rho == -1]
        for a in records:
            for b in records:
                if a.locus.r == b.locus.r:
                    continue
                status = pair_status(a.locus, b.locus)  # no ledger facts
                assert status.kind is StatusKind.ESTABLISHED, (a.locus, b.locus)
                assert status.certificate.rule is not Rule.EXTERNAL
                pairs += 1
    assert pairs == 516
    _announce(11, f"all {pairs} ordered rho = -1 pairs established ledger-free")
