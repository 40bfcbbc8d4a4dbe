"""Non-containment certificates, pair statuses, reports, and the ledger."""

import json
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bnkappa import bn_core, certificates
from bnkappa.bn_core import BNLocus, KappaBranch, clifford_index, kappa, rho
from bnkappa.certificates import (
    Ledger,
    LedgerError,
    NonContainmentCertificate,
    PairStatus,
    PairVerdict,
    Rule,
    StatusKind,
    TrivialClosure,
    genus_report,
    load_ledger,
    pair_status,
    trivial_closure,
)
from bnkappa.errors import DomainError
from bnkappa.exact_arith import floor_neg_2sqrt
from bnkappa.maximal_loci import d_max, enumerate_expected_maximal

SHIPPED_LEDGER = "data/known.json"


@pytest.fixture(scope="module")
def ledger():
    return load_ledger(SHIPPED_LEDGER)


class _AnyCite:
    """A ledger stub that cites every pair it is asked about."""

    def lookup(self, source, target):
        return "nobody"


def _derive(rule, source, target, ledger=None):
    """The witness one rule gives for the pair, admissible or not (None: nothing)."""
    return certificates._RULES[rule](source, target, ledger)


# ---------------------------------------------------------------------------
# single rules, frozen


def test_kappa_rule_frozen():
    witness = {"kappa_source": 12, "kappa_target": 10}
    source, target = BNLocus(34, 2, 24), BNLocus(34, 4, 31)
    assert NonContainmentCertificate(source, target, Rule.KAPPA_GAP, witness).verify()


def test_kappa_rule_none_on_equal_kappa():
    # kappa(24,2,17) = kappa(24,4,23) = 8: the rule cannot separate them
    assert _derive(Rule.KAPPA_GAP, BNLocus(24, 2, 17), BNLocus(24, 4, 23)) is None
    assert _derive(Rule.KAPPA_GAP, BNLocus(24, 4, 23), BNLocus(24, 2, 17)) is None


def test_dimension_rule_frozen():
    witness = {"rho_source": -1, "rho_target": -3}
    source, target = BNLocus(24, 4, 23), BNLocus(24, 2, 17)
    assert NonContainmentCertificate(source, target, Rule.DIMENSION, witness).verify()
    # codimension only known up to 3: a rho = -4 target gives nothing
    assert _derive(Rule.DIMENSION, BNLocus(21, 3, 18), BNLocus(21, 4, 20)) is None
    # nor does an equidimensional pair
    assert _derive(Rule.DIMENSION, BNLocus(11, 2, 9), BNLocus(11, 1, 6)) is None


# ---------------------------------------------------------------------------
# the Clifford-index divisor criterion: KAPPA_GAP on a smaller domain


def _divisor_criterion(source, target):
    """The Clifford-index divisor criterion's witness for the pair, or None.

    For rho(target) = -1, a source of rank >= 2 and g + 1 <= floor(d/r) + d
    for the source, gamma(target) > gamma(source) + ceil(2*sqrt(-rho(source)))
    - 2 rules containment out.  It is not a rule, because on the pairs the
    rules see (both sides with d <= g - 1) it is KAPPA_GAP on a smaller
    domain.  The rho = -1 target is in kappa's second case (the lemma in
    _flip's docstring), so kappa(target) = g - 1 - gamma(target).  The
    source hypothesis puts the source there too, so kappa(source) =
    g + 1 - gamma(source) - ceil(2*sqrt(-rho(source))).  The gamma test then
    rearranges exactly to kappa(source) > kappa(target).
    """
    if target.rho != -1 or source.r < 2 or source.g + 1 > source.d // source.r + source.d:
        return None
    gamma_s, gamma_t = clifford_index(source.r, source.d), clifford_index(target.r, target.d)
    gap = -floor_neg_2sqrt(-source.rho) - 2  # ceil(2*sqrt(-rho)) - 2
    if gamma_t > gamma_s + gap:
        return {"gamma_source": gamma_s, "gamma_target": gamma_t, "clifford_gap": gap}
    return None


def _criterion_is_the_kappa_gap(source, target):
    """Assert the lemma on one canonical pair; True when the criterion fires.

    It fires exactly when its hypotheses hold and kappa(source) >
    kappa(target), and pair_status then certifies the pair by KAPPA_GAP.
    """
    g, r, d = source
    hypotheses = target.rho == -1 and r >= 2 and g + 1 <= d // r + d
    fired = _divisor_criterion(source, target) is not None
    assert fired == (hypotheses and source.kappa.value > target.kappa.value), (source, target)
    if fired:
        assert pair_status(source, target).certificate.rule is Rule.KAPPA_GAP, (source, target)
    return fired


def test_divisor_criterion_is_the_kappa_gap_on_every_canonical_pair_to_g_150():
    # the criterion needs a rho = -1 target; every source, rank 1 included
    pairs = fired = 0
    for g in range(3, 151):
        loci = _canonical_loci(g)
        targets = [t for t in loci if t.rho == -1]
        for source in loci:
            for target in targets:
                if source != target:
                    pairs += 1
                    fired += _criterion_is_the_kappa_gap(source, target)
    assert (pairs, fired) == (506_568, 583)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_divisor_criterion_is_the_kappa_gap_up_to_g_10_to_the_9(data):
    # a rho = -1 target from g + 1 = n*m with n <= m, and a source of rank
    # >= 2 a few steps below rho = 0, where the source hypothesis mostly
    # holds.  Ranks up to 2n give kappa gaps both ways
    n = data.draw(st.integers(2, 1000), label="n")
    m = data.draw(st.integers(n, 10**6), label="m")
    g = n * m - 1
    r = data.draw(st.integers(2, 2 * n), label="source r")
    h = g // (r + 1) + 1 + data.draw(st.integers(0, 3), label="steps below rho = 0")
    d = g - h + r
    assume(2 * r <= d <= g - 1 and (r, d) != (n - 1, g - m + n - 1))
    _criterion_is_the_kappa_gap(BNLocus(g, r, d), BNLocus(g, n - 1, g - m + n - 1))


def test_divisor_rule_frozen():
    # the criterion's pinned pairs: pair_status certifies each by its kappa gap
    for src, tgt, gammas, kappas in [
        ((31, 2, 22), (31, 3, 26), (18, 20), (11, 10)),
        ((34, 2, 24), (34, 4, 31), (20, 23), (12, 10)),
        ((54, 3, 43), (54, 4, 47), (37, 39), (15, 14)),
    ]:
        source, target = BNLocus(*src), BNLocus(*tgt)
        assert _divisor_criterion(source, target) == {
            "gamma_source": gammas[0], "gamma_target": gammas[1], "clifford_gap": 1,
        }
        cert = pair_status(source, target).certificate
        assert (cert.rule, dict(cert.witness)) == (
            Rule.KAPPA_GAP, {"kappa_source": kappas[0], "kappa_target": kappas[1]}
        )
        assert cert.verify()


def test_divisor_rule_refusals():
    # rank-1 sources are outside the criterion: the kappa gap 6 > 5 decides
    source, target = BNLocus(11, 1, 6), BNLocus(11, 2, 9)
    assert _divisor_criterion(source, target) is None
    assert pair_status(source, target).certificate.rule is Rule.KAPPA_GAP
    # target must sit at rho = -1 exactly: genus 21's open pair stays open
    source, target = BNLocus(21, 3, 18), BNLocus(21, 4, 20)
    assert _divisor_criterion(source, target) is None
    assert pair_status(source, target).kind is StatusKind.OPEN
    # Clifford gap too small: gamma 11 vs 11 at genus 20, open without the ledger
    source, target = BNLocus(20, 3, 17), BNLocus(20, 2, 15)
    assert _divisor_criterion(source, target) is None
    assert pair_status(source, target).kind is StatusKind.OPEN
    # source degree above g - 1: (17, 15, 30) is the Serre dual of the
    # hyperelliptic locus (17, 1, 2), which lies in the target.  Read on the
    # indices as named, the criterion fires; pair_status sees (17, 1, 2),
    # where it does not, and base points take (17, 1, 2) to (17, 1, 9)
    source, target = BNLocus(17, 15, 30), BNLocus(17, 1, 9)
    assert _divisor_criterion(source, target) == {
        "gamma_source": 0, "gamma_target": 7, "clifford_gap": 6,
    }
    assert _divisor_criterion(_dual(source), target) is None
    assert pair_status(source, target).kind is StatusKind.TRIVIAL_CONTAINMENT


def test_divisor_rule_none_when_the_source_is_in_kappas_first_case():
    # g + 1 = 8 > floor(4/2) + 4: kappa(7, 2, 4) = 2 is the first case.  The
    # rho = -1 target (7, 3, 8) is the Serre dual of (7, 1, 4), which (7, 2, 4)
    # reaches by a rank drop and a base point, so the pair is a containment
    source, target = BNLocus(7, 2, 4), BNLocus(7, 3, 8)
    assert target.rho == -1 and source.kappa.branch is bn_core.KappaBranch.CLOSED_FIRST_CASE
    assert _divisor_criterion(source, target) is None
    assert pair_status(source, target).kind is StatusKind.TRIVIAL_CONTAINMENT
    # (19, 2, 4) is the hyperelliptic locus (gamma = 0), inside every locus:
    # the Clifford gap 11 > 0 + 10 holds, and only the first-case hypothesis
    # keeps the criterion from ruling out its containment in the rho = -1
    # locus (19, 3, 17)
    source, target = BNLocus(19, 2, 4), BNLocus(19, 3, 17)
    assert target.rho == -1 and source.kappa.branch is bn_core.KappaBranch.CLOSED_FIRST_CASE
    assert clifford_index(3, 17) > clifford_index(2, 4) - floor_neg_2sqrt(-source.rho) - 2
    assert _divisor_criterion(source, target) is None
    assert pair_status(source, target).kind is StatusKind.OPEN


def test_rules_reject_inadmissible_pairs(monkeypatch):
    pairs = [
        (BNLocus(20, 3, 17), BNLocus(21, 2, 15)),  # genus mismatch
        (BNLocus(20, 1, 12), BNLocus(20, 2, 15)),  # rho(source) >= 0
        (BNLocus(20, 3, 17), BNLocus(20, 3, 17)),  # equal loci
        (BNLocus(11, 10, 19), BNLocus(11, 2, 9)),  # d < 2r: an empty source
    ]
    for source, target in pairs:
        with pytest.raises(DomainError):
            pair_status(source, target, _AnyCite())

    def never(source, target, ledger):
        pytest.fail("verify() ran a rule on an inadmissible pair")

    # verify() refuses before any rule runs, so no witness can pass
    monkeypatch.setattr(certificates, "_RULES", dict.fromkeys(Rule, never))
    for source, target in pairs:
        for rule in Rule:
            cert = NonContainmentCertificate(source, target, rule, {})
            assert not cert.verify(_AnyCite()), (source, target, rule)


def test_self_pair_certificate_never_verifies():
    a = BNLocus(20, 3, 17)
    assert not NonContainmentCertificate(a, a, Rule.EXTERNAL, {"cite": "nobody"}).verify(_AnyCite())
    # the same ledger certifies a distinct pair: only the self-pair is refused
    other = NonContainmentCertificate(a, BNLocus(20, 2, 15), Rule.EXTERNAL, {"cite": "nobody"})
    assert other.verify(_AnyCite())


# ---------------------------------------------------------------------------
# trivial containment


def test_trivial_closure_contents():
    closure = trivial_closure(BNLocus(20, 3, 16))
    assert BNLocus(20, 3, 17) in closure
    assert BNLocus(20, 2, 15) in closure
    assert BNLocus(20, 3, 16) not in closure  # the start is not its own step
    assert BNLocus(21, 3, 17) not in closure  # the genus never changes
    # rho(20, 1, 14) = 6 stops the second rank drop; degrees end at 2g - 2 = 38
    assert [closure.degrees(s) for s in range(0, 5)] == [
        range(0), range(0), range(15, 39), range(17, 39), range(0),
    ]
    assert len(closure) == 24 + 22


def test_pair_status_at_huge_genus_never_walks_the_closure(monkeypatch):
    def no_walk(self):
        pytest.fail("a membership test must not walk the closure")

    monkeypatch.setattr(TrivialClosure, "__len__", no_walk)
    g = 10**9
    low, high = BNLocus(g, 1, d_max(g, 1)), BNLocus(g, 2, d_max(g, 2))
    fwd = pair_status(low, high)
    assert fwd.certificate.rule is Rule.KAPPA_GAP
    assert dict(fwd.certificate.witness) == {
        "kappa_source": 500000000, "kappa_target": 333333334,
    }
    assert pair_status(high, low).kind is StatusKind.OPEN


def test_pair_status_trivial_containment_wins():
    # (20,3,17) is one degree bump away, so the pair is a containment even
    # though certificates exist in the other direction
    status = pair_status(BNLocus(20, 3, 16), BNLocus(20, 3, 17))
    assert status.kind is StatusKind.TRIVIAL_CONTAINMENT
    assert status.certificate is None


def test_pair_status_rejects_equal_loci():
    with pytest.raises(DomainError, match="pair_status requires distinct loci"):
        pair_status(BNLocus(20, 3, 17), BNLocus(20, 3, 17))


def test_a_locus_and_its_serre_dual_are_not_a_pair():
    # a locus and its Serre dual are one subvariety: every such pair with
    # rho < 0 is refused both ways, and no certificate on it verifies
    pairs = 0
    for g in range(3, 31):
        for r in range(1, g):
            for d in range(2 * r, 2 * g - 1):
                if rho(g, r, d) >= 0:
                    continue
                source = BNLocus(g, r, d)
                # the Serre dual; rho < 0 and d <= 2g - 2 keep both indices >= 0
                dual = BNLocus(g, g - d + r - 1, 2 * g - 2 - d)
                if dual == source:
                    continue
                pairs += 1
                with pytest.raises(DomainError, match="pair_status requires distinct loci"):
                    pair_status(source, dual, _AnyCite())
                cert = NonContainmentCertificate(source, dual, Rule.EXTERNAL, {"cite": "nobody"})
                assert not cert.verify(_AnyCite()), (source, dual)
    assert pairs > 1000


# ---------------------------------------------------------------------------
# one subvariety, one verdict: a side may be named by either Serre-dual
# representative


def _dual(locus):
    g, r, d = locus
    return BNLocus(g, g - d + r - 1, 2 * g - 2 - d)


def _canonical_loci(g):
    """One locus per non-empty proper subvariety at genus g: rho < 0, 2r <= d <= g - 1."""
    return [BNLocus(g, r, d) for r in range(1, g) for d in range(2 * r, g) if rho(g, r, d) < 0]


def _assert_one_verdict(a, b, ledger):
    """Every representation of the pair (a, b) gets one kind, rule and witness."""
    named = [(a, b), (_dual(a), b), (a, _dual(b)), (_dual(a), _dual(b))]
    statuses = [pair_status(source, target, ledger) for source, target in named]
    verdicts = [
        (s.kind, s.certificate and (s.certificate.rule, dict(s.certificate.witness)))
        for s in statuses
    ]
    assert verdicts.count(verdicts[0]) == 4, (a, b, verdicts)
    for (source, target), status in zip(named, statuses):
        cert = status.certificate
        if cert is not None:  # it keeps the loci as named, and verifies under each
            assert (cert.source, cert.target) == (source, target)
            for x, y in named:
                assert cert._replace(source=x, target=y).verify(ledger), (cert, x, y)
    return verdicts[0][0]


def test_verdicts_do_not_depend_on_the_representative(ledger):
    # every ordered pair of distinct subvarieties at g <= 21 without a ledger,
    # and at the ledger's genera 20 and 21 with it
    kinds = Counter()
    for genera, led in ((range(3, 22), None), ((20, 21), ledger)):
        for g in genera:
            loci = _canonical_loci(g)
            for a in loci:
                for b in loci:
                    if a != b:
                        kinds[_assert_one_verdict(a, b, led)] += 1
    assert all(kinds[kind] > 500 for kind in StatusKind), kinds


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_verdicts_do_not_depend_on_the_representative_up_to_g_200(ledger, data):
    g = data.draw(st.integers(3, 200), label="g")
    loci = []
    for side in ("source", "target"):
        # rho < 0 and d >= 2r: h = g - d + r with g < (r + 1)h and h <= g - r
        r = data.draw(st.integers(1, g - 2), label=f"{side} r")
        assume(g // (r + 1) + 1 <= g - r)
        h = data.draw(st.integers(g // (r + 1) + 1, g - r), label=f"{side} h")
        loci.append(BNLocus(g, r, g - h + r))
    a, b = loci
    assume(a != b and a != _dual(b))
    _assert_one_verdict(a, b, data.draw(st.sampled_from([None, ledger]), label="ledger"))


def test_no_rule_closure_or_ledger_key_sees_a_degree_of_g_or_more(monkeypatch, ledger):
    calls = Counter()

    def canonical(seen_by, *loci):
        assert all(locus.d <= locus.g - 1 for locus in loci), (seen_by, loci)
        calls[seen_by] += 1

    def wrap(derive):
        def wrapped(source, target, led):
            canonical("rule", source, target)
            return derive(source, target, led)
        return wrapped

    real_closure = certificates.trivial_closure

    def closure(start):
        canonical("closure", start)
        return real_closure(start)

    for rule, derive in list(certificates._RULES.items()):
        monkeypatch.setitem(certificates._RULES, rule, wrap(derive))
    monkeypatch.setattr(certificates, "trivial_closure", closure)
    for g in range(3, 22):
        loci = [x for a in _canonical_loci(g) for x in {a, _dual(a)}]
        for a in loci:
            for b in loci:
                if a != b and a != _dual(b):
                    status = pair_status(a, b, ledger)
                    if status.certificate is not None:
                        assert status.certificate.verify(ledger)
    assert calls["closure"] > 50_000 and calls["rule"] > 50_000
    for pair in ledger._cites:
        canonical("ledger key", *pair)
    dual_entry = Ledger([_entry(source=[5, 21])])  # (20, 5, 21) is the dual of (20, 3, 17)
    assert list(dual_entry._cites) == [(BNLocus(20, 3, 17), BNLocus(20, 1, 10))]


# ---------------------------------------------------------------------------
# pair_status and genus_report, genus 20 and 21


def test_genus_20_matrix_with_ledger(ledger):
    report = genus_report(20, ledger)
    assert report.verified and report.open_pairs == ()
    assert len(report.pairs) == 12
    by_rule = {}
    for verdict in report.pairs:
        assert verdict.status.kind is StatusKind.ESTABLISHED
        rule = verdict.status.certificate.rule
        by_rule[rule] = by_rule.get(rule, 0) + 1
    assert by_rule == {Rule.KAPPA_GAP: 6, Rule.DIMENSION: 1, Rule.EXTERNAL: 5}


def test_genus_20_selected_pairs(ledger):
    kg = pair_status(BNLocus(20, 1, 10), BNLocus(20, 2, 15), ledger)
    assert kg.certificate.rule is Rule.KAPPA_GAP
    assert dict(kg.certificate.witness) == {"kappa_source": 10, "kappa_target": 8}

    # kappa cannot separate (2,15) from (1,10) (8 < 10), and the dimension
    # rule precedes the external ledger in the fixed priority order
    dim = pair_status(BNLocus(20, 2, 15), BNLocus(20, 1, 10), ledger)
    assert dim.certificate.rule is Rule.DIMENSION
    assert dict(dim.certificate.witness) == {"rho_source": -1, "rho_target": -2}

    ext = pair_status(BNLocus(20, 3, 17), BNLocus(20, 2, 15), ledger)
    assert ext.certificate.rule is Rule.EXTERNAL
    assert dict(ext.certificate.witness) == {"cite": "Auel-Haburcak 2022"}


def test_genus_20_without_ledger():
    report = genus_report(20)
    open_keys = {(p.source.r, p.source.d, p.target.r, p.target.d) for p in report.open_pairs}
    assert open_keys == {
        (3, 17, 1, 10),
        (3, 17, 2, 15),
        (4, 19, 1, 10),
        (4, 19, 2, 15),
        (4, 19, 3, 17),
    }
    still = pair_status(BNLocus(20, 3, 17), BNLocus(20, 4, 19))
    assert still.kind is StatusKind.ESTABLISHED
    assert still.certificate.rule is Rule.KAPPA_GAP
    assert dict(still.certificate.witness) == {"kappa_source": 6, "kappa_target": 5}


def test_genus_21_exactly_one_open_pair(ledger):
    report = genus_report(21, ledger)
    assert not report.verified
    (open_pair,) = report.open_pairs
    assert (open_pair.source, open_pair.target) == (BNLocus(21, 3, 18), BNLocus(21, 4, 20))


def test_equidimensional_flip_frozen():
    # both loci sit at rho = -1; the forward direction has the kappa gap
    # 6 > 5 and irreducibility flips it
    fwd = pair_status(BNLocus(11, 1, 6), BNLocus(11, 2, 9))
    assert fwd.certificate.rule is Rule.KAPPA_GAP
    flip = pair_status(BNLocus(11, 2, 9), BNLocus(11, 1, 6))
    assert flip.certificate.rule is Rule.EQUIDIMENSIONAL_FLIP
    assert dict(flip.certificate.witness) == {"reverse_rule": "kappa-gap", "rho": -1}
    assert flip.certificate.verify()


# ---------------------------------------------------------------------------
# rho = -1 pairs: the lemma behind the flip rule, and the rule against its
# first form


def _rho_minus_one_loci(gmax):
    """genus -> its rho = -1 loci with d >= 2r, both Serre-dual representatives.

    With n = r + 1 and m = g - d + r, rho = -1 means n * m = g + 1, so the
    loci come from the factorizations g + 1 = n * m with 2 <= n <= m:
    (g, n - 1, g - m + n - 1), of degree <= g - 1, and its dual
    (g, m - 1, g + m - n - 1), which is itself when n = m.
    """
    loci = {}
    n = 2
    while n * n - 1 <= gmax:
        for m in range(n, (gmax + 1) // n + 1):
            g = n * m - 1
            loci.setdefault(g, []).append(BNLocus(g, n - 1, g - m + n - 1))
            if n < m:
                loci[g].append(BNLocus(g, m - 1, g + m - n - 1))
        n += 1
    return loci


def _lemma_holds(g, n, m):
    """kappa = n + m - 2 on the d <= g - 1 representative, and on its dual."""
    value = n + m - 2
    rep = kappa(g, n - 1, g - m + n - 1)
    dual = kappa(g, m - 1, g + m - n - 1)
    dual_branch = KappaBranch.SERRE_DUAL_REDUCTION if n < m else KappaBranch.CLOSED_SECOND_CASE
    return rep == (value, KappaBranch.CLOSED_SECOND_CASE) and dual == (value, dual_branch)


def test_rho_minus_one_kappa_is_n_plus_m_minus_two_and_injective():
    # the lemma in _flip's docstring, for every factorization with g <= 20,000
    kappas, checked = {}, 0
    n = 2
    while n * n - 1 <= 20_000:
        for m in range(n, 20_001 // n + 1):
            g = n * m - 1
            assert _lemma_holds(g, n, m), (g, n, m)
            # distinct subvarieties (distinct n <= m) have distinct kappa
            assert (g, n + m) not in kappas, (g, n, m, kappas.get((g, n + m)))
            kappas[g, n + m] = n
            checked += 1
        n += 1
    assert checked == 80_662


def test_rho_minus_one_loci_by_divisors_equal_the_scan():
    by_divisors = _rho_minus_one_loci(60)
    for g in range(2, 61):
        scanned = [BNLocus(g, r, d) for r in range(1, g) for d in range(2 * r, 2 * g - 1)
                   if rho(g, r, d) == -1]
        assert sorted(by_divisors.get(g, [])) == scanned, g


@given(st.integers(2, 10**6), st.integers(2, 10**12))
def test_rho_minus_one_lemma_up_to_g_10_to_the_12(n, m):
    n, m = min(n, m), max(n, m)
    m = min(m, (10**12 + 1) // n)
    g = n * m - 1
    assert rho(g, n - 1, g - m + n - 1) == -1 and _lemma_holds(g, n, m)


def _flip_by_reverse_walk(source, target, ledger):
    """The flip rule's first form: any other rule in the table certifies the reverse pair."""
    if source.rho != -1 or target.rho != -1:
        return None
    for rule, derive in certificates._RULES.items():
        if rule is not Rule.EQUIDIMENSIONAL_FLIP and derive(target, source, ledger) is not None:
            return {"reverse_rule": rule.value, "rho": -1}
    return None


def test_flip_agrees_with_the_reverse_walk_on_every_rho_minus_one_pair(monkeypatch, ledger):
    pairs = [
        (a, b)
        for loci in _rho_minus_one_loci(700).values()
        for a in loci
        for b in loci
        if a.kappa.value != b.kappa.value  # equal kappa: the same locus or its dual
    ]
    assert len(pairs) == 23_904
    ledgers = (None, ledger, _AnyCite())
    now = [pair_status(a, b, led) for led in ledgers for a, b in pairs]
    monkeypatch.setitem(certificates._RULES, Rule.EQUIDIMENSIONAL_FLIP, _flip_by_reverse_walk)
    assert [pair_status(a, b, led) for led in ledgers for a, b in pairs] == now
    flips = [s for s in now if s.certificate.rule is Rule.EQUIDIMENSIONAL_FLIP]
    assert len(flips) == 3 * len(pairs) // 2


def test_flip_needs_the_reverse_kappa_gap():
    # kappa(11, 1, 6) = 6 > kappa(11, 2, 9) = 5: the forward kappa gap
    # certifies this pair, so the flip has nothing to add, even where a
    # ledger cites the reverse pair
    source, target = BNLocus(11, 1, 6), BNLocus(11, 2, 9)
    assert _derive(Rule.EQUIDIMENSIONAL_FLIP, source, target, _AnyCite()) is None
    cert = NonContainmentCertificate(
        source, target, Rule.EQUIDIMENSIONAL_FLIP, {"reverse_rule": "external", "rho": -1}
    )
    assert not cert.verify(_AnyCite())


def test_flip_certificates_verify_without_a_ledger(ledger):
    flips = [
        verdict.status.certificate
        for g in range(3, 151)
        for verdict in genus_report(g, ledger).pairs
        if verdict.status.certificate is not None
        and verdict.status.certificate.rule is Rule.EQUIDIMENSIONAL_FLIP
    ]
    assert len(flips) == 258
    assert all(cert.verify() for cert in flips)


def test_established_and_trivial_containment_disjoint():
    for g in range(10, 61, 5):
        for verdict in genus_report(g).pairs:
            closure = trivial_closure(verdict.source)
            if verdict.status.kind is StatusKind.ESTABLISHED:
                assert verdict.target not in closure
            if verdict.status.kind is StatusKind.TRIVIAL_CONTAINMENT:
                assert verdict.status.certificate is None


# ---------------------------------------------------------------------------
# each locus' kappa is computed once, by its memo


def _count_kappa(monkeypatch):
    calls = []
    real = bn_core.kappa

    def counted(g, r, d):
        calls.append((g, r, d))
        return real(g, r, d)

    monkeypatch.setattr("bnkappa.bn_core.kappa", counted)
    return calls


def test_genus_report_computes_kappa_once_per_locus(monkeypatch):
    calls = _count_kappa(monkeypatch)
    report = genus_report(400)
    loci = [(rec.locus.g, rec.locus.r, rec.locus.d) for rec in report.loci]
    assert len(loci) == 19 and len(report.pairs) == 19 * 18
    assert calls == loci
    genus_report(400)  # a new report builds new loci: nothing is cached across calls
    assert calls == loci + loci


@pytest.mark.parametrize("source, target, rule", [
    ((20, 3, 17), (20, 4, 19), Rule.KAPPA_GAP),
    ((11, 2, 9), (11, 1, 6), Rule.EQUIDIMENSIONAL_FLIP),  # derives the reverse pair too
    ((21, 3, 18), (21, 4, 20), None),  # open: every rule is tried
])
def test_pair_status_computes_each_kappa_at_most_once(monkeypatch, source, target, rule):
    calls = _count_kappa(monkeypatch)
    status = pair_status(BNLocus(*source), BNLocus(*target))
    assert (status.certificate.rule if status.certificate else None) is rule
    assert len(calls) <= 2 and len(set(calls)) == len(calls)


def test_statuses_without_a_certificate_are_shared():
    report = genus_report(21)
    opens = [v.status for v in report.pairs if v.status.kind is StatusKind.OPEN]
    assert len(opens) > 1 and all(s is opens[0] for s in opens)
    trivial = pair_status(BNLocus(20, 3, 16), BNLocus(20, 3, 17))
    assert trivial.kind is StatusKind.TRIVIAL_CONTAINMENT and trivial.certificate is None
    assert pair_status(BNLocus(20, 2, 13), BNLocus(20, 2, 14)) is trivial


# ---------------------------------------------------------------------------
# invariant sweeps


def test_rho_minus_one_pairs_established_without_ledger():
    pairs = 0
    for g in range(10, 151):
        records = [rec for rec in enumerate_expected_maximal(g) if rec.rho == -1]
        for a in records:
            for b in records:
                if a.locus.r == b.locus.r:
                    continue
                status = pair_status(a.locus, b.locus)
                assert status.kind is StatusKind.ESTABLISHED, (a.locus, b.locus)
                assert status.certificate.rule is not Rule.EXTERNAL
                pairs += 1
    assert pairs == 516


def test_same_rho_clifford_corollary_subsumed_by_kappa():
    # equal rho, both in the divisor-hypothesis range, smaller Clifford index
    # on the source side: the kappa rule alone must separate them
    checked = 0
    for g in range(3, 81):
        groups = {}
        for r in range(1, g):
            for d in range(2 * r, g):
                rh = rho(g, r, d)
                if rh < 0 and g + 1 <= d // r + d:
                    groups.setdefault(rh, []).append((r, d))
        for members in groups.values():
            for r, d in members:
                for s, e in members:
                    if clifford_index(r, d) < clifford_index(s, e):
                        witness = _derive(Rule.KAPPA_GAP, BNLocus(g, r, d), BNLocus(g, s, e))
                        assert witness is not None, (g, r, d, s, e)
                        checked += 1
    assert checked == 395


def test_rho_minus_two_divisor_theorem():
    # source at rho = -2 with rank >= 2 against a rho = -1 target two or more
    # Clifford steps up: the divisor criterion fires (ceil(2*sqrt(2))-2 = 1),
    # and pair_status certifies each pair by its kappa gap
    fired = 0
    for g in range(10, 151):
        records = enumerate_expected_maximal(g)
        for a in records:
            for b in records:
                if a.locus == b.locus:
                    continue
                if (
                    a.rho == -2
                    and a.locus.r >= 2
                    and b.rho == -1
                    and clifford_index(b.locus.r, b.locus.d) - clifford_index(a.locus.r, a.locus.d) >= 2
                ):
                    assert _divisor_criterion(a.locus, b.locus) is not None
                    status = pair_status(a.locus, b.locus)
                    assert status.certificate.rule is Rule.KAPPA_GAP, (a.locus, b.locus)
                    fired += 1
    assert fired == 56


def _containing(g, source, nodes, hyperelliptic=True):
    """The loci among nodes that contain source, by breadth-first search.

    A locus is an (r, d) pair at genus g.  The edges are facts about
    subvarieties that hold for every curve: a trivial step, (r, d) into
    (r, d + 1) and (r - 1, d - 1); Serre duality, a locus and its dual
    (g - d + r - 1, 2g - 2 - d) being one subvariety; and, when hyperelliptic
    is true, the hyperelliptic locus (1, 2), with its dual, lying in every
    non-empty locus, since a hyperelliptic curve carries r times its g^1_2
    plus d - 2r base points.
    """
    hyperelliptic = {(1, 2), (g - 2, 2 * g - 4)} if hyperelliptic else set()
    seen, todo = {source}, [source]
    while todo:
        r, d = todo.pop()
        if (r, d) in hyperelliptic:
            return nodes
        for x in ((r, d + 1), (r - 1, d - 1), (g - d + r - 1, 2 * g - 2 - d)):
            if x in nodes and x not in seen:
                seen.add(x)
                todo.append(x)
    return seen


def test_no_established_pair_is_a_known_containment(ledger):
    # every ordered pair of distinct non-empty proper loci (rho < 0, d >= 2r)
    # at g <= 22.  TRIVIAL_CONTAINMENT is exactly what trivial steps and Serre
    # duals reach; no ESTABLISHED pair is reached with the hyperelliptic
    # locus added, which pair_status does not use
    established = contained = trivial = 0
    for g in range(3, 23):
        nodes = {(r, d) for r in range(1, g) for d in range(2 * r, 2 * g - 1)
                 if rho(g, r, d) < 0}
        loci = {x: BNLocus(g, *x) for x in nodes}
        for a in nodes:
            containing = _containing(g, a, nodes)
            trivially = _containing(g, a, nodes, hyperelliptic=False)
            dual = (g - a[1] + a[0] - 1, 2 * g - 2 - a[1])
            for b in nodes - {a, dual}:
                kind = pair_status(loci[a], loci[b], ledger).kind
                if kind is StatusKind.ESTABLISHED:
                    established += 1
                    assert b not in containing, (g, a, b)
                assert (kind is StatusKind.TRIVIAL_CONTAINMENT) == (b in trivially), (g, a, b)
                contained += b in containing
                trivial += b in trivially
    assert established > 50_000 and contained > trivial > 30_000


@pytest.mark.parametrize("source, target, witness", [
    # each source is the Serre dual of the hyperelliptic locus, inside the target
    ((11, 9, 18), (11, 2, 9), {"gamma_source": 0, "gamma_target": 5, "clifford_gap": 4}),
    ((17, 15, 30), (17, 1, 9), {"gamma_source": 0, "gamma_target": 7, "clifford_gap": 6}),
    # an empty source: d < 2r
    ((11, 10, 19), (11, 2, 9), {"gamma_source": -1, "gamma_target": 5, "clifford_gap": 5}),
])
def test_divisor_certificates_on_a_contained_or_empty_source_never_verify(
    source, target, witness
):
    # the witnesses the divisor criterion gives on the indices as named.
    # pair_status finds no certificate on these pairs, and a certificate that
    # carries such a witness verifies under no rule
    source, target = BNLocus(*source), BNLocus(*target)
    assert _divisor_criterion(source, target) == witness
    if source.d < 2 * source.r:
        with pytest.raises(DomainError):
            pair_status(source, target, _AnyCite())
    else:
        assert pair_status(source, target).certificate is None
    for rule in Rule:
        assert not NonContainmentCertificate(source, target, rule, witness).verify(_AnyCite())


def test_certificate_and_status_reprs_frozen():
    # selftest prints a certificate that fails to re-verify through its repr
    source, target = BNLocus(20, 3, 17), BNLocus(20, 4, 19)
    cert = NonContainmentCertificate(
        source, target, Rule.KAPPA_GAP, {"kappa_source": 6, "kappa_target": 5}
    )
    text = (
        "NonContainmentCertificate(source=BNLocus(g=20, r=3, d=17), "
        "target=BNLocus(g=20, r=4, d=19), rule=<Rule.KAPPA_GAP: 'kappa-gap'>, "
        "witness={'kappa_source': 6, 'kappa_target': 5})"
    )
    assert repr(cert) == str(cert) == f"{cert}" == text
    assert repr(pair_status(source, target)) == (
        f"PairStatus(kind=<StatusKind.ESTABLISHED: 'established'>, certificate={text})"
    )
    assert repr(pair_status(BNLocus(20, 1, 9), BNLocus(20, 1, 10))) == (
        "PairStatus(kind=<StatusKind.TRIVIAL_CONTAINMENT: 'trivial-containment'>, "
        "certificate=None)"
    )


def test_records_equal_and_hash_like_the_plain_tuple_of_their_fields(ledger):
    report = genus_report(20, ledger)
    trivial = pair_status(BNLocus(20, 1, 9), BNLocus(20, 1, 10))
    hashable = (report.loci[0], trivial, PairVerdict(BNLocus(20, 1, 9), BNLocus(20, 1, 10), trivial))
    for record in hashable:
        plain = tuple(record)
        assert record == plain and plain == record and hash(record) == hash(plain)
    # a witness is a dict, so a certificate, and whatever holds one, equals its
    # plain tuple but has no hash, as the frozen records before them had none
    cert = next(v.status.certificate for v in report.pairs if v.status.certificate)
    for record in (report, cert, PairStatus(StatusKind.ESTABLISHED, cert)):
        assert record == tuple(record) and tuple(record) == record
        with pytest.raises(TypeError):
            hash(record)
    assert cert._fields == ("source", "target", "rule", "witness")
    with pytest.raises(AttributeError):
        cert.rule = Rule.EXTERNAL

# ---------------------------------------------------------------------------
# certificate re-verification


def test_all_report_certificates_verify(ledger):
    for g in (20, 21):
        for verdict in genus_report(g, ledger).pairs:
            cert = verdict.status.certificate
            if cert is not None:
                assert cert.verify(ledger), (verdict.source, verdict.target)


def test_verify_answers_alike_on_report_loci_and_fresh_copies(ledger):
    for g in (20, 21, 60):
        for verdict in genus_report(g, ledger).pairs:
            cert = verdict.status.certificate
            if cert is None:
                continue
            fresh = cert._replace(
                source=BNLocus(*cert.source), target=BNLocus(*cert.target)
            )
            assert fresh.source is not cert.source and fresh == cert
            assert cert.verify(ledger) is fresh.verify(ledger) is True
            assert cert.verify() is fresh.verify()
            swapped = cert._replace(source=cert.target, target=cert.source)
            fresh_swapped = fresh._replace(source=fresh.target, target=fresh.source)
            assert swapped.verify(ledger) is fresh_swapped.verify(ledger)


def test_corrupted_witnesses_fail_verification(ledger):
    good = NonContainmentCertificate(
        BNLocus(20, 3, 17),
        BNLocus(20, 4, 19),
        Rule.KAPPA_GAP,
        {"kappa_source": 6, "kappa_target": 5},
    )
    bad = NonContainmentCertificate(
        good.source, good.target, good.rule, {"kappa_source": 7, "kappa_target": 5}
    )
    assert good.verify() and not bad.verify()

    dim = NonContainmentCertificate(
        BNLocus(24, 4, 23), BNLocus(24, 2, 17), Rule.DIMENSION, {"rho_source": -1, "rho_target": -3}
    )
    tampered = NonContainmentCertificate(
        dim.source, dim.target, dim.rule, {"rho_source": -1, "rho_target": -5}
    )
    assert dim.verify() and not tampered.verify()

    ext = pair_status(BNLocus(20, 3, 17), BNLocus(20, 2, 15), ledger).certificate
    wrong_cite = NonContainmentCertificate(
        ext.source, ext.target, ext.rule, {"cite": "someone else"}
    )
    assert ext.verify(ledger)
    assert not wrong_cite.verify(ledger)
    assert not ext.verify()  # external facts are unverifiable without the ledger

    missing_field = NonContainmentCertificate(
        good.source, good.target, Rule.KAPPA_GAP, {"kappa_source": 6}
    )
    assert not missing_field.verify()

    extra_field = NonContainmentCertificate(
        good.source, good.target, Rule.KAPPA_GAP, {**good.witness, "note": "extra"}
    )
    assert not extra_field.verify()

    # the divisor criterion's pair is a kappa gap, and its Clifford witness
    # does not verify in the kappa gap's place
    div = pair_status(BNLocus(31, 2, 22), BNLocus(31, 3, 26)).certificate
    as_divisor = div._replace(witness={"gamma_source": 18, "gamma_target": 20, "clifford_gap": 1})
    assert div.verify() and not as_divisor.verify()

    flip = pair_status(BNLocus(11, 2, 9), BNLocus(11, 1, 6)).certificate
    wrong_rho = NonContainmentCertificate(
        flip.source, flip.target, flip.rule, {**flip.witness, "rho": -7}
    )
    assert flip.verify() and not wrong_rho.verify()


# ---------------------------------------------------------------------------
# ledger parsing


def _entry(**overrides):
    base = {"g": 20, "source": [3, 17], "target": [1, 10], "cite": "X 2020"}
    base.update(overrides)
    return base


def test_shipped_ledger_contents(ledger):
    with open(SHIPPED_LEDGER, encoding="utf-8") as fh:
        entries = json.load(fh)
    assert len(entries) == 11
    for e in entries:  # every shipped entry is reachable by its own pair
        source, target = BNLocus(e["g"], *e["source"]), BNLocus(e["g"], *e["target"])
        assert ledger.lookup(source, target) == e["cite"]
    assert ledger.lookup(BNLocus(20, 3, 17), BNLocus(20, 1, 10)) == "Auel-Haburcak 2022"
    assert ledger.lookup(BNLocus(21, 4, 20), BNLocus(21, 3, 18)) == "Auel-Haburcak 2022"
    # the one genuinely open direction is deliberately absent
    assert ledger.lookup(BNLocus(21, 3, 18), BNLocus(21, 4, 20)) is None
    assert ledger.lookup(BNLocus(20, 3, 17), BNLocus(21, 1, 11)) is None


def test_lookup_answers_only_for_the_representatives_pair_status_hands_on(ledger):
    # (20, 5, 21) is the Serre dual of (20, 3, 17): lookup is keyed on the
    # representative with d <= g - 1, and pair_status finds the entry under it
    source, target = BNLocus(20, 5, 21), BNLocus(20, 1, 10)
    assert ledger.lookup(source, target) is None
    assert ledger.lookup(_dual(source), target) == "Auel-Haburcak 2022"
    assert pair_status(source, target, ledger).certificate.rule is Rule.EXTERNAL


def test_load_ledger_reads_only_one_json_array(tmp_path):
    entries = [_entry(), _entry(target=[2, 15], cite="Y 2021")]
    array_file = tmp_path / "array.json"
    array_file.write_text(json.dumps(entries))
    assert load_ledger(array_file).lookup(BNLocus(20, 3, 17), BNLocus(20, 2, 15)) == "Y 2021"
    for name, text in [
        ("lines.json", "\n".join(json.dumps(e) for e in entries) + "\n"),
        ("object.json", json.dumps(entries[0])),
        ("empty.json", ""),
    ]:
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(LedgerError):
            load_ledger(path)


@pytest.mark.parametrize(
    "bad",
    [
        _entry(extra=1),  # unknown field
        {"g": 20, "source": [3, 17], "target": [1, 10]},  # missing cite
        _entry(g=True),  # bool masquerading as int
        _entry(g="20"),
        _entry(source=[3]),  # not a pair
        _entry(source=[3, "17"]),
        _entry(target=[1, True]),
        _entry(cite=""),
        _entry(cite=7),
        _entry(target=[3, 17]),  # source equals target
        _entry(target=[5, 21]),  # the Serre dual (20, 20 - 17 + 3 - 1, 2*20 - 2 - 17)
        _entry(source=[1, 19]),  # rho(20, 1, 19) = 16 >= 0: pair_status refuses it
        _entry(source=[-1, 5]),  # a negative rank
        _entry(g=1),  # genus below 2
        [20, [3, 17], [1, 10], "X 2020"],  # not an object
        "X 2020",
    ],
)
def test_load_ledger_rejects_malformed_entries(tmp_path, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([bad]))
    with pytest.raises(LedgerError):
        load_ledger(path)


def test_load_ledger_rejects_duplicates_and_garbage(tmp_path):
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps([_entry(), _entry()]))
    with pytest.raises(LedgerError):
        load_ledger(dup)
    repeated = tmp_path / "repeated.json"
    repeated.write_text('[{"g": 20, "g": 21, "source": [3, 17], "target": [1, 10], "cite": "X"}]')
    with pytest.raises(LedgerError, match="repeated field 'g'"):
        load_ledger(repeated)
    broken = tmp_path / "broken.json"
    broken.write_text("[{]")
    with pytest.raises(LedgerError):
        load_ledger(broken)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    with pytest.raises(LedgerError):
        load_ledger(deep)
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b"\xff\xfe[]")
    with pytest.raises(LedgerError):
        load_ledger(not_utf8)
    with pytest.raises(LedgerError):
        load_ledger(tmp_path / "nope.json")


def test_ledger_duplicate_key_rejected_at_construction():
    with pytest.raises(LedgerError, match="duplicate ledger entry"):
        Ledger([_entry(), _entry()])
    # (20, 5, 21) is the Serre dual of (20, 3, 17): the same pair of subvarieties
    dual = r"duplicate ledger entry for \(20, \(5, 21\), \(1, 10\)\)"
    with pytest.raises(LedgerError, match=dual):
        Ledger([_entry(), _entry(source=[5, 21])])


def test_ledger_entry_under_a_serre_dual_certifies_the_subvariety_pair():
    source, target = BNLocus(20, 3, 17), BNLocus(20, 1, 10)
    assert pair_status(source, target).kind is StatusKind.OPEN
    for written in ([3, 17], [5, 21]):
        led = Ledger([_entry(source=written, cite="Z 2022")])
        for named in (source, _dual(source)):
            cert = pair_status(named, target, led).certificate
            assert (cert.source, cert.rule, dict(cert.witness)) == (
                named, Rule.EXTERNAL, {"cite": "Z 2022"}
            )
            assert cert.verify(led) and not cert.verify()
