"""Non-containment certificates, pair statuses, reports, and the ledger."""

import json

import pytest

from bnkappa import certificates
from bnkappa.bn_core import BNLocus, clifford_index, rho
from bnkappa.certificates import (
    Ledger,
    LedgerEntry,
    LedgerError,
    NonContainmentCertificate,
    Rule,
    StatusKind,
    TrivialClosure,
    genus_report,
    load_ledger,
    pair_status,
    trivial_closure,
)
from bnkappa.errors import DomainError
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


def test_divisor_rule_frozen():
    for src, tgt, gammas in [
        ((31, 2, 22), (31, 3, 26), (18, 20)),
        ((34, 2, 24), (34, 4, 31), (20, 23)),
        ((54, 3, 43), (54, 4, 47), (37, 39)),
    ]:
        witness = {"gamma_source": gammas[0], "gamma_target": gammas[1], "clifford_gap": 1}
        cert = NonContainmentCertificate(
            BNLocus(*src), BNLocus(*tgt), Rule.DIVISOR_CRITERION, witness
        )
        assert cert.verify()


def test_divisor_rule_refusals():
    # rank-1 sources are the kappa rule's job
    assert _derive(Rule.DIVISOR_CRITERION, BNLocus(11, 1, 6), BNLocus(11, 2, 9)) is None
    # target must sit at rho = -1 exactly
    with pytest.raises(DomainError):
        _derive(Rule.DIVISOR_CRITERION, BNLocus(21, 3, 18), BNLocus(21, 4, 20))
    # Clifford gap too small: gamma 11 vs 11 at genus 20
    assert _derive(Rule.DIVISOR_CRITERION, BNLocus(20, 3, 17), BNLocus(20, 2, 15)) is None


def test_rules_reject_inadmissible_pairs():
    for source, target in [
        (BNLocus(20, 3, 17), BNLocus(21, 2, 15)),  # genus mismatch
        (BNLocus(20, 1, 12), BNLocus(20, 2, 15)),  # rho(source) >= 0
        (BNLocus(20, 3, 17), BNLocus(20, 3, 17)),  # equal loci
    ]:
        with pytest.raises(DomainError):
            pair_status(source, target, _AnyCite())
        for rule in Rule:
            # the witness the rule itself would give, were the pair admissible
            try:
                witness = _derive(rule, source, target, _AnyCite()) or {}
            except DomainError:
                witness = {}
            cert = NonContainmentCertificate(source, target, rule, witness)
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
    closure = trivial_closure(20, 3, 16)
    assert BNLocus(20, 3, 17) in closure
    assert BNLocus(20, 2, 15) in closure
    assert BNLocus(20, 3, 16) not in closure  # the start is not its own step
    assert all(x.g == 20 and x.d <= 38 for x in closure)


def test_pair_status_at_huge_genus_never_walks_the_closure(monkeypatch):
    def no_walk(self):
        pytest.fail("a membership test must not walk the closure")

    monkeypatch.setattr(TrivialClosure, "__iter__", no_walk)
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


def test_established_and_trivial_containment_disjoint():
    for g in range(10, 61, 5):
        for verdict in genus_report(g).pairs:
            closure = trivial_closure(verdict.source.g, verdict.source.r, verdict.source.d)
            if verdict.status.kind is StatusKind.ESTABLISHED:
                assert verdict.target not in closure
            if verdict.status.kind is StatusKind.TRIVIAL_CONTAINMENT:
                assert verdict.status.certificate is None


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
    # Clifford steps up: the divisor criterion must fire (ceil(2*sqrt(2))-2 = 1)
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
                    and b.locus.gamma() - a.locus.gamma() >= 2
                ):
                    assert _derive(Rule.DIVISOR_CRITERION, a.locus, b.locus) is not None
                    fired += 1
    assert fired == 56


# ---------------------------------------------------------------------------
# certificate re-verification


def test_all_report_certificates_verify(ledger):
    for g in (20, 21):
        for verdict in genus_report(g, ledger).pairs:
            cert = verdict.status.certificate
            if cert is not None:
                assert cert.verify(ledger), (verdict.source, verdict.target)


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

    div = NonContainmentCertificate(
        BNLocus(31, 2, 22),
        BNLocus(31, 3, 26),
        Rule.DIVISOR_CRITERION,
        {"gamma_source": 18, "gamma_target": 20, "clifford_gap": 1},
    )
    wrong_gap = NonContainmentCertificate(
        div.source, div.target, div.rule, {**div.witness, "clifford_gap": 999}
    )
    assert div.verify() and not wrong_gap.verify()

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
    assert len(ledger.entries) == 11
    assert ledger.lookup(BNLocus(20, 3, 17), BNLocus(20, 1, 10)) == "Auel-Haburcak 2022"
    assert ledger.lookup(BNLocus(21, 4, 20), BNLocus(21, 3, 18)) == "Auel-Haburcak 2022"
    # the one genuinely open direction is deliberately absent
    assert ledger.lookup(BNLocus(21, 3, 18), BNLocus(21, 4, 20)) is None
    assert ledger.lookup(BNLocus(20, 3, 17), BNLocus(21, 1, 11)) is None


def test_load_ledger_array_and_lines_agree(tmp_path):
    entries = [_entry(), _entry(target=[2, 15], cite="Y 2021")]
    array_file = tmp_path / "array.json"
    array_file.write_text(json.dumps(entries))
    lines_file = tmp_path / "lines.json"
    lines_file.write_text("\n".join(json.dumps(e) for e in entries) + "\n")
    a, b = load_ledger(array_file), load_ledger(lines_file)
    assert a.entries == b.entries
    assert a.lookup(BNLocus(20, 3, 17), BNLocus(20, 2, 15)) == "Y 2021"


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
    broken = tmp_path / "broken.json"
    broken.write_text("[{]")
    with pytest.raises(LedgerError):
        load_ledger(broken)
    with pytest.raises(LedgerError):
        load_ledger(tmp_path / "nope.json")


def test_ledger_duplicate_key_rejected_at_construction():
    entry = LedgerEntry(20, (3, 17), (1, 10), "X 2020")
    with pytest.raises(LedgerError):
        Ledger([entry, entry])
