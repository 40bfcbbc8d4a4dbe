"""Tests of the benchmark's own reference, checks and tracer.

    python3 -m pytest bench/test_bench.py
"""

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

from bnkappa import certificates, cli, maximal_loci  # noqa: E402


def test_reference_kappa_worked_values():
    assert ref.kappa(20, 3, 17) == 6 > 5 == ref.kappa(20, 4, 19)
    assert ref.kappa(24, 2, 17) == ref.kappa(24, 4, 23) == 8
    assert ref.kappa(27, 2, 19) == ref.kappa(27, 3, 23) == 9


def test_reference_kappa_bisection_equals_a_scan_over_k():
    for g in range(3, 31):
        for r in range(1, g):
            for d in range(2 * r, 2 * g - 1):
                if ref.rho(g, r, d) >= 0 or g - d + r < 1:
                    continue
                scan = max(k for k in range(2, (g + 3) // 2 + 1) if ref.rho_k(g, r, d, k) >= 0)
                assert ref.kappa(g, r, d) == scan, (g, r, d)


def _report_20():
    ledger = certificates.load_ledger(ROOT / wl.LEDGER)
    return wl.report_rows(certificates.genus_report(20, ledger))


def test_atlas_check_rejects_a_witness_with_a_wrong_kappa():
    loci, pairs = _report_20()
    assert wl.check_report(20, True, loci, pairs) == []
    i = next(i for i, p in enumerate(pairs) if p[3] == "kappa-gap")
    a, b, status, rule, witness = pairs[i]
    pairs[i] = (a, b, status, rule, {**witness, "kappa_source": witness["kappa_source"] + 1})
    assert wl.check_report(20, True, loci, pairs)


def test_scans_check_rejects_a_wrong_G():
    assert wl.check_G(2, 28, random.Random(1)) == []
    assert wl.check_G(2, 29, random.Random(1))
    G = maximal_loci.compute_G(11)  # beyond the table: the reference decides
    assert wl.check_G(11, G, random.Random(1)) == []
    assert wl.check_G(11, G + 1, random.Random(1))
    assert wl.check_G(11, G - 1, random.Random(1))


def test_cli_check_rejects_a_flipped_verdict(capsys):
    argv = ("report", "--g", "20", "--ledger", str(ROOT / wl.LEDGER), "--format", "json")
    assert cli.main(list(argv)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert wl.check_cli(argv, 0, json.dumps(doc)) == []
    doc["result"]["pairs"][0]["status"] = "open"
    assert wl.check_cli(argv, 0, json.dumps(doc))
    doc["result"]["pairs"][0]["status"] = "established"
    doc["result"]["conjecture"] = "open"
    assert wl.check_cli(argv, 0, json.dumps(doc))


def test_tracer_sees_calls_through_every_binding_and_restores_them():
    original = certificates.genus_report
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.genus_report is certificates.genus_report is not original
        certificates.genus_report(40)
    finally:
        tracer.uninstall()
    assert cli.genus_report is certificates.genus_report is original
    stats = tracer.stats
    pairs = 5 * 4  # r_max(40) = 5
    assert stats["certificates.genus_report"].calls == 1
    assert stats["certificates.pair_status"].calls == pairs
    assert stats["certificates.trivial_closure"].calls == pairs
    assert stats["exact_arith.floor_neg_2sqrt"].calls > 0  # bound in bn_core by name
    report = stats["certificates.genus_report"]
    assert 0 < report.self_s < report.total_s


def test_per_layer_metrics_do_not_depend_on_the_number_of_rounds():
    import run

    figures = []
    for rounds in (1, 3):
        tracer = Tracer()
        tracer.install()
        try:
            for _ in range(rounds):
                maximal_loci.compute_G(4)
                maximal_loci.exceptional_genera(4)  # the same genera again
                certificates.genus_report(30)
        finally:
            tracer.uninstall()
        metrics = run.per_layer(tracer.stats, rounds)
        figures.append({k: v for k, v in metrics.items() if not k.endswith("s")})
    assert figures[0] == figures[1]
    assert figures[0]["maximal_loci.kappa_at_dmax.calls_per_pair"] > 1
