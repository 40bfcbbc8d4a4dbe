"""CLI surface: output formats, exit codes, and library round-trips."""

import json
import subprocess
import sys

import pytest

from bnkappa import maximal_loci
from bnkappa.bn_core import KappaBranch, KappaResult
from bnkappa.certificates import GenusReport, TrivialClosure
from bnkappa.cli import REPORT_GENUS_CEILING, SCAN_RANK_CEILING, main

LEDGER = "data/known.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _refused(*args):
    pytest.fail("a refused command must not start its work")


# ---------------------------------------------------------------------------
# scalar commands


def test_rho_scalar(capsys):
    code, out, _ = run(capsys, "rho", "--g", "20", "--r", "0", "--d", "17")
    assert (code, out) == (0, "17\n")


def test_gamma_scalar(capsys):
    code, out, _ = run(capsys, "gamma", "--r", "3", "--d", "17")
    assert (code, out) == (0, "11\n")


def test_rhok_scalar(capsys):
    code, out, _ = run(capsys, "rhok", "--g", "20", "--r", "3", "--d", "17", "--k", "6")
    assert (code, out) == (0, "0\n")


def test_dmax_scalar(capsys):
    code, out, _ = run(capsys, "dmax", "--g", "20", "--r", "3")
    assert (code, out) == (0, "17\n")


def test_kappa_table_prints_bare_value(capsys):
    code, out, _ = run(capsys, "kappa", "--g", "20", "--r", "3", "--d", "17")
    assert (code, out) == (0, "6\n")


def test_kappa_closed_method_covers_serre_range(capsys):
    code, out, _ = run(capsys, "kappa", "--g", "20", "--r", "5", "--d", "21",
                       "--method", "closed")
    assert (code, out) == (0, "6\n")


def test_scalar_json_and_csv_frozen(capsys):
    code, out, _ = run(capsys, "rho", "--g", "20", "--r", "3", "--d", "17", "--format", "json")
    assert (code, out) == (0, (
        '{\n  "command": "rho",\n  "inputs": {\n    "g": 20,\n    "r": 3,\n'
        '    "d": 17\n  },\n  "result": -4\n}\n'
    ))
    code, out, _ = run(capsys, "rho", "--g", "20", "--r", "3", "--d", "17", "--format", "csv")
    assert (code, out) == (0, "value\r\n-4\r\n")


def test_kappa_csv_frozen(capsys):
    code, out, _ = run(capsys, "kappa", "--g", "20", "--r", "3", "--d", "17", "--format", "csv")
    assert (code, out) == (0, (
        "method,value,branch,rho,gamma\r\n"
        "closed,6,closed-second-case,-4,11\r\n"
        "brute,6,brute-force,-4,11\r\n"
    ))


def test_kappa_json_structure(capsys):
    code, out, _ = run(capsys, "kappa", "--g", "20", "--r", "3", "--d", "17",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "kappa"
    assert doc["inputs"] == {"g": 20, "r": 3, "d": 17, "method": "both"}
    assert doc["result"]["value"] == 6
    assert doc["result"]["closed"] == {
        "value": 6, "branch": "closed-second-case", "rho": -4, "gamma": 11,
    }
    assert doc["result"]["brute"]["branch"] == "brute-force"


def test_kappa_both_methods_at_huge_genus(capsys):
    # d = d_max(10**9, 2); the brute route must not scan all ~5*10**8 gonalities
    code, out, _ = run(capsys, "kappa", "--g", "1000000000", "--r", "2",
                       "--d", "666666668", "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["closed"]["value"] == result["brute"]["value"] == result["value"]


def test_kappa_method_mismatch_is_internal_error(capsys, monkeypatch):
    fake = KappaResult(7, KappaBranch.BRUTE_FORCE, -4, 11)
    monkeypatch.setattr("bnkappa.bn_core.kappa_brute", lambda g, r, d: fake)
    code, _, err = run(capsys, "kappa", "--g", "20", "--r", "3", "--d", "17")
    assert code == 3
    assert "internal error" in err


def test_kappa_domain_error_exit_2(capsys):
    code, _, err = run(capsys, "kappa", "--g", "20", "--r", "1", "--d", "12")
    assert code == 2
    assert err.startswith("error:")


def test_kappa_closed_outside_the_formula_names_the_condition(capsys):
    # rho(10, 6, 11) = -25 but d < 2r: no closed value, and no brute one either
    code, out, err = run(capsys, "kappa", "--method", "closed", "--g", "10", "--r", "6",
                         "--d", "11")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "d - 2r >= 0" in err
    assert "kappa_brute" not in err


@pytest.mark.parametrize("argv", [["--r", "3", "--d", "-5"], ["--r", "-1", "--d", "17"]])
def test_gamma_negative_rank_or_degree_exit_2(capsys, argv):
    code, out, err = run(capsys, "gamma", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# usage errors


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["kappa"],
        ["kappa", "--g", "20", "--r", "3"],
        ["kappa", "--g", "20", "--r", "3", "--d", "x"],
        ["kappa", "--g", "20", "--r", "3", "--d", "17", "--format", "xml"],
        ["no-such-command"],
        ["check", "--source", "20,3", "--target", "20,4,19"],
    ],
)
def test_usage_errors_exit_1(capsys, argv):
    code, _, _ = run(capsys, *argv)
    assert code == 1


def test_version_flag(capsys):
    code, out, err = run(capsys, "--version")
    assert code == 0
    assert "bnkappa" in out + err


# ---------------------------------------------------------------------------
# maximal


def test_maximal_table_frozen(capsys):
    code, out, _ = run(capsys, "maximal", "--g", "20")
    assert code == 0
    assert out.splitlines() == [
        "r  d   rho  kappa  lower_bound_approx  upper_bound_approx",
        "1  10  -2   10     8.1716              11.0000",
        "2  15  -1   8      5.2026              8.6667",
        "3  17  -4   6      4.0000              8.0000",
        "4  19  -5   5      3.5279              8.0000",
    ]


def test_maximal_csv_rfc4180(capsys):
    code, out, _ = run(capsys, "maximal", "--g", "20", "--format", "csv")
    assert code == 0
    lines = out.split("\r\n")
    assert lines[0] == "r,d,rho,kappa,lower_bound_approx,upper_bound_approx"
    assert lines[1] == "1,10,-2,10,8.1716,11.0000"
    assert len(lines) == 6 and lines[5] == ""


def test_maximal_json_round_trips_library_values(capsys):
    code, out, _ = run(capsys, "maximal", "--g", "21", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    records = maximal_loci.enumerate_expected_maximal(21)
    assert len(doc["result"]) == len(records)
    for row, rec in zip(doc["result"], records):
        assert row["r"] == rec.locus.r
        assert row["d"] == rec.locus.d
        assert row["rho"] == rec.rho
        assert row["kappa"] == rec.kappa.value
        assert row["lower_bound_approx"] == f"{rec.lower_bound.approx():.4f}"


def test_maximal_domain_error(capsys):
    code, _, err = run(capsys, "maximal", "--g", "2")
    assert code == 2 and err.startswith("error:")


# ---------------------------------------------------------------------------
# report / check


def test_report_genus_20_verified(capsys):
    code, out, _ = run(capsys, "report", "--g", "20", "--ledger", LEDGER)
    assert code == 0
    assert "conjecture at genus 20: verified (12 pairs established)" in out


def test_report_genus_21_open_pair(capsys):
    code, out, _ = run(capsys, "report", "--g", "21", "--ledger", LEDGER)
    assert code == 0  # open pairs are findings, not failures
    assert "1 open pair(s): (3,18) vs (4,20)" in out


def test_report_json_no_ledger(capsys):
    code, out, _ = run(capsys, "report", "--g", "20", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["conjecture"] == "open"
    assert [[3, 17], [4, 19]] not in doc["result"]["open_pairs"]
    assert [[4, 19], [3, 17]] in doc["result"]["open_pairs"]
    kappa_gap = [p for p in doc["result"]["pairs"]
                 if p["source"] == [3, 17] and p["target"] == [4, 19]]
    assert kappa_gap[0]["rule"] == "kappa-gap"
    assert kappa_gap[0]["witness"] == {"kappa_source": 6, "kappa_target": 5}


def test_report_json_with_ledger_verified(capsys):
    code, out, _ = run(capsys, "report", "--g", "20", "--ledger", LEDGER,
                       "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["result"]["conjecture"] == "verified"
    assert doc["result"]["open_pairs"] == []
    assert len(doc["result"]["pairs"]) == 12


REPORT_21_PAIRS = [
    ("1", "11", "2", "15", "established", "kappa-gap", "kappa_source=11 kappa_target=7"),
    ("1", "11", "3", "18", "established", "kappa-gap", "kappa_source=11 kappa_target=6"),
    ("1", "11", "4", "20", "established", "kappa-gap", "kappa_source=11 kappa_target=6"),
    ("2", "15", "1", "11", "established", "external", "cite=Auel-Haburcak 2022"),
    ("2", "15", "3", "18", "established", "kappa-gap", "kappa_source=7 kappa_target=6"),
    ("2", "15", "4", "20", "established", "kappa-gap", "kappa_source=7 kappa_target=6"),
    ("3", "18", "1", "11", "established", "external", "cite=Auel-Haburcak 2022"),
    ("3", "18", "2", "15", "established", "external", "cite=Auel-Haburcak 2022"),
    ("3", "18", "4", "20", "open", "", ""),
    ("4", "20", "1", "11", "established", "external", "cite=Auel-Haburcak 2022"),
    ("4", "20", "2", "15", "established", "external", "cite=Auel-Haburcak 2022"),
    ("4", "20", "3", "18", "established", "external", "cite=Auel-Haburcak 2022"),
]


def test_report_genus_21_table_frozen(capsys):
    code, out, _ = run(capsys, "report", "--g", "21", "--ledger", LEDGER)
    assert code == 0
    assert out.splitlines() == [
        "expected maximal loci at genus 21",
        "r  d   rho  kappa  lower_bound_approx  upper_bound_approx",
        "1  11  -1   11     8.6716              11.5000",
        "2  15  -3   7      5.5359              9.0000",
        "3  18  -3   6      4.2500              8.2500",
        "4  20  -4   6      3.7279              8.2000",
        "",
        "ordered pair statuses (source not contained in target?)",
        "source_r  source_d  target_r  target_d  status       rule       detail",
        "1         11        2         15        established  kappa-gap  kappa_source=11 kappa_target=7",
        "1         11        3         18        established  kappa-gap  kappa_source=11 kappa_target=6",
        "1         11        4         20        established  kappa-gap  kappa_source=11 kappa_target=6",
        "2         15        1         11        established  external   cite=Auel-Haburcak 2022",
        "2         15        3         18        established  kappa-gap  kappa_source=7 kappa_target=6",
        "2         15        4         20        established  kappa-gap  kappa_source=7 kappa_target=6",
        "3         18        1         11        established  external   cite=Auel-Haburcak 2022",
        "3         18        2         15        established  external   cite=Auel-Haburcak 2022",
        "3         18        4         20        open",
        "4         20        1         11        established  external   cite=Auel-Haburcak 2022",
        "4         20        2         15        established  external   cite=Auel-Haburcak 2022",
        "4         20        3         18        established  external   cite=Auel-Haburcak 2022",
        "",
        "conjecture at genus 21: 1 open pair(s): (3,18) vs (4,20)",
    ]


def test_report_genus_21_csv_frozen(capsys):
    code, out, _ = run(capsys, "report", "--g", "21", "--ledger", LEDGER, "--format", "csv")
    assert code == 0
    header = "source_r,source_d,target_r,target_d,status,rule,detail"
    assert out == "".join(line + "\r\n" for line in [header, *map(",".join, REPORT_21_PAIRS)])


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_report_enumerates_loci_once(capsys, monkeypatch, fmt):
    calls = []
    original = maximal_loci.enumerate_expected_maximal

    def counted(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr("bnkappa.maximal_loci.enumerate_expected_maximal", counted)
    monkeypatch.setattr("bnkappa.certificates.enumerate_expected_maximal", counted)
    code, _, _ = run(capsys, "report", "--g", "20", "--format", fmt)
    assert code == 0 and calls == [20]


def test_report_malformed_ledger_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('[{"g": 20, "source": [3, 17], "target": [1, 10], "cite": "x", "oops": 1}]')
    code, _, err = run(capsys, "report", "--g", "20", "--ledger", str(bad))
    assert code == 1
    assert "malformed ledger" in err


def test_report_missing_ledger_exit_1(capsys, tmp_path):
    code, _, err = run(capsys, "report", "--g", "20", "--ledger", str(tmp_path / "no.json"))
    assert code == 1 and "malformed ledger" in err


@pytest.mark.parametrize("argv", [
    ("report", "--g", str(REPORT_GENUS_CEILING + 1)),
    ("report", "--g", str(REPORT_GENUS_CEILING + 1), "--ledger", LEDGER, "--format", "csv"),
    ("report", "--g", str(10**9), "--format", "json"),
])
def test_report_above_the_ceiling_exit_2_before_any_work(capsys, monkeypatch, argv):
    monkeypatch.setattr("bnkappa.cli.genus_report", _refused)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and f"capped at {REPORT_GENUS_CEILING}" in err


def test_report_at_the_ceiling_runs(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("bnkappa.cli.genus_report",
                        lambda g, ledger: calls.append(g) or GenusReport(g, (), ()))
    code, out, _ = run(capsys, "report", "--g", str(REPORT_GENUS_CEILING), "--format", "json")
    assert (code, calls) == (0, [REPORT_GENUS_CEILING])
    assert json.loads(out)["result"]["g"] == REPORT_GENUS_CEILING


def test_check_at_huge_genus_never_walks_the_closure(capsys, monkeypatch):
    def no_walk(self):
        pytest.fail("a membership test must not walk the closure")

    monkeypatch.setattr(TrivialClosure, "__iter__", no_walk)
    g = 10**9  # d_max(g, 1) and d_max(g, 2)
    code, out, _ = run(capsys, "check", "--source", f"{g},1,500000000",
                       "--target", f"{g},2,666666668", "--format", "csv")
    assert (code, out.splitlines()[1]) == (
        0, "1,500000000,2,666666668,established,kappa-gap,"
           "kappa_source=500000000 kappa_target=333333334"
    )
    code, out, _ = run(capsys, "check", "--source", f"{g},2,666666668",
                       "--target", f"{g},1,500000000", "--format", "csv")
    assert (code, out.splitlines()[1]) == (0, "2,666666668,1,500000000,open,,")


def test_check_table_frozen(capsys):
    code, out, _ = run(capsys, "check", "--source", "20,3,17", "--target", "20,4,19")
    assert code == 0
    assert out == (
        "(g=20, r=3, d=17) vs (g=20, r=4, d=19): established "
        "rule=kappa-gap kappa_source=6 kappa_target=5\n"
    )


def test_check_open_and_trivial(capsys):
    code, out, _ = run(capsys, "check", "--source", "21,3,18", "--target", "21,4,20")
    assert code == 0 and "open" in out
    code, out, _ = run(capsys, "check", "--source", "20,3,16", "--target", "20,3,17")
    assert code == 0 and "trivial-containment" in out


def test_check_csv_frozen(capsys):
    header = "source_r,source_d,target_r,target_d,status,rule,detail\r\n"
    code, out, _ = run(capsys, "check", "--source", "20,3,17", "--target", "20,4,19",
                       "--format", "csv")
    assert (code, out) == (0, header + "3,17,4,19,established,kappa-gap,"
                              "kappa_source=6 kappa_target=5\r\n")
    code, out, _ = run(capsys, "check", "--source", "21,3,18", "--target", "21,4,20",
                       "--format", "csv")
    assert (code, out) == (0, header + "3,18,4,20,open,,\r\n")


def test_check_json_frozen(capsys):
    code, out, _ = run(capsys, "check", "--source", "20,3,17", "--target", "20,4,19",
                       "--format", "json")
    assert code == 0
    assert out == (
        '{\n  "command": "check",\n  "inputs": {\n'
        '    "source": [\n      20,\n      3,\n      17\n    ],\n'
        '    "target": [\n      20,\n      4,\n      19\n    ],\n'
        '    "ledger": null\n  },\n  "result": {\n'
        '    "status": "established",\n    "rule": "kappa-gap",\n'
        '    "witness": {\n      "kappa_source": 6,\n      "kappa_target": 5\n    }\n'
        '  }\n}\n'
    )
    code, out, _ = run(capsys, "check", "--source", "21,3,18", "--target", "21,4,20",
                       "--ledger", LEDGER, "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["inputs"]["ledger"] == LEDGER
    assert doc["result"] == {"status": "open", "rule": None, "witness": None}


@pytest.mark.parametrize(
    "source, message",
    [("1,3,17", "genus must be >= 2"), ("20,-1,17", "rank and degree must be >= 0")],
)
def test_check_triple_outside_domain_exit_2(capsys, source, message):
    code, out, err = run(capsys, "check", "--source", source, "--target", "20,4,19")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_check_genus_mismatch_exit_2(capsys):
    code, _, err = run(capsys, "check", "--source", "20,3,17", "--target", "21,4,20")
    assert code == 2 and err.startswith("error:")


# ---------------------------------------------------------------------------
# gtable / exceptional


def test_gtable_default_frozen(capsys):
    code, out, _ = run(capsys, "gtable", "--format", "csv")
    assert code == 0
    assert out == (
        "r,G\r\n2,28\r\n3,50\r\n4,96\r\n5,140\r\n6,232\r\n"
        "7,306\r\n8,390\r\n9,561\r\n10,684\r\n"
    )


def test_gtable_table_and_json_frozen(capsys):
    code, out, _ = run(capsys, "gtable", "--r-min", "2", "--r-max", "4")
    assert (code, out) == (0, "r  G\n2  28\n3  50\n4  96\n")
    code, out, _ = run(capsys, "gtable")
    assert code == 0
    assert out.splitlines()[:2] == ["r   G", "2   28"]
    assert out.splitlines()[-1] == "10  684"
    code, out, _ = run(capsys, "gtable", "--r-min", "2", "--r-max", "4", "--format", "json")
    assert code == 0
    assert out == (
        '{\n  "command": "gtable",\n  "inputs": {\n    "r_min": 2,\n    "r_max": 4,\n'
        '    "s_range": "maximal"\n  },\n  "result": [\n'
        '    {\n      "r": 2,\n      "G": 28\n    },\n'
        '    {\n      "r": 3,\n      "G": 50\n    },\n'
        '    {\n      "r": 4,\n      "G": 96\n    }\n  ]\n}\n'
    )


def test_gtable_single_rank(capsys):
    code, out, _ = run(capsys, "gtable", "--r-min", "4", "--r-max", "4", "--format", "csv")
    assert (code, out) == (0, "r,G\r\n4,96\r\n")


def test_gtable_bad_range_exit_1(capsys):
    code, _, err = run(capsys, "gtable", "--r-min", "5", "--r-max", "4")
    assert code == 1 and "r-min" in err
    code, _, _ = run(capsys, "gtable", "--r-min", "1", "--r-max", "4")
    assert code == 1


def test_exceptional_outputs(capsys):
    code, out, _ = run(capsys, "exceptional", "--r", "2")
    assert (code, out) == (0, "12 15 18 19 24 27\n")
    code, out, _ = run(capsys, "exceptional", "--r", "2", "--s-range", "paper")
    assert (code, out) == (0, "15 18 19 24 27\n")
    code, out, _ = run(capsys, "exceptional", "--r", "2", "--s-range", "lemma")
    assert (code, out) == (0, "10 11 12 15 18 19 24 27\n")


def test_exceptional_json(capsys):
    code, out, _ = run(capsys, "exceptional", "--r", "3", "--s-range", "lemma",
                       "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["result"] == [17, 18, 19, 21, 24, 28, 29, 33, 34, 41, 44, 49]


def test_exceptional_csv_frozen(capsys):
    code, out, _ = run(capsys, "exceptional", "--r", "2", "--format", "csv")
    assert (code, out) == (0, "g\r\n12\r\n15\r\n18\r\n19\r\n24\r\n27\r\n")


@pytest.mark.parametrize("argv", [
    ("gtable", "--r-max", str(SCAN_RANK_CEILING + 1)),
    ("gtable", "--r-min", "4", "--r-max", str(SCAN_RANK_CEILING + 1), "--s-range", "lemma"),
    ("exceptional", "--r", str(SCAN_RANK_CEILING + 1)),
    ("exceptional", "--r", str(10**9), "--format", "json"),
])
def test_scan_above_the_ceiling_exit_2_before_scanning(capsys, monkeypatch, argv):
    monkeypatch.setattr("bnkappa.maximal_loci.compute_G", _refused)
    monkeypatch.setattr("bnkappa.maximal_loci.exceptional_genera", _refused)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and f"capped at {SCAN_RANK_CEILING}" in err


def test_scan_at_the_ceiling_runs(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("bnkappa.maximal_loci.exceptional_genera",
                        lambda r, s_range: calls.append(r) or [r])
    monkeypatch.setattr("bnkappa.maximal_loci.compute_G", lambda r, s_range: calls.append(r) or r)
    code, out, _ = run(capsys, "exceptional", "--r", str(SCAN_RANK_CEILING))
    assert (code, out, calls) == (0, f"{SCAN_RANK_CEILING}\n", [SCAN_RANK_CEILING])
    code, out, _ = run(capsys, "gtable", "--r-min", str(SCAN_RANK_CEILING - 1),
                       "--r-max", str(SCAN_RANK_CEILING), "--format", "csv")
    assert code == 0 and calls[1:] == [SCAN_RANK_CEILING - 1, SCAN_RANK_CEILING]


# ---------------------------------------------------------------------------
# figure


def test_figure_stdout_g96(capsys):
    code, out, _ = run(capsys, "figure", "--g", "96")
    assert code == 0
    lines = out.rstrip("\r\n").split("\r\n")
    assert lines[0] == "r,d_max,rho,kappa,lower_bound_approx,upper_bound_approx"
    assert len(lines) == 10  # header + one row per rank 1..9
    kappas = [int(line.split(",")[3]) for line in lines[1:]]
    assert kappas == [48, 32, 25, 21, 18, 18, 15, 16, 16]
    assert kappas[4] == kappas[5] == 18  # the plateau: not strictly decreasing


def test_figure_out_file_g479(capsys, tmp_path):
    out_path = tmp_path / "fig.csv"
    code, out, _ = run(capsys, "figure", "--g", "479", "--out", str(out_path))
    assert code == 0 and out == ""
    raw = out_path.read_bytes().decode()
    lines = raw.rstrip("\r\n").split("\r\n")
    assert len(lines) == 22  # header + ranks 1..21
    assert lines[1].startswith("1,")
    assert lines[21].startswith("21,")


def test_figure_matches_maximal_rows(capsys):
    code, fig, _ = run(capsys, "figure", "--g", "20")
    code2, table, _ = run(capsys, "maximal", "--g", "20", "--format", "csv")
    assert code == code2 == 0
    fig_rows = fig.split("\r\n")[1:]
    table_rows = table.split("\r\n")[1:]
    assert fig_rows == table_rows


def test_figure_unwritable_path_exit_1(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "fig.csv"
    code, _, err = run(capsys, "figure", "--g", "20", "--out", str(target))
    assert code == 1 and "cannot write" in err


# ---------------------------------------------------------------------------
# selftest


def test_selftest_small_passes(capsys):
    code, out, _ = run(capsys, "selftest", "--gmax", "10")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_selftest_suite_without_checks_fails(capsys):
    # no genus in 4..5 yields a certificate, so that suite runs nothing
    code, out, _ = run(capsys, "selftest", "--gmax", "5")
    assert code == 3
    assert "FAIL  certificate-reverification: 0 passed, 0 failed" in out


@pytest.mark.parametrize("argv", [("selftest", "--gmax", "10"), ("figure", "--g", "20")])
def test_format_rejected_where_output_is_fixed(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 1 and out == ""
    assert "--format" in err


def test_selftest_detects_injected_fault(capsys, monkeypatch):
    monkeypatch.setattr("bnkappa.maximal_loci.kappa_at_dmax", lambda g, r: 0)
    code, out, _ = run(capsys, "selftest", "--gmax", "10")
    assert code == 3
    assert "FAIL" in out


# ---------------------------------------------------------------------------
# determinism and the console entry point


def test_json_and_csv_outputs_deterministic(capsys):
    first = run(capsys, "report", "--g", "20", "--ledger", LEDGER, "--format", "json")
    second = run(capsys, "report", "--g", "20", "--ledger", LEDGER, "--format", "json")
    assert first == second
    a = run(capsys, "figure", "--g", "96")
    b = run(capsys, "figure", "--g", "96")
    assert a == b


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "bnkappa", "kappa", "--g", "20", "--r", "4", "--d", "19"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "5\n"


def test_closed_output_pipe_exits_1_without_traceback():
    # report --g 400 prints about 107 KB, more than a 64 KiB pipe buffer holds,
    # so the writer is still blocked when the reader goes away
    with subprocess.Popen(
        [sys.executable, "-m", "bnkappa", "report", "--g", "400", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.read(10) == b'{\n  "comma'
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert b"Traceback" not in err
