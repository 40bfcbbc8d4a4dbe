"""CLI surface: output formats, exit codes, and library round-trips."""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bnkappa import bn_core, maximal_loci
from bnkappa.bn_core import KappaBranch, KappaResult
from bnkappa.certificates import GenusReport, TrivialClosure
from bnkappa.errors import DomainError
from bnkappa.cli import (
    MAXIMAL_GENUS_CEILING,
    REPORT_GENUS_CEILING,
    SCAN_RANK_CEILING,
    SELFTEST_GENUS_CEILING,
    _cmd_kappa,
    build_parser,
    main,
)
from bnkappa.selfcheck import SuiteResult

ROOT = Path(__file__).resolve().parent.parent
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
    code, out, _ = run(capsys, "kappa", "--g", "20", "--r", "5", "--d", "21")
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


def test_kappa_csv_frozen_on_the_serre_dual_route(capsys):
    # rho and gamma are the input's, not its dual's (20, 3, 17)
    code, out, _ = run(capsys, "kappa", "--g", "20", "--r", "5", "--d", "21", "--format", "csv")
    assert (code, out) == (0, (
        "method,value,branch,rho,gamma\r\n"
        "closed,6,serre-dual-reduction,-4,11\r\n"
        "brute,6,brute-force,-4,11\r\n"
    ))


@pytest.mark.parametrize("g, r, d, text", [
    (1, 1, 1, "rho requires g >= 2, r >= 0, d >= 0; got (1, 1, 1)"),
    (0, 0, 0, "rho requires g >= 2, r >= 0, d >= 0; got (0, 0, 0)"),
    (20, -1, 17, "rho requires g >= 2, r >= 0, d >= 0; got (20, -1, 17)"),
    (20, 3, -1, "rho requires g >= 2, r >= 0, d >= 0; got (20, 3, -1)"),
    (20, 1, 12, "kappa undefined outside rho < 0: rho(20,1,12) = 2"),
    (10, 10, 19, "kappa requires d - 2r >= 0, got -1"),
    (10, 11, 19, "kappa requires d - 2r >= 0, got -3"),
    (10, 6, 11, "kappa requires d - 2r >= 0, got -1"),
])
def test_kappa_refusal_texts_frozen(capsys, g, r, d, text):
    for fmt in ("table", "json", "csv"):
        code, out, err = run(capsys, "kappa", "--g", str(g), "--r", str(r), "--d", str(d),
                             "--format", fmt)
        assert (code, out, err) == (2, "", f"error: {text}\n"), fmt


def test_kappa_refuses_every_small_triple_with_the_closed_routes_text():
    # the closed route runs first, so its refusal is the one raised, and no
    # other check of the inputs comes before it; main prints it as above
    refused = 0
    for g in range(0, 31):
        for r in range(-1, g + 3):
            for d in range(-1, 2 * g + 3):
                try:
                    bn_core.kappa(g, r, d)
                    continue
                except DomainError as exc:
                    text = str(exc)
                with pytest.raises(DomainError) as raised:
                    _cmd_kappa(argparse.Namespace(g=g, r=r, d=d))
                assert str(raised.value) == text, (g, r, d)
                refused += 1
    assert refused > 10_000


def test_kappa_json_structure(capsys):
    code, out, _ = run(capsys, "kappa", "--g", "20", "--r", "3", "--d", "17",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "kappa"
    assert doc["inputs"] == {"g": 20, "r": 3, "d": 17}
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


HUGE_RANK = ("--g", "1000000000", "--r", "100000000", "--d", "200000000")


def test_rhok_and_kappa_at_huge_rank(capsys):
    # r' = 10**8: the vertex (r + 1 + g - d + r - k)/2 of rho_k's parabola lies
    # beyond r', so the l = r' term rho(g, 0, d) - r'k = d - 5*10**8 is the maximum
    code, out, _ = run(capsys, "rhok", *HUGE_RANK, "--k", "5")
    assert (code, out) == (0, "-300000000\n")
    # d // r = 2 and g + 1 > 2 + d: the closed formula's first case
    code, out, _ = run(capsys, "kappa", *HUGE_RANK, "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    rho = 10**9 - (10**8 + 1) * (10**9 - 2 * 10**8 + 10**8)
    assert result["closed"] == {"value": 2, "branch": "closed-first-case", "rho": rho, "gamma": 0}
    assert result["brute"] == {"value": 2, "branch": "brute-force", "rho": rho, "gamma": 0}
    assert result["value"] == 2


def test_kappa_method_mismatch_is_internal_error(capsys, monkeypatch):
    fake = KappaResult(7, KappaBranch.BRUTE_FORCE)
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
    code, out, err = run(capsys, "kappa", "--g", "10", "--r", "6", "--d", "11")
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
        ["kappa", "--g", "20", "--r", "3", "--d", "17", "--method", "closed"],
        ["kappa", "--g", "20", "--r", "3", "--d", "17", "--method", "brute"],
        ["check", "--source", "20,x,17", "--target", "20,4,19"],
    ],
)
def test_usage_errors_exit_1(capsys, argv):
    code, _, _ = run(capsys, *argv)
    assert code == 1


def test_version_flag(capsys):
    code, out, err = run(capsys, "--version")
    assert code == 0
    assert "bnkappa" in out + err


def _parser_flags(parser) -> set:
    flags = set()
    for action in parser._actions:
        flags.update(o for o in action.option_strings if o.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _parser_flags(sub)
    return flags


def test_readme_documents_exactly_the_parser_flags():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    documented = set(re.findall(r"--[a-z][a-z-]*", readme)) - {"--no-build-isolation"}
    assert documented == _parser_flags(build_parser()) - {"--help"}


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
    assert lines[1:] == [
        "1,10,-2,10,8.1716,11.0000",
        "2,15,-1,8,5.2026,8.6667",
        "3,17,-4,6,4.0000,8.0000",
        "4,19,-5,5,3.5279,8.0000",
        "",
    ]


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
        lower, upper = maximal_loci.kappa_bounds(21, rec.locus.r)
        assert row["lower_bound_approx"] == f"{lower.approx():.4f}"
        assert row["upper_bound_approx"] == f"{upper.approx():.4f}"


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


def test_report_json_lines_ledger_exit_1(capsys, tmp_path):
    entry = {"g": 20, "source": [3, 17], "target": [1, 10], "cite": "x"}
    lines = tmp_path / "lines.json"
    lines.write_text(f"{json.dumps(entry)}\n{json.dumps({**entry, 'target': [2, 15]})}\n")
    code, out, err = run(capsys, "report", "--g", "20", "--ledger", str(lines))
    assert (code, out) == (1, "")
    assert "malformed ledger" in err


def _ledger_entry(**overrides):
    return {"g": 20, "source": [3, 17], "target": [1, 10], "cite": "X 2020", **overrides}


_SHAPE = "error: malformed ledger: entry {}: {}\n"
_PAIR = "error: malformed ledger: ledger entry for {}: {}\n"


@pytest.mark.parametrize("entries, err", [
    ([_ledger_entry(extra=1)], _SHAPE.format(0, "unknown fields ['extra']")),
    ([{"g": 20, "source": [3, 17], "target": [1, 10]}],
     _SHAPE.format(0, "missing fields ['cite']")),
    ([_ledger_entry(g=True)], _SHAPE.format(0, "g must be an integer")),
    ([_ledger_entry(g="20")], _SHAPE.format(0, "g must be an integer")),
    ([_ledger_entry(source=[3])],
     _SHAPE.format(0, "source must be a [rank, degree] pair of integers")),
    ([_ledger_entry(source=[3, "17"])],
     _SHAPE.format(0, "source must be a [rank, degree] pair of integers")),
    ([_ledger_entry(target=[1, True])],
     _SHAPE.format(0, "target must be a [rank, degree] pair of integers")),
    ([_ledger_entry(cite="")], _SHAPE.format(0, "cite must be a non-empty string")),
    ([_ledger_entry(cite=7)], _SHAPE.format(0, "cite must be a non-empty string")),
    ([_ledger_entry(target=[3, 17])],
     _PAIR.format("(20, (3, 17), (3, 17))", "ledger requires distinct loci")),
    ([_ledger_entry(target=[5, 21])],
     _PAIR.format("(20, (3, 17), (5, 21))", "ledger requires distinct loci")),
    ([_ledger_entry(source=[1, 19])],
     _PAIR.format("(20, (1, 19), (1, 10))",
                  "ledger requires both loci to have rho < 0 and d >= 2r")),
    ([_ledger_entry(source=[-1, 5])],
     _PAIR.format("(20, (-1, 5), (1, 10))", "rank and degree must be >= 0, got r=-1 d=5")),
    ([_ledger_entry(g=1)], _PAIR.format("(1, (3, 17), (1, 10))", "genus must be >= 2, got 1")),
    ([[20, [3, 17], [1, 10], "X 2020"]], _SHAPE.format(0, "expected an object, got list")),
    (["X 2020"], _SHAPE.format(0, "expected an object, got str")),
    ([_ledger_entry(), _ledger_entry()],
     "error: malformed ledger: duplicate ledger entry for (20, (3, 17), (1, 10))\n"),
    # every entry's shape is checked before any entry's pair: entry 0's equal
    # pair is not reported, entry 1's empty cite is
    ([_ledger_entry(target=[3, 17]), _ledger_entry(cite="")],
     _SHAPE.format(1, "cite must be a non-empty string")),
])
def test_report_ledger_error_texts_frozen(capsys, tmp_path, entries, err):
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(entries))
    assert run(capsys, "report", "--g", "20", "--ledger", str(path)) == (1, "", err)


def test_report_ledger_with_a_repeated_field_exit_1(capsys, tmp_path):
    # json keeps the last of repeated names, so this entry would read as a
    # g = 21 entry and leave the genus-20 pair (3,17) vs (1,10) open
    text = Path(LEDGER).read_text(encoding="utf-8")
    first = '{"g": 20, "source": [3, 17], "target": [1, 10]'
    assert text.count(first) == 1
    path = tmp_path / "known.json"
    path.write_text(text.replace(first, '{"g": 20, "g": 21' + first[8:]), encoding="utf-8")
    err = "error: malformed ledger: repeated field 'g' in one ledger entry\n"
    assert run(capsys, "report", "--g", "20", "--ledger", str(path)) == (1, "", err)


def test_report_unreadable_ledger_text_frozen(capsys, tmp_path):
    path = tmp_path / "no.json"
    err = f"error: malformed ledger: cannot read ledger {path}: No such file or directory\n"
    assert run(capsys, "report", "--g", "20", "--ledger", str(path)) == (1, "", err)


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


@pytest.mark.parametrize("argv", [
    ("maximal", "--g", str(MAXIMAL_GENUS_CEILING + 1)),
    ("maximal", "--g", str(MAXIMAL_GENUS_CEILING + 1), "--format", "json"),
    ("maximal", "--g", str(10**12), "--format", "csv"),
    ("figure", "--g", str(MAXIMAL_GENUS_CEILING + 1)),
])
def test_maximal_and_figure_above_the_ceiling_exit_2_before_any_work(capsys, monkeypatch, argv):
    monkeypatch.setattr("bnkappa.maximal_loci.enumerate_expected_maximal", _refused)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (f"error: {argv[0]} --g is capped at {MAXIMAL_GENUS_CEILING} to bound the "
                   f"listing's cost, got {argv[2]}\n")


def test_figure_above_the_ceiling_writes_no_file(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr("bnkappa.maximal_loci.enumerate_expected_maximal", _refused)
    out = tmp_path / "fig.csv"
    code, _, err = run(capsys, "figure", "--g", str(MAXIMAL_GENUS_CEILING + 1), "--out", str(out))
    assert code == 2 and f"capped at {MAXIMAL_GENUS_CEILING}" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("maximal", "--g", str(MAXIMAL_GENUS_CEILING), "--format", "csv"),
    ("figure", "--g", str(MAXIMAL_GENUS_CEILING)),
])
def test_maximal_and_figure_at_the_ceiling_run(capsys, monkeypatch, argv):
    calls, records = [], maximal_loci.enumerate_expected_maximal(20)
    monkeypatch.setattr("bnkappa.maximal_loci.enumerate_expected_maximal",
                        lambda g: calls.append(g) or records)
    code, out, _ = run(capsys, *argv)
    assert (code, calls) == (0, [MAXIMAL_GENUS_CEILING])
    assert len(out.splitlines()) == 1 + len(records)


def test_check_at_huge_genus_never_walks_the_closure(capsys, monkeypatch):
    def no_walk(self):
        pytest.fail("a membership test must not walk the closure")

    monkeypatch.setattr(TrivialClosure, "__len__", no_walk)
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


@pytest.mark.parametrize("source, target, row", [
    ("11,9,18", "11,2,9", "9,18,2,9,open,,"),
    ("17,15,30", "17,1,9", "15,30,1,9,trivial-containment,,"),
])
def test_check_the_serre_dual_of_the_hyperelliptic_locus_gets_no_certificate(
    capsys, source, target, row
):
    # each source is the Serre dual of the hyperelliptic locus (g, 1, 2), which
    # lies in every non-empty locus, the target included: no certificate holds.
    # The rules see (g, 1, 2); base points take (17, 1, 2) to (17, 1, 9), while
    # no trivial step raises the rank to (11, 2, 9)
    code, out, err = run(capsys, "check", "--source", source, "--target", target,
                         "--format", "csv")
    assert (code, out.splitlines()[1], err) == (0, row, "")


def test_check_pair_with_an_empty_locus_exit_2(capsys):
    # d < 2r with rho < 0: no curve carries such a series (Clifford)
    for source, target in (("11,10,19", "11,2,9"), ("11,2,9", "11,10,19")):
        code, out, err = run(capsys, "check", "--source", source, "--target", target)
        assert (code, out, err) == (
            2, "", "error: pair_status requires both loci to have rho < 0 and d >= 2r\n"
        )


def test_check_genus_mismatch_exit_2(capsys):
    code, _, err = run(capsys, "check", "--source", "20,3,17", "--target", "21,4,20")
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("source, target", [
    ("5,1,3", "5,2,5"), ("5,2,5", "5,1,3"), ("20,3,17", "20,5,21"),
])
def test_check_a_locus_against_its_serre_dual_exit_2(capsys, source, target):
    for ledger in ((), ("--ledger", LEDGER)):
        code, out, err = run(capsys, "check", "--source", source, "--target", target, *ledger)
        assert (code, out, err) == (2, "", "error: pair_status requires distinct loci\n")


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
        '{\n  "command": "gtable",\n  "inputs": {\n    "r_min": 2,\n    "r_max": 4\n'
        '  },\n  "result": [\n'
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


def test_gtable_s_range_is_an_unrecognized_argument(capsys):
    # G(r) is the same under every s-range for r = 2..60, so gtable has none
    code, out, err = run(capsys, "gtable", "--s-range", "lemma")
    assert (code, out) == (1, "")
    assert "error: unrecognized arguments: --s-range lemma" in err


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
    ("gtable", "--r-min", "4", "--r-max", str(SCAN_RANK_CEILING + 1)),
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
    monkeypatch.setattr("bnkappa.maximal_loci.compute_G", lambda r: calls.append(r) or r)
    code, out, _ = run(capsys, "exceptional", "--r", str(SCAN_RANK_CEILING))
    assert (code, out, calls) == (0, f"{SCAN_RANK_CEILING}\n", [SCAN_RANK_CEILING])
    code, out, _ = run(capsys, "gtable", "--r-min", str(SCAN_RANK_CEILING - 1),
                       "--r-max", str(SCAN_RANK_CEILING), "--format", "csv")
    assert code == 0 and calls[1:] == [SCAN_RANK_CEILING - 1, SCAN_RANK_CEILING]


# ---------------------------------------------------------------------------
# JSON inputs: every parsed flag by its dest name, in parser order, but --format


@pytest.mark.parametrize("argv, inputs", [
    (("gamma", "--r", "3", "--d", "17"), '{\n    "r": 3,\n    "d": 17\n  }'),
    (("rhok", "--g", "20", "--r", "3", "--d", "17", "--k", "6"),
     '{\n    "g": 20,\n    "r": 3,\n    "d": 17,\n    "k": 6\n  }'),
    (("dmax", "--g", "20", "--r", "3"), '{\n    "g": 20,\n    "r": 3\n  }'),
    (("maximal", "--g", "20"), '{\n    "g": 20\n  }'),
    (("report", "--g", "20"), '{\n    "g": 20,\n    "ledger": null\n  }'),
    (("report", "--ledger", LEDGER, "--g", "20"),
     '{\n    "g": 20,\n    "ledger": "data/known.json"\n  }'),
    (("exceptional", "--s-range", "lemma", "--r", "2"),
     '{\n    "r": 2,\n    "s_range": "lemma"\n  }'),
])
def test_json_inputs_frozen(capsys, argv, inputs):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out.startswith(
        f'{{\n  "command": "{argv[0]}",\n  "inputs": {inputs},\n  "result": '
    )


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


@pytest.mark.parametrize(
    "gmax", ["5", "3", "2", "0", "-5", str(SELFTEST_GENUS_CEILING + 1), str(10**6)]
)
def test_selftest_gmax_outside_its_range_exit_2_before_any_suite(capsys, monkeypatch, gmax):
    monkeypatch.setattr("bnkappa.selfcheck.run_all", _refused)
    code, out, err = run(capsys, "selftest", "--gmax", gmax)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "selftest --gmax" in err
    if int(gmax) > SELFTEST_GENUS_CEILING:
        assert f"capped at {SELFTEST_GENUS_CEILING}" in err
    else:
        assert "must be >= 6" in err


@pytest.mark.parametrize("gmax", [6, SELFTEST_GENUS_CEILING])
def test_selftest_gmax_at_the_ends_of_its_range_runs(capsys, monkeypatch, gmax):
    calls = []
    monkeypatch.setattr("bnkappa.selfcheck.run_all",
                        lambda g: calls.append(g) or [SuiteResult("stub", passed=1)])
    code, out, _ = run(capsys, "selftest", "--gmax", str(gmax))
    assert (code, calls) == (0, [gmax])
    assert out.startswith("PASS  stub: 1 passed, 0 failed")


def test_selftest_at_the_floor_runs_every_suite(capsys):
    code, out, _ = run(capsys, "selftest", "--gmax", "6")
    assert code == 0
    suites = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert len(suites) == 5
    assert all(line.startswith("PASS") for line in suites)  # PASS needs a check run


def test_selftest_suite_without_checks_fails(capsys, monkeypatch):
    monkeypatch.setattr("bnkappa.selfcheck.suite_certificates",
                        lambda gmax: SuiteResult("certificate-reverification"))
    code, out, _ = run(capsys, "selftest", "--gmax", "10")
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


@pytest.mark.parametrize("argv", [
    ["kappa", "--g", "20", "--r", "5", "--d", "21"],
    ["check", "--source", "20,2,13", "--target", "20,3,16"],
])
def test_kappa_and_check_run_without_importing_selfcheck(argv):
    # only selftest imports selfcheck (and, through it, decimal)
    code = (
        "import sys\n"
        "from bnkappa import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print('bnkappa.selfcheck' in sys.modules)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


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
