"""Digest the CLI's output over one fixed corpus of invocations.

Every invocation runs in-process through bnkappa.cli.main.  For each family
of invocations the script prints one line: the family's name, the number of
invocations, and a SHA-256 over every (argv, exit code, stdout, stderr) in
order.  Two trees print the same lines when their CLIs wrote the same bytes
on every invocation, so a byte-identity check of a change against its parent
runs the script in a `git archive` copy of each and diffs the output:

    (cd parent && PYTHONPATH=src python tools/cli_digest.py) > parent.txt
    (cd change && PYTHONPATH=src python tools/cli_digest.py) > change.txt
    diff parent.txt change.txt

It takes no flags and needs only the standard library.  It works from the
root of the tree it lives in, so the ledger path in the corpus, and with it
every output that echoes that path, is the same in both copies.  The whole
corpus is 176,575 invocations and takes about 22-28 seconds on a 2-vCPU VM.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from bnkappa import cli

LEDGER = "data/known.json"  # relative to the tree's root
FORMATS = ("table", "json", "csv")


def _rho(g, r, d):
    return g - (r + 1) * (g - d + r)


def _loci(g):
    """(r, d) of every locus at genus g with rho < 0 and d >= 2r: kappa's domain."""
    return [(r, d) for r in range(1, g) for d in range(2 * r, 2 * g - 1) if _rho(g, r, d) < 0]


def _report():
    return [["report", "--g", str(g), "--format", f] for g in range(121) for f in FORMATS]


def _report_large():
    genera = [*range(400, 420), 1000, 2500]
    return [["report", "--g", str(g), "--format", "json"] for g in genera]


def _report_ledger():
    return [
        ["report", "--g", str(g), "--ledger", LEDGER, "--format", f]
        for g in (20, 21)
        for f in FORMATS
    ]


def _check_pairs(genera, *flags, target_rho=None):
    """`check` on every ordered pair of distinct (r, d) in kappa's domain, per genus.

    With target_rho, only the pairs whose target has that rho.
    """
    argvs = []
    for g in genera:
        loci = _loci(g)
        targets = [t for t in loci if target_rho is None or _rho(g, *t) == target_rho]
        for r, d in loci:
            for s, e in targets:
                if (r, d) != (s, e):
                    argvs.append(
                        ["check", "--source", f"{g},{r},{d}", "--target", f"{g},{s},{e}", *flags]
                    )
    return argvs


def _check():
    return _check_pairs(range(2, 21), "--format", "csv")


def _check_rho_minus_one():
    # rho = -1 targets at g = 21..40, past check-csv's last genus.  The
    # Clifford-index divisor criterion in tests/test_certificates.py, which
    # KAPPA_GAP subsumes, first holds at g = 23, and on 46 of these pairs
    return _check_pairs(range(21, 41), "--format", "csv", target_rho=-1)


def _check_ledger():
    return _check_pairs((20, 21), "--ledger", LEDGER, "--format", "csv")


def _kappa():
    return [
        ["kappa", "--g", str(g), "--r", str(r), "--d", str(d), "--format", "csv"]
        for g in range(31)
        for r in range(-1, g + 3)
        for d in range(-1, 2 * g + 3)
    ]


def _maximal():
    return [["maximal", "--g", str(g), "--format", "csv"] for g in range(3, 201)]


def _figure():
    return [["figure", "--g", str(g)] for g in range(3, 201)]


def _exceptional():
    return [
        ["exceptional", "--r", str(r), "--s-range", s, "--format", f]
        for r in range(2, 21)
        for s in ("maximal", "paper", "lemma")
        for f in FORMATS
    ]


def _gtable():
    # no JSON: its "inputs" echo every parsed flag, so they change whenever
    # gtable gains or loses one
    return [["gtable"]] + [
        ["gtable", "--r-min", str(r), "--r-max", str(r), "--format", f]
        for r in range(2, 31)
        for f in ("table", "csv")
    ]


def _selftest():
    return [["selftest", "--gmax", "60"]]


# name -> the family's argv lists, built only when the family runs
FAMILIES = {
    "report": _report,
    "report-json-large": _report_large,
    "report-ledger": _report_ledger,
    "check-csv": _check,
    "check-rho-minus-one": _check_rho_minus_one,
    "check-ledger": _check_ledger,
    "kappa-csv": _kappa,
    "maximal-csv": _maximal,
    "figure": _figure,
    "exceptional": _exceptional,
    "gtable": _gtable,
    "selftest": _selftest,
}


def digest_line(name, argvs):
    """'name count sha256' over every (argv, exit code, stdout, stderr)."""
    sha = hashlib.sha256()
    count = 0
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        record = json.dumps([argv, code, out.getvalue(), err.getvalue()])
        sha.update(record.encode("utf-8") + b"\n")
        count += 1
    return f"{name} {count} {sha.hexdigest()}"


def main():
    os.chdir(Path(__file__).resolve().parent.parent)
    for name, family in FAMILIES.items():
        print(digest_line(name, family()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
