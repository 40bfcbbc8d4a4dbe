"""The benchmark's workloads: inputs made from a seed, the operations, and their checks.

Every operation's output is checked against reference.py (written apart
from the package) or against a published table; a check returns a list of
error strings, empty when the output is right.  Each workload runs the same
list of operations in every round, so counts per round repeat exactly.
"""

from __future__ import annotations

import csv
import importlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
LEDGER = "data/known.json"

# G(2..10) and the lemma-range exceptional genera of Auel-Haburcak 2022.
# `python3 bench/expected.py` recomputes both from reference.py.
G_TABLE = {2: 28, 3: 50, 4: 96, 5: 140, 6: 232, 7: 306, 8: 390, 9: 561, 10: 684}
LEMMA_TABLES = {
    2: [10, 11, 12, 15, 18, 19, 24, 27],
    3: [17, 18, 19, 21, 24, 28, 29, 33, 34, 41, 44, 49],
    4: [26, 27, 28, 29, 30, 32, 35, 40, 41, 45, 46, 47, 48, 50,
        52, 53, 55, 62, 65, 70, 71, 77, 95],
}
S_RANGES = ("maximal", "paper", "lemma")


@dataclass
class Op:
    key: tuple  # what the operation computes; the check reads it
    run: Callable[[], object]
    work: int  # domain units: pairs, genera, triples or invocations


@lru_cache(maxsize=None)
def expected_report(g: int, with_ledger: bool):
    """Loci rows and {(source, target): (status, rule, witness)} at genus g."""
    ledger = ref.load_ledger(ROOT / LEDGER) if with_ledger else None
    loci = ref.expected_maximal(g)
    rows = [(r, d, ref.rho(g, r, d), ref.kappa(g, r, d)) for r, d in loci]
    pairs = {}
    for a in loci:
        reached = ref.trivial_targets(g, a, loci)
        for b in loci:
            if a == b:
                continue
            if b in reached:
                pairs[a, b] = ("trivial-containment", None, None)
                continue
            cert = ref.certificate(g, a, b, ledger)
            pairs[a, b] = ("established", *cert) if cert else ("open", None, None)
    return rows, pairs


def check_pair(g, a, b, got, with_ledger) -> list[str]:
    """One ordered pair's (status, rule, witness) against the reference derivation."""
    want = expected_report(g, with_ledger)[1][a, b]
    errors = []
    if got != want:
        errors.append(f"g={g} {a}->{b}: got {got}, want {want}")
    status, rule, _ = got
    if status == "trivial-containment":
        errors.append(f"g={g} {a}->{b}: trivial containment between expected maximal loci")
    if ref.rho(g, *a) == ref.rho(g, *b) == -1 and (status != "established" or rule == "external"):
        errors.append(f"g={g} {a}->{b}: rho = -1 pair not established without the ledger")
    if g >= 28 and a[0] == 2 and b[0] > 2 and status != "established":
        errors.append(f"g={g} {a}->{b}: rank-2 source not established against rank {b[0]}")
    return errors


def check_report(g: int, with_ledger: bool, loci: list, pairs: list) -> list[str]:
    """A genus report, as plain rows, against the reference and the paper's claims.

    loci holds (r, d, rho, kappa); pairs holds (source, target, status,
    rule, witness) with source and target as (r, d).
    """
    want_loci, want_pairs = expected_report(g, with_ledger)
    errors = []
    if loci != want_loci:
        errors.append(f"g={g}: loci {loci} != {want_loci}")
    got = {(a, b): (status, rule, witness) for a, b, status, rule, witness in pairs}
    if len(got) != len(pairs) or set(got) != set(want_pairs):
        errors.append(f"g={g}: report does not hold every ordered pair once")
    for (a, b), verdict in got.items():
        if (a, b) in want_pairs:
            errors.extend(check_pair(g, a, b, verdict, with_ledger))
    if g == 20 and with_ledger and any(v[0] != "established" for v in got.values()):
        errors.append("g=20: not every pair is established with the shipped ledger")
    return errors


def report_rows(report):
    """(loci, pairs) rows of a bnkappa GenusReport."""
    loci = [(rec.locus.r, rec.locus.d, rec.rho, rec.kappa.value) for rec in report.loci]
    pairs = []
    for v in report.pairs:
        cert = v.status.certificate
        pairs.append((
            (v.source.r, v.source.d),
            (v.target.r, v.target.d),
            v.status.kind.value,
            cert.rule.value if cert else None,
            dict(cert.witness) if cert else None,
        ))
    return loci, pairs


def verdict_of(status: str, rule) -> str:
    return {"trivial-containment": "trivial", "open": "open"}.get(status, rule)


class Atlas:
    name = "atlas"
    work_name = "pairs"
    RANGE = range(29, 101)
    # r_max = 19 on the whole band, so every seeded genus has 19 loci and 342 pairs
    BAND = range(400, 420)
    SEEDED = 3

    def __init__(self):
        self.certificates = importlib.import_module("bnkappa.certificates")
        self.verdicts = Counter()

    def ops(self, rng, traced=False) -> list[Op]:
        genera = [(g, False) for g in self.RANGE]
        genera += [(g, False) for g in rng.sample(self.BAND, self.SEEDED)]
        genera += [(20, True), (21, True)]
        rng.shuffle(genera)
        ops = []
        for g, with_ledger in genera:
            n = len(ref.expected_maximal(g))
            ops.append(Op((g, with_ledger), partial(self._report, g, with_ledger), n * (n - 1)))
        return ops

    def _report(self, g, with_ledger):
        cert = self.certificates
        ledger = cert.load_ledger(ROOT / LEDGER) if with_ledger else None
        return cert.genus_report(g, ledger)

    def check(self, op, report) -> list[str]:
        g, with_ledger = op.key
        loci, pairs = report_rows(report)
        self.verdicts.update(verdict_of(status, rule) for _, _, status, rule, _ in pairs)
        return check_report(g, with_ledger, loci, pairs)


def check_G(r: int, G: int, rng) -> list[str]:
    """compute_G(r) against the table, and the reference inequality around it."""
    errors = []
    if r in G_TABLE and G != G_TABLE[r]:
        errors.append(f"G({r}) = {G}, the table says {G_TABLE[r]}")
    span = ref.scan_range(r)
    if not span.start <= G <= span.stop:
        return errors + [f"G({r}) = {G} outside the scan range {span}"]
    if G > span.start and ref.ineq_holds(G - 1, r):
        errors.append(f"G({r}) = {G}, yet the inequality holds at g = {G - 1}")
    for g in sorted(rng.sample(range(G, span.stop), min(2, span.stop - G))):
        if not ref.ineq_holds(g, r):
            errors.append(f"G({r}) = {G}, yet the inequality fails at g = {g}")
    return errors


def check_exceptional(r: int, s_range: str, genera: list) -> list[str]:
    errors = []
    want = ref.exceptional(r, s_range)
    if genera != want:
        errors.append(f"exceptional({r}, {s_range}) = {genera}, the reference gives {want}")
    if s_range == "lemma" and r in LEMMA_TABLES and genera != LEMMA_TABLES[r]:
        errors.append(f"exceptional({r}, lemma) = {genera}, the table says {LEMMA_TABLES[r]}")
    G = genera[-1] + 1 if genera else ref.scan_range(r).start
    if r in G_TABLE and G != G_TABLE[r]:
        errors.append(f"exceptional({r}, {s_range}) ends at G = {G}, not {G_TABLE[r]}")
    return errors


class Scans:
    name = "scans"
    work_name = "genera"
    TOP = 22  # compute_G(22) takes about 0.4 s; a round fits about ten times in a run
    EXCEPTIONAL = range(2, 9)

    def __init__(self, seed: int):
        self.maximal_loci = importlib.import_module("bnkappa.maximal_loci")
        self.seed = seed

    def ops(self, rng, traced=False) -> list[Op]:
        ops = [
            Op(("G", r), partial(self._G, r), len(ref.scan_range(r)))
            for r in range(2, self.TOP + 1)
        ]
        ops += [
            Op(("exceptional", r, s), partial(self._exceptional, r, s), len(ref.scan_range(r)))
            for r in self.EXCEPTIONAL
            for s in S_RANGES
        ]
        rng.shuffle(ops)
        return ops

    def _G(self, r):
        return self.maximal_loci.compute_G(r)

    def _exceptional(self, r, s_range):
        ml = self.maximal_loci
        return ml.exceptional_genera(r, ml.SRange(s_range))

    def check(self, op, result) -> list[str]:
        if op.key[0] == "G":
            r = op.key[1]
            return check_G(r, result, random.Random(self.seed * 1000 + r))
        return check_exceptional(op.key[1], op.key[2], result)


class Oracle:
    name = "oracle"
    work_name = "triples"
    ROWS = range(3, 51)
    LARGE = (1, 1, 2, 2, 3, 3)  # ranks of the seeded large triples
    LARGE_G = range(95_000, 100_001)
    SAMPLES = 2  # reference kappa checks per genus row

    def __init__(self):
        self.bn = importlib.import_module("bnkappa.bn_core")

    def ops(self, rng, traced=False) -> list[Op]:
        ops = []
        for g in self.ROWS:
            closed, dual = [], []
            for r in range(1, g):
                for d in range(2 * r, 2 * g - 1):
                    if ref.rho(g, r, d) >= 0:
                        continue
                    if d <= g - 1:
                        closed.append((r, d))
                    elif g - d + r >= 1:
                        dual.append((r, d))
            samples = rng.sample(closed + dual, min(self.SAMPLES, len(closed) + len(dual)))
            key = ("row", g, tuple(closed), tuple(dual), tuple(samples))
            ops.append(Op(key, partial(self._row, g, closed, dual), len(closed) + len(dual)))
        for r in self.LARGE:
            g = rng.choice(self.LARGE_G)
            d = rng.randint(2 * r, ref.d_max(g, r))
            ops.append(Op(("large", g, r, d), partial(self._large, g, r, d), 1))
        rng.shuffle(ops)
        return ops

    def _row(self, g, closed, dual):
        bn = self.bn
        return (
            [(bn.kappa_closed(g, r, d).value, bn.kappa_brute(g, r, d).value) for r, d in closed],
            [(bn.kappa(g, r, d).value, bn.kappa_brute(g, r, d).value) for r, d in dual],
        )

    def _large(self, g, r, d):
        bn = self.bn
        return bn.kappa_closed(g, r, d).value, bn.kappa_brute(g, r, d).value

    def check(self, op, result) -> list[str]:
        if op.key[0] == "large":
            _, g, r, d = op.key
            want = ref.kappa(g, r, d)
            if result != (want, want):
                return [f"kappa({g},{r},{d}): closed, brute = {result}, reference {want}"]
            return []
        _, g, closed, dual, samples = op.key
        got_closed, got_dual = result
        errors = []
        if len(got_closed) != len(closed) or len(got_dual) != len(dual):
            return [f"row g={g}: {len(got_closed)}+{len(got_dual)} results for {len(closed)}+{len(dual)} triples"]
        values = {}
        for (r, d), (a, b) in zip(closed, got_closed):
            if a != b:
                errors.append(f"kappa({g},{r},{d}): closed {a} != brute {b}")
            values[r, d] = b
        for (r, d), (a, b) in zip(dual, got_dual):
            if a != b:
                errors.append(f"kappa({g},{r},{d}) = {a} via the Serre dual, {b} by brute force")
            values[r, d] = b
        for r, d in samples:
            if values[r, d] != ref.kappa(g, r, d):
                errors.append(f"kappa({g},{r},{d}) = {values[r, d]}, reference {ref.kappa(g, r, d)}")
        return errors


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv, env=None) -> tuple[int, str]:
    """One `python -m bnkappa` process, from start to exit."""
    proc = subprocess.run(
        [sys.executable, "-m", "bnkappa", *argv],
        cwd=ROOT,
        env=env or cli_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _check_maximal_csv(g: int, text: str, first: str) -> list[str]:
    rows = _csv_rows(text)
    header = [first, "rho", "kappa", "lower_bound_approx", "upper_bound_approx"]
    if not rows or rows[0] != ["r", *header]:
        return [f"g={g}: bad CSV header {rows[:1]}"]
    want = expected_report(g, False)[0]
    got = [tuple(int(x) for x in row[:4]) for row in rows[1:]]
    errors = [] if got == want else [f"g={g}: CSV rows {got} != {want}"]
    for row in rows[1:]:
        r = int(row[0])
        upper = g / (r + 1) + r
        lower = upper - 2 * (r + 1) ** 0.5
        if abs(float(row[4]) - lower) > 6e-5 or abs(float(row[5]) - upper) > 6e-5:
            errors.append(f"g={g} r={r}: bounds {row[4:]} != {lower:.4f}, {upper:.4f}")
    return errors


def check_cli(argv: tuple, code: int, out: str) -> list[str]:
    """One invocation's exit code and output against the reference."""
    if code != 0:
        return [f"{' '.join(argv)}: exit {code}"]
    command = argv[0]
    try:
        if command == "report":
            doc = json.loads(out)["result"]
            g, with_ledger = doc["g"], "--ledger" in argv
            loci = [(x["r"], x["d"], x["rho"], x["kappa"]) for x in doc["loci"]]
            pairs = [
                (tuple(p["source"]), tuple(p["target"]), p["status"], p["rule"], p["witness"])
                for p in doc["pairs"]
            ]
            errors = check_report(g, with_ledger, loci, pairs)
            opens = [[list(a), list(b)] for a, b, status, _, _ in pairs if status == "open"]
            if doc["open_pairs"] != opens or doc["conjecture"] != ("open" if opens else "verified"):
                errors.append(f"report g={g}: conjecture {doc['conjecture']} with open {doc['open_pairs']}")
            return errors
        if command == "gtable":
            lines = out.split("\n")
            got = dict(tuple(int(x) for x in line.split()) for line in lines[1:] if line.strip())
            ok = lines[0].split() == ["r", "G"] and got == G_TABLE
            return [] if ok else [f"gtable: {got} != {G_TABLE}"]
        if command == "exceptional":
            r = int(argv[argv.index("--r") + 1])
            got = json.loads(out)["result"]
            return [] if got == LEMMA_TABLES[r] else [f"exceptional {r}: {got} != {LEMMA_TABLES[r]}"]
        if command == "kappa":
            g, r, d = (int(argv[argv.index(f) + 1]) for f in ("--g", "--r", "--d"))
            doc = json.loads(out)["result"]
            want = ref.kappa(g, r, d)
            got = (doc["value"], doc["closed"]["value"], doc["brute"]["value"])
            return [] if got == (want,) * 3 else [f"kappa({g},{r},{d}): {got}, reference {want}"]
        if command == "check":
            (g, *a), (_, *b) = (
                [int(x) for x in argv[argv.index(f) + 1].split(",")] for f in ("--source", "--target")
            )
            doc = json.loads(out)["result"]
            return check_pair(g, tuple(a), tuple(b), (doc["status"], doc["rule"], doc["witness"]), False)
        if command in ("maximal", "figure"):
            g = int(argv[argv.index("--g") + 1])
            return _check_maximal_csv(g, out, "d" if command == "maximal" else "d_max")
        if command == "selftest":
            lines = out.strip().split("\n")
            suites = [line for line in lines[:-1] if not line.startswith(" ")]
            total = lines[-1].split()
            ok = (
                suites
                and all(line.startswith("PASS") for line in suites)
                and total[0] == "total:" and int(total[1]) > 0 and total[3:5] == ["0", "failed"]
            )
            return [] if ok else [f"selftest output: {lines[-1]!r}"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{' '.join(argv)}: unreadable output ({exc!r})"]
    return [f"no check for {command}"]


class Cli:
    name = "cli"
    work_name = "invocations"

    def __init__(self):
        self.env = cli_env()
        self.cli = None

    def ops(self, rng, traced=False) -> list[Op]:
        argvs = [
            ["report", "--g", "20", "--ledger", LEDGER, "--format", "json"],
            ["report", "--g", "21", "--ledger", LEDGER, "--format", "json"],
            ["gtable"],
            *(["exceptional", "--r", str(r), "--s-range", "lemma", "--format", "json"] for r in (2, 3, 4)),
            ["selftest", "--gmax", "10"],
        ]
        for _ in range(11):
            g, r = rng.randint(20, 2000), rng.randint(1, 4)
            d = rng.choice([d for d in range(2 * r, 2 * g - 1) if ref.rho(g, r, d) < 0 and g - d + r >= 1])
            argvs.append(["kappa", "--g", str(g), "--r", str(r), "--d", str(d), "--format", "json"])
        for _ in range(8):
            g = rng.randint(22, 150)
            a, b = rng.sample(ref.expected_maximal(g), 2)
            argvs.append(["check", "--source", f"{g},{a[0]},{a[1]}", "--target", f"{g},{b[0]},{b[1]}", "--format", "json"])
        for _ in range(7):
            argvs.append(["maximal", "--g", str(rng.randint(20, 500)), "--format", "csv"])
        for _ in range(7):
            argvs.append(["figure", "--g", str(rng.randint(20, 500))])
        rng.shuffle(argvs)
        if traced:
            self.cli = importlib.import_module("bnkappa.cli")
            run = self._in_process
        else:
            run = self._process
        return [Op(tuple(argv), partial(run, argv), 1) for argv in argvs]

    def _process(self, argv):
        return run_cli(argv, self.env)

    def _in_process(self, argv):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = self.cli.main(argv)
        return code, out.getvalue()

    def check(self, op, result) -> list[str]:
        return check_cli(op.key, *result)
