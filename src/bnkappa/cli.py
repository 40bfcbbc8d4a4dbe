"""Command-line interface.

Subcommands mirror the library: scalar queries (rho, gamma, rhok, kappa,
dmax), per-genus summaries (maximal, report, figure), genus scans (gtable,
exceptional), pairwise queries (check) and the built-in selftest.  `kappa`
always runs both routes, the closed formula and the brute-force search, and
exits 3 if they disagree.  A ledger is one JSON array of entries.

Exit codes: 0 success, 1 usage or I/O error (including a malformed ledger
and a reader that closed the output pipe), 2 domain error (inputs outside a
function's mathematical domain, such as a `check` triple with g < 2, a
`check` pair with an empty locus (d < 2r), a scan rank above
SCAN_RANK_CEILING, a `report` genus above REPORT_GENUS_CEILING,
a `maximal` or `figure` genus above MAXIMAL_GENUS_CEILING, or a `selftest
--gmax` below 6 or above SELFTEST_GENUS_CEILING), 3 internal
inconsistency (a cross-check that can only fail on a bug, or a selftest
suite that failed a check or ran none).

Output formats, chosen with --format on every command except `figure`
(always CSV) and `selftest` (always text): `table` (human-readable,
default), `json` (one document: {"command", "inputs", "result"}), `csv`
(RFC 4180, header row included).  The parser is each command's one
declaration: the JSON "inputs" are every parsed flag by its dest name
except --format, and the scalar commands call their library function with
those inputs as keywords.  Each formatted command builds one
`_Output` and `_emit` renders it: the JSON result of a row-shaped command is
one object per CSV row, keyed by the CSV headers; `kappa`, `check`,
`report`, `exceptional` and the scalar commands give their own result shape.
Approximate floating-point columns are suffixed `_approx` and carry four
fractional digits; every other figure is exact.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from functools import cache
from typing import NamedTuple, Optional, Sequence

from . import __version__, bn_core, maximal_loci
from .bn_core import BNLocus
from .certificates import (
    Ledger,
    LedgerError,
    PairStatus,
    PairVerdict,
    genus_report,
    load_ledger,
    pair_status,
)
from .errors import DomainError, InternalError
from .maximal_loci import MaximalLocusRecord, SRange


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2 (2 is reserved for
    # domain errors here)
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _triple(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected g,r,d — got {text!r}")
    try:
        g, r, d = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers g,r,d — got {text!r}")
    return g, r, d


class _UsageError(Exception):
    """Arguments that parse but do not fit together (exit 1)."""


# ---------------------------------------------------------------------------
# rendering


class _Output(NamedTuple):
    """One command's result, ready for any --format.

    `headers` and `rows` give the CSV and the default table; `doc` is the
    JSON "result" (one object per row, keyed by `headers`, when None);
    `text`, when set, replaces the table.
    """

    headers: Sequence[str]
    rows: Sequence[Sequence[object]]
    doc: object = None
    text: Optional[str] = None


def _csv_text(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)  # excel dialect: comma-separated, CRLF line ends
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue()


def _table_text(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    cells = [list(headers)] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells)


# the parsed flags that are not a command's inputs
_NOT_INPUTS = ("command", "func", "format")


def _inputs(args: argparse.Namespace) -> dict:
    """Every parsed flag of the command by its dest name, in parser order."""
    return {k: v for k, v in vars(args).items() if k not in _NOT_INPUTS}


def _emit(args: argparse.Namespace, out: _Output) -> int:
    if args.format == "json":
        doc = out.doc
        if doc is None:
            doc = [dict(zip(out.headers, row)) for row in out.rows]
        result = {"command": args.command, "inputs": _inputs(args), "result": doc}
        print(json.dumps(result, indent=2))
    elif args.format == "csv":
        sys.stdout.write(_csv_text(out.headers, out.rows))
    else:
        print(_table_text(out.headers, out.rows) if out.text is None else out.text)
    return 0


def _scalar(value: int) -> _Output:
    return _Output(["value"], [[value]], doc=value, text=str(value))


def _witness_text(witness) -> str:
    return " ".join(f"{k}={v}" for k, v in witness.items())


# ---------------------------------------------------------------------------
# commands


_KAPPA_HEADERS = ["method", "value", "branch", "rho", "gamma"]


def _cmd_kappa(args) -> _Output:
    g, r, d = args.g, args.r, args.d
    closed, brute = bn_core.kappa(g, r, d), bn_core.kappa_brute(g, r, d)
    if closed.value != brute.value:
        raise InternalError(
            f"kappa mismatch at ({g},{r},{d}): closed={closed.value} brute={brute.value}"
        )
    # the input's own rho and Clifford index, which its Serre dual shares
    rho, gamma = bn_core.rho(g, r, d), bn_core.clifford_index(r, d)
    rows = [
        [method, k.value, k.branch.value, rho, gamma]
        for method, k in (("closed", closed), ("brute", brute))
    ]
    doc = {row[0]: dict(zip(_KAPPA_HEADERS[1:], row[1:])) for row in rows}
    doc["value"] = closed.value
    return _Output(_KAPPA_HEADERS, rows, doc=doc, text=str(closed.value))


def _maximal_rows(records: Sequence[MaximalLocusRecord]) -> list:
    rows = []
    for rec in records:
        lower, upper = maximal_loci.kappa_bounds(rec.locus.g, rec.locus.r)
        rows.append([rec.locus.r, rec.locus.d, rec.rho, rec.kappa.value,
                     f"{lower.approx():.4f}", f"{upper.approx():.4f}"])
    return rows


_MAXIMAL_HEADERS = ["r", "d", "rho", "kappa", "lower_bound_approx", "upper_bound_approx"]


def _cmd_maximal(args) -> _Output:
    _require_at_most(f"{args.command} --g", args.g, MAXIMAL_GENUS_CEILING, "listing")
    rows = _maximal_rows(maximal_loci.enumerate_expected_maximal(args.g))
    return _Output(_MAXIMAL_HEADERS, rows)


def _load_ledger_arg(args) -> Optional[Ledger]:
    return None if args.ledger is None else load_ledger(args.ledger)


_PAIR_HEADERS = ["source_r", "source_d", "target_r", "target_d", "status", "rule", "detail"]


def _pair_row(verdict: PairVerdict) -> list:
    source, target, cert = verdict.source, verdict.target, verdict.status.certificate
    return [
        source.r, source.d, target.r, target.d, verdict.status.kind.value,
        cert.rule.value if cert else "", _witness_text(cert.witness) if cert else "",
    ]


def _status_doc(status: PairStatus) -> dict:
    cert = status.certificate
    return {
        "status": status.kind.value,
        "rule": cert.rule.value if cert else None,
        "witness": dict(cert.witness) if cert else None,
    }


def _cmd_report(args) -> _Output:
    _require_at_most("report --g", args.g, REPORT_GENUS_CEILING, "report")
    report = genus_report(args.g, _load_ledger_arg(args))
    loci_rows = _maximal_rows(report.loci)
    pair_rows = [_pair_row(v) for v in report.pairs]
    doc = {
        "g": report.g,
        "loci": [dict(zip(_MAXIMAL_HEADERS, row)) for row in loci_rows],
        "pairs": [
            {"source": [v.source.r, v.source.d], "target": [v.target.r, v.target.d],
             **_status_doc(v.status)}
            for v in report.pairs
        ],
        "conjecture": "verified" if report.verified else "open",
        "open_pairs": [
            [[v.source.r, v.source.d], [v.target.r, v.target.d]] for v in report.open_pairs
        ],
    }
    if report.verified:
        verdict = f"verified ({len(report.pairs)} pairs established)"
    else:
        opens = ", ".join(
            f"({v.source.r},{v.source.d}) vs ({v.target.r},{v.target.d})"
            for v in report.open_pairs
        )
        verdict = f"{len(report.open_pairs)} open pair(s): {opens}"
    text = "\n".join([
        f"expected maximal loci at genus {args.g}",
        _table_text(_MAXIMAL_HEADERS, loci_rows),
        "",
        "ordered pair statuses (source not contained in target?)",
        _table_text(_PAIR_HEADERS, pair_rows),
        "",
        f"conjecture at genus {args.g}: {verdict}",
    ])
    return _Output(_PAIR_HEADERS, pair_rows, doc=doc, text=text)


def _cmd_check(args) -> _Output:
    source, target = BNLocus(*args.source), BNLocus(*args.target)
    status = pair_status(source, target, _load_ledger_arg(args))
    cert = status.certificate
    text = f"{source} vs {target}: {status.kind.value}"
    if cert:
        text += f" rule={cert.rule.value} {_witness_text(cert.witness)}"
    row = _pair_row(PairVerdict(source, target, status))
    return _Output(_PAIR_HEADERS, [row], doc=_status_doc(status), text=text)


# The scans grow as r^2.5: `gtable --r-max 60` takes about 1.5-2.5 s on a
# 2-vCPU VM and `exceptional --r 60` about 0.15-0.25 s, so higher ranks are
# refused.
# The library itself scans any rank.
SCAN_RANK_CEILING = 60

# A report has about g pairs (r_max(g)^2 with r_max about sqrt(g)), so its
# cost is about linear in g: `report --g 50000` takes about 0.7-1.3 s as a
# table or CSV and 1.5-2.4 s as JSON on a 2-vCPU VM, so larger genera are
# refused.  The library's genus_report takes any genus.
REPORT_GENUS_CEILING = 50_000

# `maximal` and `figure` print one row per rank up to r_max(g), about sqrt(g)
# rows: at g = 10^10 (100,000 rows) `maximal` takes about 1.3-2.9 s on a
# 2-vCPU VM (JSON slowest, 18 MB), so larger genera are refused.  The
# library's enumerate_expected_maximal takes any genus.
MAXIMAL_GENUS_CEILING = 10**10

# The kappa oracle suite checks closed against brute kappa on every admissible
# triple up to --gmax, about gmax^3/12 of them at O(log g) each: `selftest
# --gmax 160` takes about 1.4-1.9 s on a 2-vCPU VM (about 1.4-1.7 s of it in
# that suite, about 0.05 s certifying genera up to 160), so larger sweeps are
# refused.
# The library's selfcheck.run_all takes any gmax.
SELFTEST_GENUS_CEILING = 160


def _require_at_most(option: str, value: int, ceiling: int, work: str) -> None:
    if value > ceiling:
        raise DomainError(
            f"{option} is capped at {ceiling} to bound the {work}'s cost, got {value}"
        )


def _cmd_gtable(args) -> _Output:
    if not 2 <= args.r_min <= args.r_max:
        raise _UsageError("gtable requires 2 <= r-min <= r-max")
    _require_at_most("gtable --r-max", args.r_max, SCAN_RANK_CEILING, "scan")
    rows = [[r, maximal_loci.compute_G(r)] for r in range(args.r_min, args.r_max + 1)]
    return _Output(["r", "G"], rows)


def _cmd_exceptional(args) -> _Output:
    _require_at_most("exceptional --r", args.r, SCAN_RANK_CEILING, "scan")
    genera = maximal_loci.exceptional_genera(args.r, SRange(args.s_range))
    text = " ".join(str(g) for g in genera)
    return _Output(["g"], [[g] for g in genera], doc=genera, text=text)


_FIGURE_HEADERS = ["r", "d_max", "rho", "kappa", "lower_bound_approx", "upper_bound_approx"]


def _cmd_figure(args) -> int:
    text = _csv_text(_FIGURE_HEADERS, _cmd_maximal(args).rows)
    if args.out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_selftest(args) -> int:
    floor = maximal_loci.min_genus_for_rank(2)
    if args.gmax < floor:
        raise DomainError(
            f"selftest --gmax must be >= {floor}, the least genus with two expected maximal "
            f"loci, got {args.gmax}"
        )
    _require_at_most("selftest --gmax", args.gmax, SELFTEST_GENUS_CEILING, "sweep")
    from . import selfcheck  # only selftest needs it (and its decimal import)

    results = selfcheck.run_all(args.gmax)
    text, ok = selfcheck.render(results)
    print(text)
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# parser


@cache
def build_parser() -> _Parser:
    """The CLI's parser, built on the first call and shared by every later one.

    Building it costs far more than a parse, and nothing in it depends on the
    call: prog is fixed, so usage text does not depend on sys.argv[0].
    """
    parser = _Parser(prog="bnkappa", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name: str, func, help_: str, ints: str = "", formats: bool = True) -> _Parser:
        # a formatted command returns an _Output and _emit renders it; `ints`
        # names the command's required integer flags
        p = sub.add_parser(name, help=help_)
        if formats:
            p.set_defaults(func=lambda args: _emit(args, func(args)))
            p.add_argument("--format", choices=("table", "json", "csv"), default="table")
        else:
            p.set_defaults(func=func)
        for flag in ints.split():
            p.add_argument(f"--{flag}", type=int, required=True)
        return p

    def scalar(name: str, fn, help_: str, ints: str) -> None:
        # the flags are fn's parameter names, so its inputs are its keywords
        add(name, lambda args: _scalar(fn(**_inputs(args))), help_, ints)

    scalar("rho", bn_core.rho, "Brill-Noether number g - (r+1)(g-d+r)", "g r d")
    scalar("gamma", bn_core.clifford_index, "Clifford index d - 2r", "r d")
    scalar("rhok", bn_core.rho_pflueger, "k-gonal Brill-Noether number", "g r d k")
    add("kappa", _cmd_kappa, "gonality invariant of a locus with rho < 0", "g r d")
    scalar("dmax", maximal_loci.d_max, "largest degree with rho < 0 at fixed g, r", "g r")
    add("maximal", _cmd_maximal, "expected maximal loci at a genus", "g")

    p = add("report", _cmd_report, "pairwise non-containment report at a genus", "g")
    p.add_argument("--ledger", default=None, help="JSON ledger of published facts")

    p = add("check", _cmd_check, "certificate query for one ordered pair")
    p.add_argument("--source", type=_triple, required=True, metavar="g,r,d")
    p.add_argument("--target", type=_triple, required=True, metavar="g,s,e")
    p.add_argument("--ledger", default=None)

    p = add("gtable", _cmd_gtable, "genus thresholds G(r), default r = 2..10")
    p.add_argument("--r-min", type=int, default=2)
    p.add_argument("--r-max", type=int, default=10)

    p = add("exceptional", _cmd_exceptional, "genera where the kappa inequality fails", "r")
    p.add_argument("--s-range", choices=[s.value for s in SRange], default="maximal")

    p = add("figure", _cmd_figure, "per-rank CSV of d_max, rho, kappa and bounds", "g",
            formats=False)
    p.add_argument("--out", default=None, help="output path (stdout if omitted)")

    p = add("selftest", _cmd_selftest, "run built-in consistency suites", formats=False)
    p.add_argument("--gmax", type=int, default=60,
                   help=f"largest genus every suite sweeps, {maximal_loci.min_genus_for_rank(2)}.."
                        f"{SELFTEST_GENUS_CEILING} (default 60)")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except LedgerError as exc:
        print(f"error: malformed ledger: {exc}", file=sys.stderr)
        return 1
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: an I/O error.  Python flushes stdout
        # again at exit, so point it at devnull to keep that flush quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry()
