"""Command-line interface.

Subcommands mirror the library: scalar queries (rho, gamma, rhok, kappa,
dmax), per-genus summaries (maximal, report, figure), genus scans (gtable,
exceptional), pairwise queries (check) and the built-in selftest.

Exit codes: 0 success, 1 usage or I/O error (including a malformed ledger
and a reader that closed the output pipe), 2 domain error (inputs outside a
function's mathematical domain), 3 internal inconsistency (a cross-check that
can only fail on a bug, or a selftest suite that failed a check or ran none).

Output formats, chosen with --format on every command except `figure`
(always CSV) and `selftest` (always text): `table` (human-readable,
default), `json` (one document: {"command", "inputs", "result"}), `csv`
(RFC 4180, header row included).
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
from typing import Optional, Sequence

from . import __version__, bn_core, maximal_loci, selfcheck
from .bn_core import BNLocus
from .certificates import (
    Ledger,
    LedgerError,
    genus_report,
    load_ledger,
    pair_status,
)
from .errors import DomainError, InternalError
from .maximal_loci import SRange


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2 (2 is reserved for
    # domain errors here)
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _triple(text: str) -> BNLocus:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected g,r,d — got {text!r}")
    try:
        g, r, d = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers g,r,d — got {text!r}")
    return BNLocus(g, r, d)


# ---------------------------------------------------------------------------
# rendering


def _fmt_approx(x: float) -> str:
    return f"{x:.4f}"


def _emit_json(command: str, inputs: dict, result: object) -> None:
    print(json.dumps({"command": command, "inputs": inputs, "result": result}, indent=2))


def _emit_csv(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)  # excel dialect: comma-separated, CRLF line ends
    writer.writerow(headers)
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _emit_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    for row in cells:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def _emit_scalar(args: argparse.Namespace, command: str, inputs: dict, value: int) -> None:
    if args.format == "json":
        _emit_json(command, inputs, value)
    elif args.format == "csv":
        _emit_csv(["value"], [[value]])
    else:
        print(value)


def _witness_text(witness) -> str:
    return " ".join(f"{k}={v}" for k, v in witness.items())


# ---------------------------------------------------------------------------
# commands


def _cmd_rho(args) -> int:
    value = bn_core.rho(args.g, args.r, args.d)
    _emit_scalar(args, "rho", {"g": args.g, "r": args.r, "d": args.d}, value)
    return 0


def _cmd_gamma(args) -> int:
    value = bn_core.clifford_index(args.r, args.d)
    _emit_scalar(args, "gamma", {"r": args.r, "d": args.d}, value)
    return 0


def _cmd_rhok(args) -> int:
    value = bn_core.rho_pflueger(args.g, args.r, args.d, args.k)
    _emit_scalar(args, "rhok", {"g": args.g, "r": args.r, "d": args.d, "k": args.k}, value)
    return 0


def _kappa_payload(res: bn_core.KappaResult) -> dict:
    return {
        "value": res.value,
        "branch": res.branch.value,
        "rho": res.rho,
        "gamma": res.gamma,
    }


def _cmd_kappa(args) -> int:
    inputs = {"g": args.g, "r": args.r, "d": args.d, "method": args.method}
    results = {}
    if args.method in ("closed", "both"):
        results["closed"] = bn_core.kappa(args.g, args.r, args.d)
    if args.method in ("brute", "both"):
        results["brute"] = bn_core.kappa_brute(args.g, args.r, args.d)
    if args.method == "both" and results["closed"].value != results["brute"].value:
        raise InternalError(
            f"kappa mismatch at ({args.g},{args.r},{args.d}): "
            f"closed={results['closed'].value} brute={results['brute'].value}"
        )
    value = next(iter(results.values())).value
    if args.format == "json":
        payload = {name: _kappa_payload(res) for name, res in results.items()}
        payload["value"] = value
        _emit_json("kappa", inputs, payload)
    elif args.format == "csv":
        _emit_csv(
            ["method", "value", "branch", "rho", "gamma"],
            [[m, r.value, r.branch.value, r.rho, r.gamma] for m, r in results.items()],
        )
    else:
        print(value)
    return 0


def _cmd_dmax(args) -> int:
    value = maximal_loci.d_max(args.g, args.r)
    _emit_scalar(args, "dmax", {"g": args.g, "r": args.r}, value)
    return 0


def _maximal_rows(g: int):
    rows = []
    for rec in maximal_loci.enumerate_expected_maximal(g):
        rows.append(
            [
                rec.locus.r,
                rec.locus.d,
                rec.rho,
                rec.kappa.value,
                _fmt_approx(rec.lower_bound.approx()),
                _fmt_approx(rec.upper_bound.approx()),
            ]
        )
    return rows


_MAXIMAL_HEADERS = ["r", "d", "rho", "kappa", "lower_bound_approx", "upper_bound_approx"]


def _cmd_maximal(args) -> int:
    rows = _maximal_rows(args.g)
    if args.format == "json":
        result = [dict(zip(_MAXIMAL_HEADERS, row)) for row in rows]
        _emit_json("maximal", {"g": args.g}, result)
    elif args.format == "csv":
        _emit_csv(_MAXIMAL_HEADERS, rows)
    else:
        _emit_table(_MAXIMAL_HEADERS, rows)
    return 0


def _load_ledger_arg(args) -> Optional[Ledger]:
    if getattr(args, "ledger", None) is None:
        return None
    return load_ledger(args.ledger)


_PAIR_HEADERS = ["source_r", "source_d", "target_r", "target_d", "status", "rule", "detail"]


def _pair_row(verdict) -> list:
    cert = verdict.status.certificate
    return [
        verdict.source.r,
        verdict.source.d,
        verdict.target.r,
        verdict.target.d,
        verdict.status.kind.value,
        cert.rule.value if cert else "",
        _witness_text(cert.witness) if cert else "",
    ]


def _cmd_report(args) -> int:
    ledger = _load_ledger_arg(args)
    report = genus_report(args.g, ledger)
    pair_rows = [_pair_row(v) for v in report.pairs]
    if args.format == "json":
        result = {
            "g": report.g,
            "loci": [dict(zip(_MAXIMAL_HEADERS, row)) for row in _maximal_rows(args.g)],
            "pairs": [
                {
                    "source": [v.source.r, v.source.d],
                    "target": [v.target.r, v.target.d],
                    "status": v.status.kind.value,
                    "rule": v.status.certificate.rule.value if v.status.certificate else None,
                    "witness": dict(v.status.certificate.witness)
                    if v.status.certificate
                    else None,
                }
                for v in report.pairs
            ],
            "conjecture": "verified" if report.verified else "open",
            "open_pairs": [
                [[v.source.r, v.source.d], [v.target.r, v.target.d]]
                for v in report.open_pairs
            ],
        }
        _emit_json("report", {"g": args.g, "ledger": args.ledger}, result)
    elif args.format == "csv":
        _emit_csv(_PAIR_HEADERS, pair_rows)
    else:
        print(f"expected maximal loci at genus {args.g}")
        _emit_table(_MAXIMAL_HEADERS, _maximal_rows(args.g))
        print()
        print("ordered pair statuses (source not contained in target?)")
        _emit_table(_PAIR_HEADERS, pair_rows)
        print()
        n_open = len(report.open_pairs)
        if report.verified:
            print(f"conjecture at genus {args.g}: verified ({len(report.pairs)} pairs established)")
        else:
            opens = ", ".join(
                f"({v.source.r},{v.source.d}) vs ({v.target.r},{v.target.d})"
                for v in report.open_pairs
            )
            print(f"conjecture at genus {args.g}: {n_open} open pair(s): {opens}")
    return 0


def _cmd_check(args) -> int:
    ledger = _load_ledger_arg(args)
    status = pair_status(args.source, args.target, ledger)
    cert = status.certificate
    inputs = {
        "source": [args.source.g, args.source.r, args.source.d],
        "target": [args.target.g, args.target.r, args.target.d],
        "ledger": args.ledger,
    }
    if args.format == "json":
        _emit_json(
            "check",
            inputs,
            {
                "status": status.kind.value,
                "rule": cert.rule.value if cert else None,
                "witness": dict(cert.witness) if cert else None,
            },
        )
    elif args.format == "csv":
        row = [
            args.source.r,
            args.source.d,
            args.target.r,
            args.target.d,
            status.kind.value,
            cert.rule.value if cert else "",
            _witness_text(cert.witness) if cert else "",
        ]
        _emit_csv(_PAIR_HEADERS, [row])
    else:
        text = f"{args.source} vs {args.target}: {status.kind.value}"
        if cert:
            text += f" rule={cert.rule.value} {_witness_text(cert.witness)}"
        print(text)
    return 0


def _cmd_gtable(args) -> int:
    if not 2 <= args.r_min <= args.r_max:
        print("error: gtable requires 2 <= r-min <= r-max", file=sys.stderr)
        return 1
    s_range = SRange(args.s_range)
    rows = [
        [r, maximal_loci.compute_G(r, s_range)] for r in range(args.r_min, args.r_max + 1)
    ]
    if args.format == "json":
        inputs = {"r_min": args.r_min, "r_max": args.r_max, "s_range": args.s_range}
        _emit_json("gtable", inputs, [{"r": r, "G": G} for r, G in rows])
    elif args.format == "csv":
        _emit_csv(["r", "G"], rows)
    else:
        _emit_table(["r", "G"], rows)
    return 0


def _cmd_exceptional(args) -> int:
    s_range = SRange(args.s_range)
    genera = maximal_loci.exceptional_genera(args.r, s_range)
    if args.format == "json":
        _emit_json("exceptional", {"r": args.r, "s_range": args.s_range}, genera)
    elif args.format == "csv":
        _emit_csv(["g"], [[g] for g in genera])
    else:
        print(" ".join(str(g) for g in genera))
    return 0


_FIGURE_HEADERS = ["r", "d_max", "rho", "kappa", "lower_bound_approx", "upper_bound_approx"]


def _cmd_figure(args) -> int:
    rows = _maximal_rows(args.g)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_FIGURE_HEADERS)
    writer.writerows(rows)
    if args.out is None:
        sys.stdout.write(buf.getvalue())
        return 0
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(buf.getvalue())
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_selftest(args) -> int:
    results = selfcheck.run_all(args.gmax)
    text, ok = selfcheck.render(results)
    print(text)
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="bnkappa", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name: str, func, help_: str, formats: bool = True) -> _Parser:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        if formats:
            p.add_argument("--format", choices=("table", "json", "csv"), default="table")
        return p

    p = add("rho", _cmd_rho, "Brill-Noether number g - (r+1)(g-d+r)")
    for flag in ("--g", "--r", "--d"):
        p.add_argument(flag, type=int, required=True)

    p = add("gamma", _cmd_gamma, "Clifford index d - 2r")
    for flag in ("--r", "--d"):
        p.add_argument(flag, type=int, required=True)

    p = add("rhok", _cmd_rhok, "k-gonal Brill-Noether number")
    for flag in ("--g", "--r", "--d", "--k"):
        p.add_argument(flag, type=int, required=True)

    p = add("kappa", _cmd_kappa, "gonality invariant of a locus with rho < 0")
    for flag in ("--g", "--r", "--d"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--method", choices=("closed", "brute", "both"), default="both")

    p = add("dmax", _cmd_dmax, "largest degree with rho < 0 at fixed g, r")
    for flag in ("--g", "--r"):
        p.add_argument(flag, type=int, required=True)

    p = add("maximal", _cmd_maximal, "expected maximal loci at a genus")
    p.add_argument("--g", type=int, required=True)

    p = add("report", _cmd_report, "pairwise non-containment report at a genus")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--ledger", default=None, help="JSON ledger of published facts")

    p = add("check", _cmd_check, "certificate query for one ordered pair")
    p.add_argument("--source", type=_triple, required=True, metavar="g,r,d")
    p.add_argument("--target", type=_triple, required=True, metavar="g,s,e")
    p.add_argument("--ledger", default=None)

    p = add("gtable", _cmd_gtable, "genus thresholds G(r), default r = 2..10")
    p.add_argument("--r-min", type=int, default=2)
    p.add_argument("--r-max", type=int, default=10)
    p.add_argument("--s-range", choices=("maximal", "paper", "lemma"), default="maximal")

    p = add("exceptional", _cmd_exceptional, "genera where the kappa inequality fails")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s-range", choices=("maximal", "paper", "lemma"), default="maximal")

    p = add(
        "figure", _cmd_figure, "per-rank CSV of d_max, rho, kappa and bounds", formats=False
    )
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--out", default=None, help="output path (stdout if omitted)")

    p = add("selftest", _cmd_selftest, "run built-in consistency suites", formats=False)
    p.add_argument("--gmax", type=int, default=60)

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
