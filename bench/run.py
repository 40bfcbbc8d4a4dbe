"""Run one workload of the bnkappa benchmark and print its metrics.

    python3 bench/run.py --workload atlas --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the package is imported from
src/.  Workloads: atlas, scans, oracle, cli (see bench/README.md).  The run
repeats whole rounds of its operations, one at a time from one thread,
until --seconds of operation time have passed, and checks every output.
End-to-end times are scaled to a reference CPU speed (see PROBE_REF_S).

--trace 0 measures the end-to-end metrics of BENCHMARK.json.  --trace 1
wraps the package's public functions and reports the per-layer metrics,
then runs as many rounds again untraced to measure the tracing overhead.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A run record goes to bench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "data" / "known.json"
SETUP_REPEATS = 11
START_REPEATS = 5
TAIL_BEYOND = 10  # samples above the reported tail percentile
WORKLOADS = ("atlas", "scans", "oracle", "cli")


# On a shared host the speed of pure-Python code can drift by half within
# minutes with other tenants' load (seen on a 2-vCPU VM).  Every end-to-end
# time is therefore also measured against a fixed probe loop run next to it,
# and reported at the speed where the probe takes PROBE_REF_S; the run
# record keeps the wall-clock figures too.
PROBE_REF_S = 250e-6


def probe() -> float:
    """Seconds one fixed pure-Python loop takes now."""
    t0 = perf_counter()
    s = 0
    for i in range(3000):
        s += i * i % 7
    return perf_counter() - t0


def speed_scale(samples: list[float]) -> float:
    """Factor that takes a time measured alongside these probe samples to the reference speed."""
    return PROBE_REF_S / statistics.median(samples)


def _purge_package() -> None:
    for name in [m for m in sys.modules if m == "bnkappa" or m.startswith("bnkappa.")]:
        del sys.modules[name]


def setup_seconds(workload: str) -> tuple[float, float]:
    """Median set-up time at the reference speed, and on the wall clock.

    Set-up is a `--version` process for cli, else an import of the package
    plus a ledger load.
    """
    ref_times, times = [], []
    for _ in range(START_REPEATS if workload == "cli" else SETUP_REPEATS):
        scale = speed_scale([probe() for _ in range(5)])
        t0 = perf_counter()
        if workload == "cli":
            from workloads import run_cli

            code, out = run_cli(["--version"])
            if code != 0 or not out.startswith("bnkappa "):
                raise RuntimeError(f"bnkappa --version exited {code}: {out!r}")
        else:
            _purge_package()
            importlib.import_module("bnkappa").load_ledger(LEDGER)
        dt = perf_counter() - t0
        times.append(dt)
        ref_times.append(dt * scale)
    return statistics.median(ref_times), statistics.median(times)


def start_ms(env) -> tuple[float, float]:
    """Median bare interpreter start, and the import of bnkappa.cli beyond it, in ms."""
    import subprocess

    def median_run(code: str) -> float:
        times = []
        for _ in range(START_REPEATS):
            t0 = perf_counter()
            # captured output makes run() wait on the pipes; a bare timeout polls in steps of up to 50 ms
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, capture_output=True, timeout=60)
            times.append(perf_counter() - t0)
        return statistics.median(times)

    bare = median_run("pass")
    return bare * 1e3, (median_run("import bnkappa.cli") - bare) * 1e3


class Rounds:
    """Whole rounds of a workload's operations, each timed and checked.

    A probe runs before each operation, outside its timing; each round's
    median probe scales that round's times to the reference speed.
    """

    def __init__(self, workload, ops):
        self.workload = workload
        self.ops = ops
        self.times = [[] for _ in ops]  # wall clock, per op and round
        self.ref_times = [[] for _ in ops]  # at the reference speed
        self.rounds = 0
        self.elapsed = 0.0
        self.ref_elapsed = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, seconds: float = 0.0, rounds: int = 0) -> None:
        """Run `rounds` rounds, or whole rounds until `seconds` of operation time."""
        while self.rounds < rounds or (not rounds and (self.rounds == 0 or self.elapsed < seconds)):
            probes, done, spent = [], [], 0.0
            for i, op in enumerate(self.ops):
                self.attempted += 1
                probes.append(probe())
                t0 = perf_counter()
                try:
                    result = op.run()
                except Exception:  # a failed operation is counted, and the run goes on
                    spent += perf_counter() - t0
                    self.failed += 1
                    self.errors.append(f"{str(op.key)[:100]} raised:\n{traceback.format_exc()}")
                    continue
                dt = perf_counter() - t0
                spent += dt
                done.append((i, dt))
                self.errors.extend(self.workload.check(op, result))
            scale = speed_scale(probes)
            for i, dt in done:
                self.times[i].append(dt)
                self.ref_times[i].append(dt * scale)
            self.elapsed += spent
            self.ref_elapsed += spent * scale
            self.rounds += 1

    @staticmethod
    def latency(times) -> dict:
        """p50 and tail over the operations of a round, each taken as its median over rounds."""
        per_op = sorted(statistics.median(t) for t in times if t)
        n = len(per_op)
        out = {"samples": n, "p50_ms": statistics.median(per_op) * 1e3}
        if n >= 4 * TAIL_BEYOND:
            out["tail_percentile"] = 100.0 * (n - TAIL_BEYOND) / n
            out["tail_ms"] = per_op[n - TAIL_BEYOND - 1] * 1e3
        return out


def make_workload(name: str, seed: int):
    import workloads

    if name == "atlas":
        return workloads.Atlas()
    if name == "scans":
        return workloads.Scans(seed)
    if name == "oracle":
        return workloads.Oracle()
    return workloads.Cli()


def peak_rss_mib(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(wl, rounds: Rounds, setup: tuple[float, float]) -> tuple[dict, dict]:
    work = rounds.rounds * sum(op.work for op in rounds.ops)
    figures = {}
    for clock, times, elapsed, setup_s in (
        ("reference", rounds.ref_times, rounds.ref_elapsed, setup[0]),
        ("wall", rounds.times, rounds.elapsed, setup[1]),
    ):
        lat = Rounds.latency(times)
        if "tail_ms" not in lat:
            raise RuntimeError(f"{lat['samples']} operations per round; op_tail_ms needs {4 * TAIL_BEYOND}")
        figures[clock] = {
            "setup_s": setup_s,
            "ops_per_s": rounds.attempted / elapsed,
            "work_per_s": work / elapsed,
            "op_p50_ms": lat["p50_ms"],
            "op_tail_ms": lat["tail_ms"],
            "peak_rss_mib": peak_rss_mib(wl.name),
            f"{wl.work_name}_per_s": work / elapsed,
            "tail_percentile": lat["tail_percentile"],
            "samples": lat["samples"],
        }
    detail = {f"{wl.work_name}_per_round": work // rounds.rounds, **figures}
    return figures["reference"], detail


def per_layer(stats: dict, rounds: int) -> dict:
    """The per-layer metrics of BENCHMARK.json, per round, from the tracer's figures."""
    from tracer import Stat

    def st(name):
        return stats.get(name) or Stat()

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in (
        "certificates.trivial_closure",
        "certificates.pair_status",
        "bn_core.trivial_specializations",
        "bn_core.kappa",
        "maximal_loci.kappa_at_dmax",
        "maximal_loci.ineq_holds_all_s",
        "exact_arith.floor_neg_2sqrt",
        "exact_arith.surd_sign",
        "bn_core.kappa_brute",
        "bn_core.kappa_closed",
        "maximal_loci.enumerate_expected_maximal",
    ):
        out[f"{name}.calls"] = st(name).calls // rounds
        out[f"{name}.self_s"] = st(name).self_s / rounds
    for name in (
        "certificates.genus_report",
        "certificates.load_ledger",
        "maximal_loci.compute_G",
        "maximal_loci.exceptional_genera",
        "selfcheck.run_all",
    ):
        out[f"{name}.s"] = st(name).total_s / rounds
    closure = st("certificates.trivial_closure")
    out["certificates.trivial_closure.loci"] = closure.extra.get("loci", 0) // rounds
    out["certificates.trivial_closure.hit_ratio"] = ratio(
        st("certificates.pair_status").extra.get("trivial", 0), closure.calls
    )
    out["bn_core.kappa.calls_per_locus"] = ratio(
        st("bn_core.kappa").calls, st("maximal_loci.enumerate_expected_maximal").extra.get("loci", 0)
    )
    dmax = st("maximal_loci.kappa_at_dmax")
    pairs = dmax.extra.get("pairs")
    # every round calls with the same pairs, so the distinct count is per round already
    out["maximal_loci.kappa_at_dmax.calls_per_pair"] = ratio(dmax.calls // rounds, pairs.count if pairs else 0)
    out["bn_core.rho_pflueger.calls"] = st("bn_core.rho_pflueger").calls // rounds
    out["cli.main.self_s"] = st("cli.main").self_s / rounds
    return out


def traced(wl, seed: int, seconds: float) -> tuple[dict, dict, list]:
    from tracer import Tracer

    if wl.name == "cli":
        from workloads import cli_env

        interpreter_ms, import_ms = start_ms(cli_env())
    else:
        interpreter_ms = import_ms = 0.0
    tracer = Tracer()
    tracer.install()
    try:
        on = Rounds(wl, wl.ops(random.Random(seed), traced=True))
        on.run(seconds=seconds)
    finally:
        tracer.uninstall()
    off = Rounds(wl, wl.ops(random.Random(seed), traced=True))
    off.run(rounds=on.rounds)
    metrics = per_layer(tracer.stats, on.rounds)
    metrics["trace.overhead_s"] = (on.elapsed - off.elapsed) / on.rounds
    metrics["cli.interpreter_ms"], metrics["cli.import_ms"] = interpreter_ms, import_ms
    detail = {"functions": tracer.dump(on.rounds), "untraced_s_per_round": off.elapsed / off.rounds}
    return metrics, detail, [on, off]


def git_commit():
    """HEAD's commit when the checkout is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def emit(spec: list, values: dict) -> dict:
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "bnkappa" / "__init__.py", LEDGER, ROOT / "BENCHMARK.json") if not p.is_file()]
    if missing:
        print(f"error: not a bnkappa source checkout, missing {[str(p) for p in missing]}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))

    setup = setup_seconds(args.workload)
    wl = make_workload(args.workload, args.seed)
    if args.trace:
        values, detail, runs = traced(wl, args.seed, args.seconds)
        metrics = emit(spec["per_layer"], values)
    else:
        run = Rounds(wl, wl.ops(random.Random(args.seed)))
        run.run(seconds=args.seconds)
        values, detail = end_to_end(wl, run, setup)
        metrics = emit(spec["end_to_end"], values)
        runs = [run]

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    errors = [e for r in runs for e in r.errors]
    if getattr(wl, "verdicts", None):
        detail["verdicts_per_round"] = {k: v // sum(r.rounds for r in runs) for k, v in sorted(wl.verdicts.items())}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "bnkappa_version": importlib.import_module("bnkappa").__version__,
        "git_commit": git_commit(),
        "rounds": runs[0].rounds,
        "ops_per_round": len(runs[0].ops),
        "attempted": attempted,
        "failed": failed,
        "correct": not errors,
        "errors": errors[:50],
        "metrics": metrics,
        "detail": detail,
    }
    out_dir = ROOT / "bench" / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for e in errors[:20]:
        print(f"CHECK FAILED: {e}")
    print(f"{args.workload}: {runs[0].rounds} rounds of {len(runs[0].ops)} ops, "
          f"{attempted} attempted, {failed} failed, record {path.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for key, value in detail.items():
        if key != "functions":
            print(f"  {key}: {json.dumps(value)}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
