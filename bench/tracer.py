"""Per-function call counts, total time and self time for the bnkappa layers.

Tracer wraps every public function of the traced modules and installs the
wrapper under each module-level name that refers to the function, so calls
made through `from .x import f` bindings are seen too.  Nothing under src/
changes; uninstall() puts the original functions back.  Self time is a
call's duration minus the time covered by wrapped callees.
"""

from __future__ import annotations

import importlib
import sys
import types
from dataclasses import dataclass, field
from time import perf_counter

PACKAGE = "bnkappa"
LAYERS = ("exact_arith", "bn_core", "maximal_loci", "certificates", "selfcheck", "cli")


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    extra: dict = field(default_factory=dict)


class DistinctPairs:
    """Counts distinct (g, r) with a byte per pair, for the scans' millions of calls."""

    STRIDE = 256

    def __init__(self):
        self.seen = bytearray()
        self.other: set[tuple[int, int]] = set()
        self.count = 0

    def add(self, g: int, r: int) -> None:
        if not (0 <= r < self.STRIDE and 0 <= g < 1 << 20):
            if (g, r) not in self.other:
                self.other.add((g, r))
                self.count += 1
            return
        i = g * self.STRIDE + r
        if i >= len(self.seen):
            self.seen.extend(bytes(i + 1 - len(self.seen) + (1 << 20)))
        if not self.seen[i]:
            self.seen[i] = 1
            self.count += 1


def _hooks():
    """Counters recorded at a layer boundary beyond calls and time."""

    def loci(st, args, result):
        st.extra["loci"] = st.extra.get("loci", 0) + len(result)

    def trivial_hits(st, args, result):
        hit = result.kind.value == "trivial-containment"
        st.extra["trivial"] = st.extra.get("trivial", 0) + hit

    def dmax_pairs(st, args, result):
        st.extra.setdefault("pairs", DistinctPairs()).add(args[0], args[1])

    return {
        "certificates.trivial_closure": loci,
        "certificates.pair_status": trivial_hits,
        "maximal_loci.enumerate_expected_maximal": loci,
        "maximal_loci.kappa_at_dmax": dmax_pairs,
    }


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[list[float]] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, name: str, fn, hook):
        st = self.stats.setdefault(name, Stat())
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if hook is not None:
                hook(st, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        hooks = _hooks()
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self._wrap(name, obj, hooks.get(name))
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def dump(self, rounds: int) -> dict:
        """Every traced function's figures per round, for the run record.

        Every round makes the same calls, so a distinct-pair count is the
        same per round as over the run and is not divided.
        """
        out = {}
        for name, st in sorted(self.stats.items()):
            row = {
                "calls": st.calls // rounds,
                "total_s": st.total_s / rounds,
                "self_s": st.self_s / rounds,
            }
            for key, value in st.extra.items():
                row[key] = value.count if isinstance(value, DistinctPairs) else value // rounds
            out[name] = row
        return out
