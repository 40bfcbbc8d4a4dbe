"""Non-containment certificates between Brill-Noether loci.

Distinct loci at the same genus may or may not contain one another.  Four
computational rules can rule containment out, plus one ledger of citations
to published facts:

* KAPPA_GAP            kappa(source) > kappa(target): the general curve of
                       gonality kappa(source) lies in source but not target.
* DIMENSION            -rho(source) < -rho(target) <= 3: for -3 <= rho <= -1
                       codimension is known to equal -rho exactly, and every
                       component of source has codimension at most
                       -rho(source), so source is too big to fit in target.
* DIVISOR_CRITERION    a Clifford-index gap: gamma(target) >
                       gamma(source) + ceil(2*sqrt(-rho(source))) - 2, valid
                       when rho(target) = -1, source rank >= 2 and
                       g + 1 <= floor(d/r) + d for the source.
* EQUIDIMENSIONAL_FLIP both loci have rho = -1 (hence are irreducible of
                       equal dimension), so a containment either way would
                       force equality; once the reverse direction is
                       established, this direction follows.
* EXTERNAL             the pair appears in a user-supplied ledger of
                       published non-containments, each entry with its
                       citation.

Each rule is written once, as a derive function in the ordered table
_RULES.  pair_status is the one way to ask for a certificate: it walks the
table in exactly that order, so reports are deterministic.  Absence of a
certificate never asserts containment: the pair is Open.

Every certificate carries a witness.  NonContainmentCertificate.verify()
re-runs the same rule's derive function on the pair and accepts only an
exact match with the stored witness, so a tampered, missing or extra
witness field fails.  pair_status and verify() share one admissibility
check (distinct loci, equal genus, rho < 0 on both sides), so a
certificate of a locus against itself never verifies.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Set
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping, Optional, Union

from . import bn_core
from .bn_core import BNLocus
from .errors import DomainError
from .exact_arith import ceil_2sqrt
from .maximal_loci import MaximalLocusRecord, enumerate_expected_maximal

__all__ = [
    "Rule",
    "StatusKind",
    "NonContainmentCertificate",
    "PairStatus",
    "PairVerdict",
    "GenusReport",
    "Ledger",
    "LedgerError",
    "load_ledger",
    "TrivialClosure",
    "trivial_closure",
    "pair_status",
    "genus_report",
]


class Rule(Enum):
    KAPPA_GAP = "kappa-gap"
    DIMENSION = "dimension"
    DIVISOR_CRITERION = "divisor-criterion"
    EQUIDIMENSIONAL_FLIP = "equidimensional-flip"
    EXTERNAL = "external"


class StatusKind(Enum):
    ESTABLISHED = "established"
    TRIVIAL_CONTAINMENT = "trivial-containment"
    OPEN = "open"


class LedgerError(Exception):
    """The external ledger file is malformed."""


@dataclass(frozen=True)
class NonContainmentCertificate:
    """Witnessed claim that source is not contained in target."""

    source: BNLocus
    target: BNLocus
    rule: Rule
    witness: Mapping[str, object] = field(default_factory=dict)

    def verify(self, ledger: Optional["Ledger"] = None) -> bool:
        """Re-derive this rule for the pair and require the identical witness."""
        try:
            _require_admissible_pair(self.source, self.target, "verify")
            derived = _RULES[self.rule](self.source, self.target, ledger)
        except DomainError:
            return False
        return derived == dict(self.witness)


@dataclass(frozen=True)
class PairStatus:
    kind: StatusKind
    certificate: Optional[NonContainmentCertificate] = None


@dataclass(frozen=True)
class PairVerdict:
    source: BNLocus
    target: BNLocus
    status: PairStatus


@dataclass(frozen=True)
class GenusReport:
    """All expected maximal loci at one genus and every ordered pair's status."""

    g: int
    loci: tuple[MaximalLocusRecord, ...]
    pairs: tuple[PairVerdict, ...]

    @property
    def open_pairs(self) -> tuple[PairVerdict, ...]:
        return tuple(p for p in self.pairs if p.status.kind is StatusKind.OPEN)

    @property
    def verified(self) -> bool:
        return not self.open_pairs


@dataclass(frozen=True)
class LedgerEntry:
    g: int
    source: tuple[int, int]  # (rank, degree)
    target: tuple[int, int]
    cite: str


class Ledger:
    """Published non-containment facts, keyed by (g, source, target)."""

    def __init__(self, entries: list[LedgerEntry]):
        self._by_key: dict[tuple, str] = {}
        self.entries = entries
        for e in entries:
            key = (e.g, e.source, e.target)
            if e.source == e.target:
                raise LedgerError(f"ledger entry for {key} has equal source and target")
            if key in self._by_key:
                raise LedgerError(f"duplicate ledger entry for {key}")
            self._by_key[key] = e.cite

    def lookup(self, source: BNLocus, target: BNLocus) -> Optional[str]:
        if source.g != target.g:
            return None
        return self._by_key.get((source.g, (source.r, source.d), (target.r, target.d)))


_ENTRY_FIELDS = {"g", "source", "target", "cite"}


def _parse_entry(obj: object, where: str) -> LedgerEntry:
    if not isinstance(obj, dict):
        raise LedgerError(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - _ENTRY_FIELDS
    if unknown:
        raise LedgerError(f"{where}: unknown fields {sorted(unknown)}")
    missing = _ENTRY_FIELDS - set(obj)
    if missing:
        raise LedgerError(f"{where}: missing fields {sorted(missing)}")
    g, source, target, cite = obj["g"], obj["source"], obj["target"], obj["cite"]
    if not isinstance(g, int) or isinstance(g, bool):
        raise LedgerError(f"{where}: g must be an integer")
    for name, pair in (("source", source), ("target", target)):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in pair)
        ):
            raise LedgerError(f"{where}: {name} must be a [rank, degree] pair of integers")
    if not isinstance(cite, str) or not cite:
        raise LedgerError(f"{where}: cite must be a non-empty string")
    return LedgerEntry(g, (source[0], source[1]), (target[0], target[1]), cite)


def load_ledger(path: Union[str, Path]) -> Ledger:
    """Load a ledger from JSON: either one array, or one object per line."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise LedgerError(f"cannot read ledger {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("["):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise LedgerError(f"invalid JSON in ledger {path}: {exc}") from exc
        return Ledger([_parse_entry(obj, f"entry {i}") for i, obj in enumerate(data)])
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise LedgerError(f"invalid JSON on ledger line {lineno}: {exc}") from exc
        entries.append(_parse_entry(obj, f"line {lineno}"))
    return Ledger(entries)


class TrivialClosure(Set[BNLocus]):
    """Read-only set of the loci a start reaches by trivial steps.

    Nothing is stored beyond the start: degrees(s) gives the reachable
    degrees at rank s in closed form, membership asks it once, and length
    and iteration walk it rank by rank.  The Set mixin supplies ==, <= and
    the other comparisons, so the view compares equal to the plain set.
    """

    __slots__ = ("g", "r", "d")

    def __init__(self, g: int, r: int, d: int):
        BNLocus(g, r, d)  # an invalid start raises DomainError
        self.g, self.r, self.d = g, r, d

    def degrees(self, s: int) -> range:
        """The degrees reachable at rank s: an interval ending at 2g - 2, or empty."""
        g, r, d = self.g, self.r, self.d
        if r < 1 or d >= 2 * g - 2 or not 1 <= s <= r:
            return range(0)
        if s == r:
            return range(d + 1, 2 * g - 1)
        x = max(d - (r - s), 0)
        return range(x, 2 * g - 1) if bn_core.rho(g, s, x) < 0 else range(0)

    def __contains__(self, target: object) -> bool:
        return (
            isinstance(target, BNLocus)
            and target.g == self.g
            and target.d in self.degrees(target.r)
        )

    def __iter__(self) -> Iterator[BNLocus]:
        for s in range(1, self.r + 1):
            for e in self.degrees(s):
                yield BNLocus(self.g, s, e)

    def __len__(self) -> int:
        return sum(len(self.degrees(s)) for s in range(1, self.r + 1))


def trivial_closure(g: int, r: int, d: int) -> TrivialClosure:
    """All loci reachable from (g, r, d) by one or more trivial steps.

    A trivial step holds for every curve: adding a base point takes (r, d)
    to (r, d+1), and removing a non-base point takes it to (r-1, d-1) while
    that target is a proper locus (rho < 0).  Only starts with r >= 1 and
    d < 2g - 2 take a step, and degrees stay <= 2g - 2.

    The result is a read-only set view, not a built set: membership is O(1),
    and TrivialClosure.degrees(s) is the closed form.  For each rank s in
    1..r, the lowest reachable degree is x = max(d - (r - s), 0), and every
    degree from x to 2g - 2 is reached, provided s = r or rho(g, s, x) < 0;
    at s = r the start itself is left out.  A rank drop keeps h = g - d + r
    fixed, so rho only rises as the rank falls and the last drop is the
    hardest; a degree step lowers h, so dropping rank first is never worse.
    The step-by-step search is the oracle in the tests.
    """
    return TrivialClosure(g, r, d)


def _require_admissible_pair(source: BNLocus, target: BNLocus, op: str) -> None:
    if source == target:
        raise DomainError(f"{op} requires distinct loci")
    if source.g != target.g:
        raise DomainError(f"{op} requires equal genus, got {source.g} and {target.g}")
    if source.rho() >= 0 or target.rho() >= 0:
        raise DomainError(f"{op} requires both loci to have rho < 0")


# ---------------------------------------------------------------------------
# the rules: each maps (source, target, ledger) to a witness, or None when the
# rule does not apply; a DomainError means its hypotheses fail for the pair


Witness = dict[str, object]


def _kappa_gap(source: BNLocus, target: BNLocus, ledger: Optional[Ledger]) -> Optional[Witness]:
    ks = bn_core.kappa(source.g, source.r, source.d).value
    kt = bn_core.kappa(target.g, target.r, target.d).value
    return {"kappa_source": ks, "kappa_target": kt} if ks > kt else None


def _dimension(source: BNLocus, target: BNLocus, ledger: Optional[Ledger]) -> Optional[Witness]:
    rs, rt = source.rho(), target.rho()
    return {"rho_source": rs, "rho_target": rt} if -rs < -rt <= 3 else None


def _divisor(source: BNLocus, target: BNLocus, ledger: Optional[Ledger]) -> Optional[Witness]:
    if target.rho() != -1:
        raise DomainError(f"the divisor criterion requires rho(target) = -1, got {target.rho()}")
    if source.r < 2:
        return None  # rank-1 sources are the kappa rule's job
    if source.g + 1 > source.d // source.r + source.d:
        return None
    gap = ceil_2sqrt(-source.rho()) - 2
    if target.gamma() > source.gamma() + gap:
        return {
            "gamma_source": source.gamma(),
            "gamma_target": target.gamma(),
            "clifford_gap": gap,
        }
    return None


def _flip(source: BNLocus, target: BNLocus, ledger: Optional[Ledger]) -> Optional[Witness]:
    if source.rho() != -1 or target.rho() != -1:
        return None
    reverse = _derive_certificate(target, source, ledger, skip=Rule.EQUIDIMENSIONAL_FLIP)
    return None if reverse is None else {"reverse_rule": reverse.rule.value, "rho": -1}


def _external(source: BNLocus, target: BNLocus, ledger: Optional[Ledger]) -> Optional[Witness]:
    cite = None if ledger is None else ledger.lookup(source, target)
    return None if cite is None else {"cite": cite}


# Priority order: the first rule that yields a witness certifies the pair.
_RULES = {
    Rule.KAPPA_GAP: _kappa_gap,
    Rule.DIMENSION: _dimension,
    Rule.DIVISOR_CRITERION: _divisor,
    Rule.EQUIDIMENSIONAL_FLIP: _flip,
    Rule.EXTERNAL: _external,
}


def _derive_certificate(
    source: BNLocus,
    target: BNLocus,
    ledger: Optional[Ledger],
    skip: Optional[Rule] = None,
) -> Optional[NonContainmentCertificate]:
    for rule, derive in _RULES.items():
        if rule is skip:
            continue
        try:
            witness = derive(source, target, ledger)
        except DomainError:
            continue
        if witness is not None:
            return NonContainmentCertificate(source, target, rule, witness)
    return None


def pair_status(
    source: BNLocus, target: BNLocus, ledger: Optional[Ledger] = None
) -> PairStatus:
    """Status of the ordered pair: is source known not to lie inside target?

    TRIVIAL_CONTAINMENT if target is a trivial specialization of source
    (containment holds, so non-containment is settled negatively); otherwise
    ESTABLISHED with the first applicable certificate in the fixed rule
    order, or OPEN when no rule applies.  OPEN never asserts containment.
    """
    _require_admissible_pair(source, target, "pair_status")
    if target in trivial_closure(source.g, source.r, source.d):
        return PairStatus(StatusKind.TRIVIAL_CONTAINMENT)
    cert = _derive_certificate(source, target, ledger)
    if cert is not None:
        return PairStatus(StatusKind.ESTABLISHED, cert)
    return PairStatus(StatusKind.OPEN)


def genus_report(g: int, ledger: Optional[Ledger] = None) -> GenusReport:
    """Pair-by-pair non-containment report over all expected maximal loci."""
    records = enumerate_expected_maximal(g)
    verdicts = []
    for a in records:
        for b in records:
            if a.locus == b.locus:
                continue
            verdicts.append(
                PairVerdict(a.locus, b.locus, pair_status(a.locus, b.locus, ledger))
            )
    return GenusReport(g=g, loci=tuple(records), pairs=tuple(verdicts))
