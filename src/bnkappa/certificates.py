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
                       when rho(target) = -1, source rank >= 2, source
                       degree <= g - 1 and g + 1 <= floor(d/r) + d for the
                       source.  PAPER.md holds only the paper's abstract, so
                       these hypotheses are not checked against the
                       published statement here.
* EQUIDIMENSIONAL_FLIP both loci have rho = -1 (hence are irreducible of
                       equal dimension), so a containment either way would
                       force equality; once the reverse direction is
                       established, this direction follows.
* EXTERNAL             the pair appears in a user-supplied ledger of
                       published non-containments, each entry with its
                       citation.

Every locus here is a BNLocus, validated once, when it is built: the
trivial closure, the rules and the ledger take loci, not index tuples.
Each rule is written once, as a derive function in the ordered table
_RULES.  pair_status is the one way to ask for a certificate: it walks the
table in exactly that order, so reports are deterministic.  Absence of a
certificate never asserts containment: the pair is Open.

The domain is kappa's: a locus takes part in a pair exactly when rho < 0
and d >= 2r, which is when it is a non-empty proper subvariety and kappa
has a value.  It is checked once per pair, before any rule runs, so every
rule is a total function that returns a witness or None and never raises.

Every certificate carries a witness.  NonContainmentCertificate.verify()
re-runs the same rule's derive function on the pair and accepts only an
exact match with the stored witness, so a tampered, missing or extra
witness field fails.  pair_status, verify() and the Ledger share one
admissibility check (distinct loci, equal genus, the domain on both sides),
so a certificate of a locus against itself never verifies.  A locus and its
Serre dual are one subvariety, so that pair is not distinct either.
"""

from __future__ import annotations

import json
from enum import Enum
from pathlib import Path
from typing import Mapping, NamedTuple, Optional, Union

from . import bn_core
from .bn_core import BNLocus
from .errors import DomainError
from .exact_arith import floor_neg_2sqrt
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


class NonContainmentCertificate(NamedTuple):
    """Witnessed claim that source is not contained in target."""

    source: BNLocus
    target: BNLocus
    rule: Rule
    witness: Mapping[str, object]

    def verify(self, ledger: Optional["Ledger"] = None) -> bool:
        """Re-derive this rule for the pair and require the identical witness."""
        try:
            _require_admissible_pair(self.source, self.target, "verify")
        except DomainError:
            return False
        return _RULES[self.rule](self.source, self.target, ledger) == dict(self.witness)


class PairStatus(NamedTuple):
    kind: StatusKind
    certificate: Optional[NonContainmentCertificate] = None


class PairVerdict(NamedTuple):
    source: BNLocus
    target: BNLocus
    status: PairStatus


class GenusReport(NamedTuple):
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


class Ledger:
    """Published non-containment facts: one citation per (source, target) pair.

    Built from the ledger's JSON entries.  Every entry's shape is checked
    before any entry's pair, so a file with both kinds of fault reports a
    misshapen entry.  A pair that pair_status refuses is rejected, since no
    query could reach it, and so is a second entry for one pair.
    """

    def __init__(self, entries: list):
        parsed = [_parse_entry(obj, f"entry {i}") for i, obj in enumerate(entries)]
        self._cites: dict[tuple[BNLocus, BNLocus], str] = {}
        for g, source, target, cite in parsed:
            key = (g, source, target)
            try:
                pair = BNLocus(g, *source), BNLocus(g, *target)
                _require_admissible_pair(*pair, "ledger")
            except DomainError as exc:
                raise LedgerError(f"ledger entry for {key}: {exc}") from exc
            if pair in self._cites:
                raise LedgerError(f"duplicate ledger entry for {key}")
            self._cites[pair] = cite

    def lookup(self, source: BNLocus, target: BNLocus) -> Optional[str]:
        return self._cites.get((source, target))


_ENTRY_FIELDS = {"g", "source", "target", "cite"}


def _parse_entry(obj: object, where: str) -> tuple[int, tuple, tuple, str]:
    """(g, (r, d), (s, e), cite) from one entry whose shape is valid."""
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
    return g, tuple(source), tuple(target), cite


def load_ledger(path: Union[str, Path]) -> Ledger:
    """Load a ledger from one JSON array of entries."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        # the OS reason alone: str(exc) would name the path a second time
        raise LedgerError(f"cannot read ledger {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise LedgerError(f"cannot read ledger {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise LedgerError(f"invalid JSON in ledger {path}: {exc}") from exc
    if not isinstance(data, list):
        raise LedgerError(f"ledger {path} must be one JSON array, got {type(data).__name__}")
    return Ledger(data)


class TrivialClosure:
    """The loci a start locus reaches by trivial steps, answered in closed form.

    Nothing is stored beyond the start's indices: degrees(s) gives the
    reachable degrees at rank s in closed form, membership of a BNLocus asks
    it once, and len sums it over the ranks.  The loci themselves are never
    listed.
    """

    __slots__ = ("g", "r", "d")

    def __init__(self, start: BNLocus):
        self.g, self.r, self.d = start.g, start.r, start.d

    def degrees(self, s: int) -> range:
        """The degrees reachable at rank s: an interval ending at 2g - 2, or empty."""
        g, r, d = self.g, self.r, self.d
        if r < 1 or d >= 2 * g - 2 or not 1 <= s <= r:
            return range(0)
        if s == r:
            return range(d + 1, 2 * g - 1)
        x = d - (r - s)
        if x < 0:  # a comparison, not max(): pair_status asks this once per pair
            x = 0
        return range(x, 2 * g - 1) if bn_core.rho(g, s, x) < 0 else range(0)

    def __contains__(self, target: object) -> bool:
        return (
            isinstance(target, BNLocus)
            and target.g == self.g
            and target.d in self.degrees(target.r)
        )

    def __len__(self) -> int:
        return sum(len(self.degrees(s)) for s in range(1, self.r + 1))


def trivial_closure(start: BNLocus) -> TrivialClosure:
    """All loci reachable from start = (g, r, d) by one or more trivial steps.

    A trivial step holds for every curve: adding a base point takes (r, d)
    to (r, d+1), and removing a non-base point takes it to (r-1, d-1) while
    that target is a proper locus (rho < 0).  Only starts with r >= 1 and
    d < 2g - 2 take a step, and degrees stay <= 2g - 2.

    Nothing is built: membership is O(1), len counts the loci reached, and
    TrivialClosure.degrees(s) is the closed form.  For each rank s in 1..r,
    the lowest reachable degree is x = max(d - (r - s), 0), and every degree
    from x to 2g - 2 is reached, provided s = r or rho(g, s, x) < 0; at
    s = r the start itself is left out.  A rank drop keeps h = g - d + r
    fixed, so rho only rises as the rank falls and the last drop is the
    hardest; a degree step lowers h, so dropping rank first is never worse.
    The step-by-step search is the oracle in the tests.
    """
    return TrivialClosure(start)


def _require_admissible_pair(source: BNLocus, target: BNLocus, op: str) -> None:
    if source.g != target.g:
        raise DomainError(f"{op} requires equal genus, got {source.g} and {target.g}")
    rs, rt = source.rho, target.rho
    # at one genus, equal rho and Clifford index d - 2r mean the same locus
    # or its Serre dual, which is one subvariety either way
    if rs == rt and source.d - 2 * source.r == target.d - 2 * target.r:
        raise DomainError(f"{op} requires distinct loci")
    if rs >= 0 or rt >= 0 or source.d < 2 * source.r or target.d < 2 * target.r:
        raise DomainError(f"{op} requires both loci to have rho < 0 and d >= 2r")


# ---------------------------------------------------------------------------
# the rules: each maps an admissible (source, target, ledger) to a witness, or
# to None when the rule does not apply


Witness = dict[str, object]


def _kappa_gap(source: BNLocus, target: BNLocus, ledger: Optional[Ledger]) -> Optional[Witness]:
    ks, kt = source.kappa.value, target.kappa.value
    return {"kappa_source": ks, "kappa_target": kt} if ks > kt else None


def _dimension(source: BNLocus, target: BNLocus, ledger: Optional[Ledger]) -> Optional[Witness]:
    rs, rt = source.rho, target.rho
    return {"rho_source": rs, "rho_target": rt} if -rs < -rt <= 3 else None


def _divisor(source: BNLocus, target: BNLocus, ledger: Optional[Ledger]) -> Optional[Witness]:
    if target.rho != -1 or source.d > source.g - 1:
        return None
    if source.r < 2:
        return None  # rank-1 sources are the kappa rule's job
    if source.g + 1 > source.d // source.r + source.d:
        return None
    gap = -floor_neg_2sqrt(-source.rho) - 2  # ceil(2*sqrt(-rho)) - 2
    if target.gamma > source.gamma + gap:
        return {
            "gamma_source": source.gamma,
            "gamma_target": target.gamma,
            "clifford_gap": gap,
        }
    return None


def _flip(source: BNLocus, target: BNLocus, ledger: Optional[Ledger]) -> Optional[Witness]:
    if source.rho != -1 or target.rho != -1:
        return None
    for rule, derive in _RULES.items():
        if rule is not Rule.EQUIDIMENSIONAL_FLIP and derive(target, source, ledger) is not None:
            return {"reverse_rule": rule.value, "rho": -1}
    return None


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


# The two statuses without a certificate carry nothing pair-specific, so
# every pair shares one immutable instance of each.
_TRIVIAL_CONTAINMENT = PairStatus(StatusKind.TRIVIAL_CONTAINMENT)
_OPEN = PairStatus(StatusKind.OPEN)


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
    if target in trivial_closure(source):
        return _TRIVIAL_CONTAINMENT
    for rule, derive in _RULES.items():
        witness = derive(source, target, ledger)
        if witness is not None:
            cert = NonContainmentCertificate(source, target, rule, witness)
            return PairStatus(StatusKind.ESTABLISHED, cert)
    return _OPEN


def genus_report(g: int, ledger: Optional[Ledger] = None) -> GenusReport:
    """Pair-by-pair non-containment report over all expected maximal loci.

    The loci are the records' own BNLocus objects, so each locus' rho and
    kappa attributes are computed once and read by every pair it takes part in.
    """
    records = enumerate_expected_maximal(g)
    verdicts = []
    for a in records:
        for b in records:
            if a is b:  # one locus per rank, so distinct records are distinct loci
                continue
            verdicts.append(
                PairVerdict(a.locus, b.locus, pair_status(a.locus, b.locus, ledger))
            )
    return GenusReport(g=g, loci=tuple(records), pairs=tuple(verdicts))
