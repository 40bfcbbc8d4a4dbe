"""Gonality invariants and non-containment certificates for Brill-Noether loci.

The package computes, entirely in exact integer arithmetic:

* the Brill-Noether number rho and its k-gonal refinement,
* the gonality invariant kappa of a locus with rho < 0, by closed formula
  and by brute force,
* the expected maximal loci at each genus, with exact kappa bounds,
* genus scans for the rank-comparison inequality (the G(r) table and the
  exceptional genera below it), and
* non-containment certificates between loci, assembled into per-genus
  conjecture reports.
"""

from .bn_core import (
    BNLocus,
    KappaBranch,
    KappaResult,
    clifford_index,
    general_gonality,
    kappa,
    kappa_brute,
    kappa_closed,
    r_prime,
    rho,
    rho_pflueger,
    serre_dual,
)
from .certificates import (
    GenusReport,
    Ledger,
    LedgerEntry,
    LedgerError,
    NonContainmentCertificate,
    PairStatus,
    PairVerdict,
    Rule,
    StatusKind,
    divisor_noncontainment,
    genus_report,
    load_ledger,
    noncontainment_by_dimension,
    noncontainment_by_kappa,
    pair_status,
    trivial_closure,
)
from .errors import DomainError, InternalError
from .exact_arith import Surd, ceil_2sqrt, floor_neg_2sqrt, isqrt, surd_sign
from .maximal_loci import (
    MaximalLocusRecord,
    SRange,
    compute_G,
    d_max,
    enumerate_expected_maximal,
    exceptional_genera,
    f_criterion,
    genus_threshold_holds,
    ineq_holds_all_s,
    is_expected_maximal,
    kappa_at_dmax,
    kappa_bounds,
    r_max_expected,
    rho_at_dmax,
)

__version__ = "0.1.0"
