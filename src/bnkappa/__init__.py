"""Gonality invariants and non-containment certificates for Brill-Noether loci.

The package computes, entirely in exact integer arithmetic:

* the Brill-Noether number rho and its k-gonal refinement,
* the gonality invariant kappa of a locus with rho < 0, by closed formula
  and by brute force,
* the expected maximal loci at each genus, and the bracket their kappa
  lies in (its ends are floats, for display only),
* genus scans for the rank-comparison inequality (the G(r) table and the
  exceptional genera below it), and
* non-containment certificates between loci, assembled into per-genus
  conjecture reports.
"""

from . import bn_core, certificates, errors, exact_arith, maximal_loci
from .bn_core import *
from .certificates import *
from .errors import *
from .exact_arith import *
from .maximal_loci import *

# each engine module's __all__ is its one list of public names
__all__ = [
    *errors.__all__,
    *exact_arith.__all__,
    *bn_core.__all__,
    *maximal_loci.__all__,
    *certificates.__all__,
]

__version__ = "0.1.0"
