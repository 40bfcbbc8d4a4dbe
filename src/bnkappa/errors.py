"""Exception types shared across the package.

Two failure modes are distinguished everywhere: a caller handed us inputs
outside a function's domain (DomainError), or an internal cross-check that
should be impossible to fail has failed (InternalError).  The CLI maps these
to distinct exit codes so scripts can tell them apart.
"""

__all__ = ["DomainError", "InternalError"]


class DomainError(ValueError):
    """Input lies outside the mathematical domain of the operation."""


class InternalError(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""
