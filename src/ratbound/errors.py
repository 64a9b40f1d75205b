"""Exception types shared across the package.

Each carries its CLI exit code as ``exit_code``: :class:`MathDomainError` 3 and
:class:`NumericalFailure` 4; a plain ``ValueError`` or an argparse failure exits 2.
"""


class MathDomainError(ValueError):
    """The requested quantity is mathematically undefined for this input."""
    exit_code = 3


class IndeterminateMapError(MathDomainError):
    """Operation applied to a map on the indeterminacy locus."""


class ExceptionalPointError(MathDomainError):
    """Backward-orbit sampling started at an exceptional point."""


class NumericalFailure(RuntimeError):
    """A tolerance-dependent step could not be resolved unambiguously."""
    exit_code = 4
