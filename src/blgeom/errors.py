"""Exception taxonomy shared by all blgeom modules.

The CLI maps these onto its exit-code contract: input/construction
problems exit with 2, numerical failures with 3.
"""


class BlgeomError(Exception):
    """Base class for all library errors."""


class InputError(BlgeomError):
    """Malformed argument: wrong dimension, non-finite data, bad spec."""


class ConstructionError(InputError):
    """Invalid construction data (e.g. origin not interior to a polytope)."""


class DefinitenessError(BlgeomError):
    """A norm evaluated to a non-positive value on a nonzero vector."""


class ValidationFailure(BlgeomError):
    """A norm failed its axiom checks; carries the offending report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NumericalFailure(BlgeomError):
    """Ill-conditioned or non-convergent numerical step."""


class QuadratureFailure(NumericalFailure):
    """Quadrature produced an unusable (non-PD) moment matrix."""


class TransportAccuracyError(NumericalFailure):
    """Parallel transport could not reach the requested accuracy."""


class UnsupportedDimensionError(InputError):
    """Operation not implemented for this dimension; never a silent fallback."""
