"""Exception taxonomy shared by all blgeom modules.

The CLI maps these onto its exit-code contract: input/construction
problems exit with 2, every other error with 3.  No error stands for a
failed axiom: each norm family's constructor proves the axioms exactly, and
the sampled ``norms.validate`` is an oracle of ``verify`` and the tests.
"""


class BlgeomError(Exception):
    """Base class for all library errors."""


class InputError(BlgeomError):
    """Malformed argument: wrong dimension, non-finite data, bad spec."""


class ConstructionError(InputError):
    """Invalid construction data (e.g. origin not interior to a polytope)."""


class DefinitenessError(BlgeomError):
    """A norm evaluated to a non-positive value on a nonzero vector."""


class NumericalFailure(BlgeomError):
    """Ill-conditioned or non-convergent numerical step."""


class QuadratureFailure(NumericalFailure):
    """Quadrature produced an unusable (non-PD) moment matrix."""


class TransportAccuracyError(NumericalFailure):
    """Parallel transport could not reach the requested accuracy."""


class UnsupportedDimensionError(InputError):
    """Operation not implemented for this dimension; never a silent fallback."""
