"""Exception types shared across the package.

Everything raised on purpose derives from :class:`CatlabError`, which itself
derives from ``ValueError`` so callers can stay coarse-grained if they like.
"""


class CatlabError(ValueError):
    """Base class for all errors this package raises deliberately."""


class DimensionMismatch(CatlabError):
    """Operands live on different spaces or have the wrong length/shape."""


class ZeroVector(CatlabError):
    """An all-zero amplitude list cannot be normalised into a state."""


class BadWeights(CatlabError):
    """Mixture weights are negative or do not sum to one."""


class DimensionCeiling(CatlabError):
    """A space would exceed the supported dimension ceiling."""


class NotProductSpace(CatlabError):
    """Partial trace requested on a space without factor metadata."""


class NotOrthogonal(CatlabError):
    """States meant to define measurement outcomes are not orthogonal."""


class DisallowedOperation(CatlabError):
    """A protocol referenced an operation the laboratory does not allow."""


class DepthCeiling(CatlabError):
    """A protocol unrolls to more steps than the supported maximum."""


class UnknownScenario(CatlabError):
    """No built-in scenario with the requested name."""


class PreconditionFailed(CatlabError):
    """The no-go check was invoked with its hypotheses unmet."""


class ParseError(CatlabError):
    """Scenario text could not be parsed; message carries line:column."""


class ValidationError(CatlabError):
    """Scenario parsed but violates an invariant; message names it."""
