"""Exception hierarchy shared by all condfield modules."""


class CondfieldError(Exception):
    """Base class for all errors raised by this package."""


class NonpositiveLength(CondfieldError):
    """Domain is not finite a < b whose grid step (b - a)/M is a positive finite
    double with strictly increasing points."""


class TooFewPoints(CondfieldError):
    """Grid needs at least two points."""


class LengthMismatch(CondfieldError):
    """Vector length does not match the grid it is used with."""


class EmptyVector(CondfieldError):
    """Operation requires a nonempty vector."""


class InvalidKernelParams(CondfieldError):
    """Covariance kernel parameters violate their constraints."""


class NotPositive(CondfieldError):
    """Assembled operator has a genuinely negative eigenvalue."""


class OutOfDomain(CondfieldError):
    """Evaluation point lies outside the grid's interval."""


class StencilOutOfRange(CondfieldError):
    """Finite-difference stencil does not fit inside the grid."""


class UnsupportedOrder(CondfieldError):
    """Requested finite-difference accuracy order is not available."""


class GridMismatch(CondfieldError):
    """Objects built on different grids, or a factor and an operator of different kernels."""


class DegenerateFunctional(CondfieldError):
    """Functional has (numerically) zero or non-finite variance under the covariance."""


class NegativeU(CondfieldError):
    """Conditioning threshold must be finite and nonnegative."""


class ThresholdOverflow(CondfieldError):
    """Threshold so large that |t_u|^2 or ||phi_u|| overflows a double."""


class ZeroVector(CondfieldError):
    """Normalization of a zero vector was requested."""


class EmptyUList(CondfieldError):
    """Sweep requires at least one threshold value."""


class ConfigError(CondfieldError):
    """Command-line or config-file value could not be interpreted."""
