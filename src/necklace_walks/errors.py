"""Exception and warning types shared across the package."""


class NecklaceError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(NecklaceError, ValueError):
    """A numeric or structural argument is outside its allowed range."""


class InvalidPearlError(NecklaceError, ValueError):
    """A pearl description is malformed (bad edge, bad root, ...)."""


class InvalidMatrixError(NecklaceError, ValueError):
    """A matrix does not satisfy the shape/symmetry contract of an operation."""


class NumericalFailureError(NecklaceError, RuntimeError):
    """An iterative numerical routine failed to converge or lost precision."""


class DegenerateSpectrumError(NecklaceError, ValueError):
    """All candidate eigenvalue differences fall below the degeneracy tolerance."""


class AmbiguousDegeneracyWarning(UserWarning):
    """The degeneracy tolerance is close to a genuine spectral gap."""


__all__ = [
    "AmbiguousDegeneracyWarning",
    "DegenerateSpectrumError",
    "InvalidMatrixError",
    "InvalidParameterError",
    "InvalidPearlError",
    "NecklaceError",
    "NumericalFailureError",
]
