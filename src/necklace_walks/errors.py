"""Exception and warning types shared across the package, and the check on real inputs."""

import math


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


def finite_above(value: float, name: str, low: float = 0.0, or_equal: bool = False) -> float:
    """``value`` if finite and above ``low`` (or equal); else InvalidParameterError, NaN too."""
    if not (math.isfinite(value) and (value >= low if or_equal else value > low)):
        relation = f">= {low:g}" if or_equal else "positive" if low == 0.0 else f"> {low:g}"
        raise InvalidParameterError(f"{name} must be {relation} and finite, got {value}")
    return value


__all__ = [
    "AmbiguousDegeneracyWarning",
    "DegenerateSpectrumError",
    "InvalidMatrixError",
    "InvalidParameterError",
    "InvalidPearlError",
    "NecklaceError",
    "NumericalFailureError",
]
