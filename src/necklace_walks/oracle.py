"""Brute-force reference routes used only for validation.

Nothing here touches the sector reduction or the exact averaging kernel:
the spectrum comes from diagonalizing the full Hamiltonian directly, time
evolution goes through a scaling-and-squaring matrix exponential, and time
averaging is plain trapezoidal quadrature.  Agreement with the primary
implementations is therefore evidence, not tautology.  These routines are
allowed to be slow.
"""

from __future__ import annotations

import numpy as np

from .eig import EigenDecomposition, eigh
from .errors import InvalidMatrixError, InvalidParameterError, NumericalFailureError, finite_above

BRUTE_MAX_DIM = 5000
EVOLVE_MAX_DIM = 2000
UNITARITY_TOL = 1e-10


def brute_spectrum(hamiltonian: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of the full Hamiltonian, no sector structure used."""
    h = np.asarray(hamiltonian)
    if h.shape[0] > BRUTE_MAX_DIM:
        raise InvalidParameterError(
            f"matrix dimension {h.shape[0]} exceeds brute-force cap {BRUTE_MAX_DIM}"
        )
    return eigh(h)


def _propagator(hamiltonian: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) via scaling and squaring, verified unitary."""
    # Imported here: scipy.linalg costs about 0.3 s, and only oracle runs use it.
    from scipy.linalg import expm

    h = np.asarray(hamiltonian, dtype=complex)
    if h.shape[0] > EVOLVE_MAX_DIM:
        raise InvalidParameterError(
            f"matrix dimension {h.shape[0]} exceeds evolution cap {EVOLVE_MAX_DIM}"
        )
    if not np.isfinite(h).all():                  # before -1j * h * t warns on an inf
        raise InvalidMatrixError("matrix has a non-finite entry")
    u = expm(-1j * h * t)
    drift = np.abs(u.conj().T @ u - np.eye(h.shape[0])).max()
    if not drift <= UNITARITY_TOL:
        raise NumericalFailureError(
            f"propagator lost unitarity: max |U^H U - I| = {drift:.3e}"
        )
    return u


def evolve_matrix_exponential(
    hamiltonian: np.ndarray, phi0: np.ndarray, t: float
) -> np.ndarray:
    """|exp(-i H t) phi_0|^2, independently of any eigendecomposition."""
    finite_above(t, "time", or_equal=True)
    phi = np.asarray(phi0, dtype=complex)
    return np.abs(_propagator(hamiltonian, t) @ phi) ** 2


def quadrature_time_average(
    hamiltonian: np.ndarray, phi0: np.ndarray, T: float, steps: int
) -> np.ndarray:
    """Trapezoidal average of the instantaneous distribution over [0, T].

    The state is advanced by repeated application of the single-step
    propagator exp(-i H T / steps); discretization error is O((T/steps)^2)
    and roundoff accumulation stays near steps * machine epsilon.
    """
    finite_above(T, "averaging window")
    if steps < 100:
        raise InvalidParameterError(f"need at least 100 quadrature steps, got {steps}")
    phi = np.asarray(phi0, dtype=complex)
    step = _propagator(hamiltonian, T / steps)
    total = 0.5 * np.abs(phi) ** 2
    state = phi
    for _ in range(steps - 1):
        state = step @ state
        total += np.abs(state) ** 2
    state = step @ state
    total += 0.5 * np.abs(state) ** 2
    return total / steps


__all__ = [
    "brute_spectrum",
    "evolve_matrix_exponential",
    "quadrature_time_average",
]
