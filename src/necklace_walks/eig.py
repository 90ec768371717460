"""Dense Hermitian eigendecomposition with deterministic output conventions.

:func:`eigh` solves one matrix, for a single sector and for the brute-force
oracle: eigenvalues ascending, each eigenvector scaled so its
largest-magnitude component is real and positive.  Real symmetric input
follows the same path with zero imaginary parts.  The stacked sector solve
in :mod:`necklace_walks.bloch` calls ``np.linalg`` directly and applies the
same phase convention through :func:`fix_phases`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrixError, NumericalFailureError

HERMITICITY_TOL = 1e-12

# Relative band inside which component magnitudes count as tied when the
# phase-anchor component is picked; ties resolve to the lowest index.
_PHASE_TIE_BAND = 1e-6


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (ascending) and unit eigenvectors (columns) of a Hermitian matrix."""

    eigenvalues: np.ndarray
    vectors: np.ndarray


def fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Return a copy of ``vectors`` with each column's phase anchored.

    Columns run along the last axis and components along the one before
    it; any leading axes stack such matrices, and all columns are fixed in
    one pass.  The anchor is the lowest-index component whose magnitude is
    within a small relative band of the column maximum; the column is
    rotated so that component becomes real and positive, and an all-zero
    column is left as it is.  An exact floating-point tie never fires
    reliably, hence the band.
    """
    out = np.array(vectors, dtype=complex, copy=True)
    if out.size == 0:
        return out
    mags = np.abs(out)
    top = mags.max(axis=-2, keepdims=True)
    anchor = np.argmax(mags >= top * (1.0 - _PHASE_TIE_BAND), axis=-2, keepdims=True)
    pivot = np.take_along_axis(out, anchor, axis=-2)
    zero = top == 0.0
    scale = np.where(zero, 1.0, np.take_along_axis(mags, anchor, axis=-2))
    out *= np.where(zero, 1.0, np.conj(pivot) / scale)
    return out


def eigh(matrix) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian (or real symmetric) matrix.

    Parameters
    ----------
    matrix : array_like, square
        Hermitian within ``HERMITICITY_TOL`` entrywise on ``|A - A^H|``;
        it is symmetrized before factorization.

    Returns
    -------
    EigenDecomposition
        Eigenvalues ascending; eigenvector columns unit-norm with the
        deterministic phase convention of :func:`fix_phases`.

    Raises
    ------
    InvalidMatrixError
        If the input is not square or not Hermitian within tolerance.
    NumericalFailureError
        If the underlying solver does not converge.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMatrixError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidMatrixError("matrix has a non-finite entry")
    deviation = np.abs(a - a.conj().T).max() if a.size else 0.0
    if not deviation <= HERMITICITY_TOL:
        raise InvalidMatrixError(
            f"matrix is not Hermitian: max |A - A^H| = {deviation:.3e} "
            f"exceeds {HERMITICITY_TOL:.1e}"
        )
    a = (a + a.conj().T) / 2.0
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigensolver did not converge: {exc}") from exc
    return EigenDecomposition(
        eigenvalues=np.asarray(values, dtype=float),
        vectors=fix_phases(vectors),
    )


__all__ = ["EigenDecomposition", "eigh"]
