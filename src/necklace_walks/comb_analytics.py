"""Closed-form limiting distributions for the cycle and the d=1 comb.

Both families have fully analytic limiting distributions when the walk
starts at a single vertex.  On a K-cycle the distribution is flat up to a
1/K^2 correction, with double weight on the start vertex (and on its
antipode when K is even).  On the d=1 comb, writing p_k = 2 pi k / K and

    L_k = 1 / (2 (1 + cos^2 p_k)),

the distribution starting from a base vertex is governed by three
quantities: the sector average of L_k, a cosine-weighted average of L_k at
the pearl offset, and a parity-dependent 1/K correction from the sectors
whose eigenvalues are non-degenerate (k = 0, and k = K/2 for even K).
All formulas here are exact for every K >= 3; the high-K summary replaces
the sector average by its integral value sqrt(2)/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

VertexKind = str  # "base" or "tooth"


def _check_cycle_args(K: int, x: int, z: int) -> None:
    if K < 3:
        raise InvalidParameterError(f"K must be >= 3, got {K}")
    for name, v in (("x", x), ("z", z)):
        if not (1 <= v <= K):
            raise InvalidParameterError(f"{name}={v} outside 1..{K}")


def _peak_indicator(K: int, x: int, z: int) -> int:
    """1 on the start pearl, and on the opposite pearl when K is even."""
    delta = (x - z) % K
    if delta == 0:
        return 1
    if K % 2 == 0 and delta == K // 2:
        return 1
    return 0


def cycle_limiting(K: int, x: int, z: int) -> float:
    """Limiting probability at vertex x for a walk started at vertex z on a K-cycle.

    Even K: (1 + peak) / K - 2 / K^2; odd K: (1 + peak) / K - 1 / K^2,
    where peak marks x = z (and the antipode for even K).
    """
    _check_cycle_args(K, x, z)
    peak = _peak_indicator(K, x, z)
    correction = 2.0 / K**2 if K % 2 == 0 else 1.0 / K**2
    return (1.0 + peak) / K - correction


@dataclass(frozen=True)
class Comb1Coefficients:
    """Ingredients of the d=1 comb limiting distribution at pearl offset x - z.

    weight_mean
        Sector average of L_k = 1 / (2 (1 + cos^2 p_k)); tends to sqrt(2)/4.
    weight_at_offset
        Cosine-weighted sector average of L_k at frequency 2 (x - z); equals
        weight_mean on the start pearl (and its antipode for even K) and
        falls off rapidly with pearl distance.
    parity_correction
        3 / (4K) for odd K, 3 / (2K) for even K; the contribution of the
        non-degenerate sectors.
    peak
        1 on the start pearl and, for even K, on the opposite pearl.
    """

    weight_mean: float
    weight_at_offset: float
    parity_correction: float
    peak: int


def _sector_weights(K: int) -> np.ndarray:
    """L_k = 1 / (2 (1 + cos^2 p_k)) for k = 0..K-1."""
    p = 2.0 * math.pi * np.arange(K) / K
    return 1.0 / (2.0 * (1.0 + np.cos(p) ** 2))


def _parity_corrections(K: int) -> tuple[float, float]:
    """1/K corrections of the same-kind and cross-kind probabilities."""
    if K % 2 == 0:
        return 3.0 / (2.0 * K), 1.0 / (2.0 * K)
    return 3.0 / (4.0 * K), 1.0 / (4.0 * K)


def comb1_coefficients(K: int, x: int, z: int) -> Comb1Coefficients:
    """Evaluate the d=1 comb distribution coefficients at pearls (x, z)."""
    _check_cycle_args(K, x, z)
    weights = _sector_weights(K)
    mean = float(weights.mean())
    # The phase index 2 (x - z) k is reduced mod K in integers: at large K the
    # unreduced angle, up to 4 pi K, would carry its roundoff into the sum.
    phase = 2 * (x - z) * np.arange(K) % K
    phased = np.mean(weights * np.exp(1j * (2.0 * math.pi / K) * phase))
    return Comb1Coefficients(
        weight_mean=mean,
        weight_at_offset=float(phased.real),
        parity_correction=_parity_corrections(K)[0],
        peak=_peak_indicator(K, x, z),
    )


def _check_kind(name: str, kind: VertexKind) -> None:
    if kind not in ("base", "tooth"):
        raise InvalidParameterError(f"{name} must be 'base' or 'tooth', got {kind!r}")


def comb1_limiting(K: int, start: VertexKind, target: VertexKind, x: int, z: int) -> float:
    """Exact limiting probability on the d=1 comb.

    Parameters
    ----------
    K : int
        Pearl count.
    start, target : {"base", "tooth"}
        Vertex kind of the start vertex (pearl z) and target vertex (pearl x).
    x, z : int
        Pearl indices, 1-based.

    Notes
    -----
    With A = weight_mean, B = weight_at_offset, C = parity_correction and
    f = peak, the base-to-base (equal to tooth-to-tooth) probability is
    (1/K)(1 - A - B - C + f) and the base-to-tooth (equal to tooth-to-base)
    probability is (1/K)(A + B - 1/(4K)) for odd K, (1/K)(A + B - 1/(2K))
    for even K.  The distribution sums to exactly 1 over all 2K vertices.
    """
    _check_kind("start", start)
    _check_kind("target", target)
    coeff = comb1_coefficients(K, x, z)
    a, b = coeff.weight_mean, coeff.weight_at_offset
    if start == target:
        return (1.0 - a - b - coeff.parity_correction + coeff.peak) / K
    return (a + b - _parity_corrections(K)[1]) / K


def comb1_limiting_distribution(K: int, start: VertexKind, z: int) -> np.ndarray:
    """The whole d=1 comb limiting distribution, all 2K vertices at once.

    Entry ``2 (x - 1)`` is the base vertex of pearl x and entry
    ``2 (x - 1) + 1`` its tooth, each equal to :func:`comb1_limiting` for
    a start vertex of kind ``start`` on pearl z.  The offset weight at every
    pearl offset r = x - z is the inverse DFT of L_k at frequency 2r, so
    the vector costs one FFT rather than one O(K) sector sum per vertex.
    """
    _check_cycle_args(K, z, z)
    _check_kind("start", start)
    weights = _sector_weights(K)
    a = float(weights.mean())
    offset = (np.arange(1, K + 1) - z) % K
    b = np.fft.ifft(weights).real[2 * offset % K]
    peak = (offset == 0) | ((K % 2 == 0) & (offset == K // 2))
    same_correction, cross_correction = _parity_corrections(K)
    same = (1.0 - a - b - same_correction + peak) / K
    cross = (a + b - cross_correction) / K
    base, tooth = (same, cross) if start == "base" else (cross, same)
    return np.stack([base, tooth], axis=1).ravel()


@dataclass(frozen=True)
class Comb1HighK:
    """Flat-distribution summary of the d=1 comb limiting distribution.

    Values apply when the walk starts at a base vertex.  ``peak_base`` and
    ``peak_tooth`` hold on the start pearl and, when ``has_antipode`` is
    set (even K), also on the pearl exactly opposite the start.
    """

    generic_base: float
    generic_tooth: float
    peak_base: float
    peak_tooth: float
    has_antipode: bool


def comb1_high_k(K: int) -> Comb1HighK:
    """High-K flat approximation of the d=1 comb limiting distribution.

    Replaces the sector average by sqrt(2)/4 and drops the offset weight
    away from the peaks, leaving (4 - sqrt(2)) / (4K) on generic bases and
    sqrt(2) / (4K) on generic teeth, with doubled leading terms on the
    peak pearls.  Requires K >= 50, where these replacements are accurate;
    odd K simply lacks the antipodal peak.
    """
    if K < 50:
        raise InvalidParameterError(f"high-K summary needs K >= 50, got {K}")
    a = math.sqrt(2.0) / 4.0
    even = K % 2 == 0
    c, cross = _parity_corrections(K)
    return Comb1HighK(
        generic_base=(1.0 - a - c) / K,
        generic_tooth=(a - cross) / K,
        peak_base=(2.0 - 2.0 * a - c) / K,
        peak_tooth=(2.0 * a - cross) / K,
        has_antipode=even,
    )


__all__ = [
    "Comb1Coefficients",
    "Comb1HighK",
    "comb1_coefficients",
    "comb1_high_k",
    "comb1_limiting",
    "comb1_limiting_distribution",
    "cycle_limiting",
]
