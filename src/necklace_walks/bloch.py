"""Momentum-sector reduction of necklace Hamiltonians.

The ring structure lets every necklace eigenvector be written as a plane
wave over pearls times a fixed in-pearl vector.  Diagonalizing the full
K*M Hamiltonian therefore reduces to diagonalizing, for each momentum
index k, the M x M sector matrix

    Y_k = P + Q_k,

where P is the pearl adjacency and Q_k carries the inter-pearl links:
corner phases exp(-i p_k) / exp(+i p_k) between the two roots, or a
single 2 cos(p_k) diagonal entry when the roots coincide.  Sector
eigenvectors are lifted back to the necklace by the plane-wave phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eig import EigenDecomposition, eigh, fix_phases
from .errors import InvalidParameterError
from .graphs import NecklaceSpec, PearlSpec
from .parallel import ordered_map


def momentum(k: int, K: int) -> float:
    """Momentum p_k = 2 pi k / K of sector k, for k in 0..K-1."""
    if K < 1:
        raise InvalidParameterError(f"K must be >= 1, got {K}")
    if not (0 <= k < K):
        raise InvalidParameterError(f"sector index k={k} outside 0..{K - 1}")
    return 2.0 * math.pi * k / K


def sector_matrix(pearl: PearlSpec, p_k: float) -> np.ndarray:
    """Hermitian M x M sector matrix Y_k = P + Q_k at momentum ``p_k``."""
    y = pearl.adjacency().astype(complex)
    ri, ro = pearl.root_in - 1, pearl.root_out - 1
    if pearl.single_root:
        y[ri, ri] += 2.0 * math.cos(p_k)
    else:
        y[ri, ro] += np.exp(-1j * p_k)
        y[ro, ri] += np.exp(+1j * p_k)
    return y


@dataclass(frozen=True)
class SectorSpectrum:
    """Eigenpairs of one momentum sector.

    ``eigenvalues`` ascending; column n of ``vectors`` is the unit sector
    eigenvector for branch n, phase-fixed as in :mod:`necklace_walks.eig`.
    """

    k: int
    pearl_count: int
    momentum: float
    eigenvalues: np.ndarray
    vectors: np.ndarray


def sector_spectrum(pearl: PearlSpec, k: int, K: int) -> SectorSpectrum:
    """Diagonalize Y_k for sector k of a K-pearl necklace."""
    p_k = momentum(k, K)
    decomp = eigh(sector_matrix(pearl, p_k))
    return SectorSpectrum(
        k=k,
        pearl_count=K,
        momentum=p_k,
        eigenvalues=decomp.eigenvalues,
        vectors=decomp.eigenvectors,
    )


def lift_eigenvector(y: np.ndarray, k: int, K: int) -> np.ndarray:
    """Lift a sector eigenvector to the full necklace.

    The lifted vector places ``exp(i p_k j) / sqrt(K) * y`` on pearl j for
    j = 1..K, giving a unit vector of length K * len(y).
    """
    y = np.asarray(y, dtype=complex)
    p_k = momentum(k, K)
    phases = np.exp(1j * p_k * np.arange(1, K + 1))
    return (phases[:, None] * y[None, :]).ravel() / math.sqrt(K)


@dataclass(frozen=True)
class FullSpectrum:
    """All K*M labeled eigenpairs of a necklace Hamiltonian.

    Entry a = k * M + n holds branch n of sector k.  ``vectors[:, a]`` is
    the lifted eigenvector; together the columns form an orthonormal basis.
    ``sector_vectors[k][:, n]`` is the sector vector it is lifted from, or
    None for a spectrum built from lifted vectors alone.
    """

    necklace: NecklaceSpec
    eigenvalues: np.ndarray     # (K*M,), ordered by (k, n)
    k_index: np.ndarray         # (K*M,) momentum index of each entry
    n_index: np.ndarray         # (K*M,) branch index of each entry
    vectors: np.ndarray         # (N, K*M) complex, lifted eigenvectors
    sector_vectors: np.ndarray | None = None   # (K, M, M) complex, or None

    @property
    def size(self) -> int:
        return len(self.eigenvalues)

    def sector_table(self) -> np.ndarray:
        """Eigenvalues reshaped to (K, M): row k holds sector k ascending."""
        return self.eigenvalues.reshape(self.necklace.K, self.necklace.pearl.m)

    def momenta(self) -> np.ndarray:
        """Momentum p_k of every sector, shape (K,)."""
        K = self.necklace.K
        return 2.0 * math.pi * np.arange(K) / K

    def sorted_eigenvalues(self) -> np.ndarray:
        return np.sort(self.eigenvalues)


def full_spectrum(necklace: NecklaceSpec, threads: int | None = None) -> FullSpectrum:
    """Compute and lift every sector of the necklace.

    Sectors are independent and may run on a thread pool; the output is
    ordered by (k, n) regardless of scheduling.
    """
    K, M = necklace.K, necklace.pearl.m

    def one_sector(k: int):
        sector = sector_spectrum(necklace.pearl, k, K)
        phases = np.exp(1j * sector.momentum * np.arange(1, K + 1))
        # (K, M, M): pearl block j of branch n is phases[j] * vectors[:, n]
        lifted = (phases[:, None, None] * sector.vectors[None, :, :])
        lifted = lifted.reshape(K * M, M) / math.sqrt(K)
        return sector.eigenvalues, lifted, sector.vectors

    results = ordered_map(one_sector, range(K), threads=threads)
    eigenvalues = np.concatenate([vals for vals, _, _ in results])
    vectors = np.concatenate([cols for _, cols, _ in results], axis=1)
    k_index = np.repeat(np.arange(K), M)
    n_index = np.tile(np.arange(M), K)
    return FullSpectrum(
        necklace=necklace,
        eigenvalues=eigenvalues,
        k_index=k_index,
        n_index=n_index,
        vectors=vectors,
        sector_vectors=np.stack([y for _, _, y in results]),
    )


def all_sector_eigenvalues(necklace: NecklaceSpec, threads: int | None = None) -> np.ndarray:
    """Sector eigenvalue table (K, M) without lifting any eigenvectors."""
    K = necklace.K
    pearl = necklace.pearl

    def one_sector(k: int) -> np.ndarray:
        return np.linalg.eigvalsh(sector_matrix(pearl, momentum(k, K)))

    return np.array(ordered_map(one_sector, range(K), threads=threads))


def comb1_closed_form(k: int, K: int) -> list[tuple[float, np.ndarray]]:
    """Analytic eigenpairs of the d=1 comb sector matrix [[2 cos p_k, 1], [1, 0]].

    Returns the two (eigenvalue, sector vector) pairs in ascending order.
    The eigenvalues are cos p_k +/- sqrt(1 + cos^2 p_k); each vector is
    proportional to (lambda, 1) with the first component on the base
    vertex, normalized and phase-fixed like :func:`sector_spectrum` output.
    """
    c = math.cos(momentum(k, K))
    root = math.sqrt(1.0 + c * c)
    pairs = []
    for lam in (c - root, c + root):
        vec = np.array([lam, 1.0], dtype=complex) / math.sqrt(1.0 + lam * lam)
        pairs.append((lam, fix_phases(vec[:, None])[:, 0]))
    return pairs


def comb2_closed_form(k: int, K: int) -> list[tuple[float, np.ndarray]]:
    """Analytic eigenpairs of the d=2 comb sector matrix, ascending.

    Eigenvalues are {-s, 0, +s} with s = sqrt(3 + 2 cos p_k).  In this
    package's pearl labeling (vertex 1 toothed ring vertex, vertex 2 plain
    ring vertex, vertex 3 tooth) the unnormalized eigenvectors are
    (+/-s, 1 + e^{i p_k}, 1) and (0, -1, 1 + e^{-i p_k}).
    """
    p_k = momentum(k, K)
    s = math.sqrt(3.0 + 2.0 * math.cos(p_k))
    ring = 1.0 + np.exp(1j * p_k)
    norm_pm = math.sqrt(2.0 * (3.0 + 2.0 * math.cos(p_k)))
    v_minus = np.array([-s, ring, 1.0], dtype=complex) / norm_pm
    v_plus = np.array([+s, ring, 1.0], dtype=complex) / norm_pm
    v_zero = np.array([0.0, -1.0, np.conj(ring)], dtype=complex) / s
    return [
        (-s, fix_phases(v_minus[:, None])[:, 0]),
        (0.0, fix_phases(v_zero[:, None])[:, 0]),
        (+s, fix_phases(v_plus[:, None])[:, 0]),
    ]


__all__ = [
    "EigenDecomposition",
    "FullSpectrum",
    "SectorSpectrum",
    "all_sector_eigenvalues",
    "comb1_closed_form",
    "comb2_closed_form",
    "full_spectrum",
    "lift_eigenvector",
    "momentum",
    "sector_matrix",
    "sector_spectrum",
]
