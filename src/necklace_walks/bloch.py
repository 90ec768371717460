"""Momentum-sector reduction of necklace Hamiltonians.

The ring structure lets every necklace eigenvector be written as a plane
wave over pearls times a fixed in-pearl vector.  Diagonalizing the full
K*M Hamiltonian therefore reduces to diagonalizing, for each momentum
index k, the M x M sector matrix

    Y_k = P + Q_k,

where P is the pearl adjacency and Q_k carries the inter-pearl links:
corner phases exp(-i p_k) / exp(+i p_k) between the two roots, or a
single 2 cos(p_k) diagonal entry when the roots coincide.  Every stack is
built from one form, C0 + cos t C1 + sin t C2 (:func:`_sector_terms`).
Y_{K-k} is the complex conjugate of Y_k, so only k = 0..K//2 are
diagonalized, in one stacked solve.  For eigenvalues alone, a pearl whose
graph is single-rooted or a d >= 2 comb is solved as a real symmetric
stack with the same spectra, and a bipartite pearl whose link joins its
two colour classes by the singular values of one off-diagonal block.
Sector eigenvectors are lifted back to the necklace by the plane-wave
phases only when a dense basis is read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .eig import EigenDecomposition, eigh, fix_phases
from .errors import InvalidParameterError, NumericalFailureError
from .graphs import NecklaceSpec, PearlSpec


def momentum(k: int, K: int) -> float:
    """Momentum p_k = 2 pi k / K of sector k, for k in 0..K-1."""
    if K < 1:
        raise InvalidParameterError(f"K must be >= 1, got {K}")
    if not (0 <= k < K):
        raise InvalidParameterError(f"sector index k={k} outside 0..{K - 1}")
    return 2.0 * math.pi * k / K


def sector_matrix(pearl: PearlSpec, p_k) -> np.ndarray:
    """Hermitian M x M sector matrix Y_k = P + Q_k at momentum ``p_k``.

    An array of momenta gives the stack of their sector matrices, of shape
    ``p_k.shape + (M, M)``.
    """
    return _stack(*_sector_terms(pearl, False), np.asarray(p_k, dtype=float))


def sector_spectrum(pearl: PearlSpec, k: int, K: int) -> EigenDecomposition:
    """Diagonalize Y_k for sector k of a K-pearl necklace."""
    return eigh(sector_matrix(pearl, momentum(k, K)))


def _lift(y: np.ndarray, k: np.ndarray, K: int) -> np.ndarray:
    """Plane-wave lift of sector vectors to the necklace.

    ``y[s, :, c]`` is vector c of sector ``k[s]``.  Column (s, c) of the
    result, in that order, places ``exp(i p_k j) / sqrt(K) * y[s, :, c]``
    on pearl j for j = 1..K.  The basis is filled in blocks of pearls with
    at most K phases each, so the lift needs little more than the basis itself.
    """
    p = 2.0 * np.pi * np.asarray(k) / K
    y = np.ascontiguousarray(y.transpose(1, 0, 2))                     # [m, s, c]
    lifted = np.empty((K,) + y.shape, dtype=complex)
    pearl, step = np.arange(1, K + 1)[:, None], max(1, K // len(p))
    for j in range(0, K, step):
        np.multiply(np.exp(1j * p * pearl[j:j + step])[:, None, :, None], y, out=lifted[j:j + step])
    lifted /= math.sqrt(K)
    return lifted.reshape(K * len(y), -1)


@dataclass(frozen=True)
class FullSpectrum:
    """All K*M labeled eigenpairs of a necklace Hamiltonian, in Bloch form.

    ``eigenvalues[k, n]`` is branch n of sector k, rows ascending, and
    ``sector_vectors[k][:, n]`` its unit sector eigenvector, phase-fixed as in
    :mod:`necklace_walks.eig`; other shapes are refused.  ``vectors[:, k * M + n]``
    is the eigenvector lifted to the necklace; together the columns form an
    orthonormal basis, built from the sector vectors on first read and then cached.
    """

    necklace: NecklaceSpec
    eigenvalues: np.ndarray     # (K, M)
    sector_vectors: np.ndarray  # (K, M, M) complex

    def __post_init__(self):
        K, M = self.necklace.K, self.necklace.pearl.m
        if np.shape(self.eigenvalues) != (K, M) or np.shape(self.sector_vectors) != (K, M, M):
            raise InvalidParameterError(
                f"expected ({K}, {M}) eigenvalues and ({K}, {M}, {M}) sector vectors, got "
                f"{np.shape(self.eigenvalues)} and {np.shape(self.sector_vectors)}")

    @functools.cached_property
    def vectors(self) -> np.ndarray:
        """The dense (N, K*M) lifted basis."""
        K = self.necklace.K
        return _lift(self.sector_vectors, np.arange(K), K)


@functools.lru_cache(maxsize=2)     # both forms of one pearl; gap_scan takes one pearl at a time
def _sector_terms(pearl: PearlSpec, real: bool):
    """(C0, C1, C2) and n with Y_k similar to C0 + cos t C1 + sin t C2, t = p_k / n.

    F holds the hops that carry the phase exp(i t): the out-root ->
    next-in-root link L, plus any in-pearl hops H a gauge gives it.  Then
    C0 = P - H - H^T, C1 = F + F^T and C2 = i (F - F^T).  The complex form
    (F = L, n = 1) is Y_k itself.

    The real form needs a real vertex involution R with R Y R = conj(Y).
    Then U = exp(-i pi/4) (I + i R) / sqrt 2 has conj(U) = R U, so each
    U^H C U = Re C + (R Im C - Im C R) / 2 is real, and exact, as R
    permutes.  A single-root pearl takes R = I and keeps its terms.  The
    d-comb (d >= 2), ring vertices j = 0..d-1 then the tooth, takes the
    gauge diag(exp(i t j)) (1 on the tooth) with n = d, so each hop j ->
    j+1 round the d-ring, the link included, carries exp(i t); R is the
    ring reflection j -> -j.  The graph alone picks the route: any other
    pearl gives None.  The cached arrays are read-only, as callers share them.
    """
    m, n = pearl.m, 1
    hops, reflect = np.zeros((m, m)), np.arange(m)
    if real and not pearl.single_root:
        n = m - 1
        if pearl.comb_spacing != n:
            return None
        hops[np.arange(n - 1), np.arange(1, n)] = 1.0          # j -> j+1 along the ring
        reflect = np.append(-np.arange(n) % n, n)
    forward = hops.copy()
    forward[pearl.root_out - 1, pearl.root_in - 1] += 1.0
    terms = np.stack([pearl.adjacency() - hops - hops.T,
                      forward + forward.T, 1j * (forward - forward.T)])
    if real:
        terms = terms.real + (terms.imag[:, reflect] - terms.imag[:, :, reflect]) / 2
    terms.setflags(write=False)
    return terms, n


def _stack(terms: np.ndarray, n: int, p: np.ndarray) -> np.ndarray:
    """C0 + cos t C1 + sin t C2 at t = p / n for every momentum p, shape ``p.shape + C0.shape``.

    One product [1, cos t, sin t] @ (C0, C1, C2) builds the whole stack,
    with no temporary of its size.  The terms hold small integers, at most
    two of them nonzero in any real or imaginary part, so each entry is
    two exact products rounded once: the broadcast sum bit for bit.
    """
    t = p / n
    coefficients = np.empty(t.shape + (3,))
    coefficients[..., 0] = 1.0
    np.cos(t, out=coefficients[..., 1])
    np.sin(t, out=coefficients[..., 2])
    return (coefficients @ terms.reshape(3, -1)).reshape(t.shape + terms.shape[1:])


@functools.lru_cache(maxsize=2)
def _colour_classes(pearl: PearlSpec):
    """Vertex indices (c0, c1) of the two colour classes, or None.

    They exist when the pearl's graph with the link root_out -- root_in
    added is bipartite (a single-root pearl's link is a loop, so never).
    Then every edge and the link join c0 to c1, so each sector matrix is
    chiral: zero on the c0 x c0 and c1 x c1 blocks.  The d-comb's ring
    reflection keeps each class, so its real form is chiral too.
    """
    neighbours = [[] for _ in range(pearl.m)]
    for a, b in (*pearl.edges, (pearl.root_in, pearl.root_out)):
        neighbours[a - 1].append(b - 1)
        neighbours[b - 1].append(a - 1)
    colour = np.full(pearl.m, -1)
    for start in range(pearl.m):
        if colour[start] >= 0:
            continue
        colour[start], frontier = 0, [start]
        while frontier:
            v = frontier.pop()
            for u in neighbours[v]:
                if colour[u] == colour[v]:
                    return None
                if colour[u] < 0:
                    colour[u] = 1 - colour[v]
                    frontier.append(u)
    classes = np.flatnonzero(colour == 0), np.flatnonzero(colour == 1)
    for c in classes:
        c.setflags(write=False)
    return classes


def _chiral_values(block: np.ndarray) -> np.ndarray:
    """Ascending spectra of the chiral matrices [[0, B], [B^H, 0]] for a stack of blocks B.

    Each row is -s, |m0 - m1| exact zeros, +s, for the singular values s
    of B: its norm when B has one row or column, else an SVD.
    """
    m0, m1 = block.shape[1:]
    if min(m0, m1) == 1:
        s = np.linalg.norm(block, axis=(1, 2))[:, None]
    else:
        s = np.linalg.svd(block, compute_uv=False)                  # descending
    zeros = np.zeros((len(block), abs(m0 - m1)))
    return np.concatenate([0.0 - s, zeros, s[:, ::-1]], axis=1)    # 0 - s: no -0.0


def _solve_half(pearl: PearlSpec, K: int, vectors: bool):
    """Stacked eigensolve of Y_k for k = 0..K//2: ``eigh``, or eigenvalues alone.

    Eigenvalues alone come from the real form of :func:`_sector_terms`
    when the pearl's graph has one, else from the complex stack.  When the
    pearl has colour classes (:func:`_colour_classes`) they are the signed
    singular values of the stack's c0 x c1 block, with no ``eigvalsh``;
    every other pearl takes ``eigvalsh``.
    """
    p = 2.0 * np.pi * np.arange(K // 2 + 1) / K
    try:
        if vectors:
            return np.linalg.eigh(sector_matrix(pearl, p))
        terms, n = _sector_terms(pearl, True) or _sector_terms(pearl, False)
        classes = _colour_classes(pearl)
        if classes is None:
            return np.linalg.eigvalsh(_stack(terms, n, p))
        c0, c1 = classes
        return _chiral_values(_stack(terms[:, c0][:, :, c1], n, p))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigensolver did not converge: {exc}") from exc


def _mirror(half: np.ndarray, K: int) -> np.ndarray:
    """Rows k = 0..K//2 extended to all K sectors by row K-k = conj(row k)."""
    return np.concatenate([half, half[1:(K + 1) // 2][::-1].conj()])


def full_spectrum(necklace: NecklaceSpec) -> FullSpectrum:
    """Every labeled eigenpair of the necklace, in Bloch form.

    One stacked solve covers sectors k = 0..K//2; sector K-k takes the
    same eigenvalues and the conjugate vectors, so the k <-> K-k
    degeneracy is exact.  The dense lifted basis is built only when
    ``vectors`` is read.
    """
    K = necklace.K
    values, vectors = _solve_half(necklace.pearl, K, vectors=True)
    return FullSpectrum(
        necklace=necklace,
        eigenvalues=_mirror(values, K),
        sector_vectors=_mirror(fix_phases(vectors), K),
    )


def all_sector_eigenvalues(necklace: NecklaceSpec) -> np.ndarray:
    """Sector eigenvalue table (K, M) from one stacked solve, no vectors.

    A pearl whose graph is single-rooted or a d >= 2 comb solves a real
    symmetric stack with the same spectra, every other pearl the complex
    Hermitian stack.  A pearl with colour classes (the even-d combs among
    others) takes each row from the singular values s of the stack's
    m0 x m1 block, as -s, |m0 - m1| exact zeros (its flat bands) and +s,
    with no ``eigvalsh``.  Values can differ from :func:`full_spectrum`'s
    in the last digits; the ties that symmetry forces are exact, and rows
    k and K-k are equal bit for bit.
    """
    return _mirror(_solve_half(necklace.pearl, necklace.K, vectors=False), necklace.K)


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
    "FullSpectrum",
    "all_sector_eigenvalues",
    "comb1_closed_form",
    "comb2_closed_form",
    "full_spectrum",
    "momentum",
    "sector_matrix",
    "sector_spectrum",
]
