"""Momentum-sector reduction of necklace Hamiltonians.

The ring structure lets every necklace eigenvector be written as a plane
wave over pearls times a fixed in-pearl vector.  Diagonalizing the full
K*M Hamiltonian therefore reduces to diagonalizing, for each momentum
index k, the M x M sector matrix

    Y_k = P + Q_k,

where P is the pearl adjacency and Q_k carries the inter-pearl links:
corner phases exp(-i p_k) / exp(+i p_k) between the two roots, or a
single 2 cos(p_k) diagonal entry when the roots coincide.  Y_{K-k} is
the complex conjugate of Y_k, so only k = 0..K//2 are diagonalized, in one
stacked solve.  When only eigenvalues are needed, single-root pearls and
the d >= 2 combs are solved as real symmetric matrices with the same
spectra (see :func:`_comb_terms`).  Sector eigenvectors are lifted back to
the necklace by the plane-wave phases only when a dense basis is read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .eig import EigenDecomposition, eigh, fix_phases
from .errors import InvalidParameterError, NumericalFailureError
from .graphs import NecklaceSpec, PearlSpec, make_comb_pearl


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
    p = np.asarray(p_k, dtype=float)
    y = np.broadcast_to(pearl.adjacency(), p.shape + (pearl.m, pearl.m)).astype(complex)
    ri, ro = pearl.root_in - 1, pearl.root_out - 1
    if pearl.single_root:
        y[..., ri, ri] += 2.0 * np.cos(p)
    else:
        y[..., ri, ro] += np.exp(-1j * p)
        y[..., ro, ri] += np.exp(+1j * p)
    return y


def sector_spectrum(pearl: PearlSpec, k: int, K: int) -> EigenDecomposition:
    """Diagonalize Y_k for sector k of a K-pearl necklace."""
    return eigh(sector_matrix(pearl, momentum(k, K)))


def _lift(y: np.ndarray, k: np.ndarray, K: int) -> np.ndarray:
    """Plane-wave lift of sector vectors to the necklace.

    ``y[s, :, c]`` is vector c of sector ``k[s]``.  Column (s, c) of the
    result, in that order, places ``exp(i p_k j) / sqrt(K) * y[s, :, c]``
    on pearl j for j = 1..K.  The basis is filled one pearl at a time, so
    the lift needs little more than the basis itself.
    """
    p = 2.0 * np.pi * np.asarray(k) / K
    y = np.ascontiguousarray(y.transpose(1, 0, 2))                     # [m, s, c]
    lifted = np.empty((K,) + y.shape, dtype=complex)
    for j in range(K):
        np.multiply(np.exp(1j * p * (j + 1))[:, None], y, out=lifted[j])
    lifted /= math.sqrt(K)
    return lifted.reshape(K * len(y), -1)


@dataclass(frozen=True)
class FullSpectrum:
    """All K*M labeled eigenpairs of a necklace Hamiltonian, in Bloch form.

    Entry a = k * M + n holds branch n of sector k.  ``sector_vectors[k][:, n]``
    is its unit sector eigenvector, phase-fixed as in :mod:`necklace_walks.eig`.
    ``vectors[:, a]`` is the eigenvector lifted to the necklace; together the
    columns form an orthonormal basis, built from the sector vectors on
    first read and then cached.
    """

    necklace: NecklaceSpec
    eigenvalues: np.ndarray     # (K*M,), ordered by (k, n)
    sector_vectors: np.ndarray  # (K, M, M) complex

    @property
    def k_index(self) -> np.ndarray:
        """Momentum index k of each entry, shape (K*M,)."""
        return np.repeat(np.arange(self.necklace.K), self.necklace.pearl.m)

    @property
    def n_index(self) -> np.ndarray:
        """Branch index n of each entry, shape (K*M,)."""
        return np.tile(np.arange(self.necklace.pearl.m), self.necklace.K)

    @functools.cached_property
    def vectors(self) -> np.ndarray:
        """The dense (N, K*M) lifted basis."""
        K = self.necklace.K
        return _lift(self.sector_vectors, np.arange(K), K)

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


@functools.lru_cache(maxsize=1)     # gap_scan solves every chain of one pearl before the next
def _comb_terms(pearl: PearlSpec) -> np.ndarray:
    """Real (C0, C1, C2) of a d-comb pearl (d >= 2), stacked to shape (3, M, M).

    Number the ring vertices 1..d as j = 0..d-1.  With t = p_k / d, the
    gauge G = diag(exp(i t j)) (1 on the tooth) turns Y_k into G^H Y_k G,
    where every hop j -> j+1 round the d-ring, the link d -> 1 included,
    carries the phase exp(i t).  The ring reflection j -> -j, which fixes
    vertex 1 and the tooth, composed with complex conjugation commutes with
    that matrix, so it is real in the basis the reflection fixes: e_1, the
    tooth, e_{1+d/2} for even d, (e_j + e_{d-j}) / sqrt 2 and
    i (e_j - e_{d-j}) / sqrt 2.  There it reads C0 + cos t C1 + sin t C2.
    The cached array is read-only, since every caller shares it.
    """
    m, d = pearl.m, pearl.m - 1
    adjacency = pearl.adjacency()
    ring = np.append(np.arange(d), 0)                  # the tooth sits with vertex 1
    step = ring[None, :] - ring[:, None]
    forward = np.where(step == 1, adjacency, 0.0)      # in-pearl hops j -> j+1
    forward[pearl.root_out - 1, pearl.root_in - 1] += 1.0
    hermitian = np.stack([np.where(step == 0, adjacency, 0.0),
                          forward + forward.T, 1j * (forward - forward.T)])
    basis = np.zeros((m, m), dtype=complex)
    basis[0, 0] = basis[d, 1] = 1.0
    column = 2
    for j in range(1, d // 2 + 1):
        if 2 * j == d:
            basis[j, column] = 1.0
            column += 1
        else:
            basis[[j, d - j], column] = math.sqrt(0.5)
            basis[[j, d - j], column + 1] = [1j * math.sqrt(0.5), -1j * math.sqrt(0.5)]
            column += 2
    terms = (basis.conj().T @ hermitian @ basis).real.copy()
    terms.setflags(write=False)
    return terms


def _real_terms(pearl: PearlSpec):
    """Real (C0, C1, C2) and n with Y_k similar to C0 + cos t C1 + sin t C2, t = p_k / n.

    Single-root pearls are real already (n = 1).  A pearl whose
    ``comb_spacing`` names a d >= 2 comb takes :func:`_comb_terms` only when
    its edges and roots are that comb's; every other pearl gives None.
    """
    if pearl.single_root:
        terms = np.zeros((3, pearl.m, pearl.m))
        terms[0] = pearl.adjacency()
        terms[1, pearl.root_in - 1, pearl.root_in - 1] = 2.0
        return terms, 1
    d = pearl.comb_spacing
    if isinstance(d, int) and 2 <= d == pearl.m - 1 and pearl == make_comb_pearl(d):
        return _comb_terms(pearl), d
    return None


def _solve_half(pearl: PearlSpec, K: int, vectors: bool):
    """Stacked eigensolve of Y_k for k = 0..K//2 (``eigh`` or ``eigvalsh``).

    Eigenvalues alone come from a real symmetric stack with the same
    spectrum when :func:`_real_terms` finds one, else from the complex stack.
    """
    p = 2.0 * np.pi * np.arange(K // 2 + 1) / K
    real = None if vectors else _real_terms(pearl)
    if real is None:
        y = sector_matrix(pearl, p)
    else:
        (c0, c1, c2), n = real
        t = (p / n)[:, None, None]
        y = np.cos(t) * c1
        y += c0
        y += np.sin(t) * c2
    try:
        return np.linalg.eigh(y) if vectors else np.linalg.eigvalsh(y)
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
        eigenvalues=_mirror(values, K).ravel(),
        sector_vectors=_mirror(fix_phases(vectors), K),
    )


def all_sector_eigenvalues(necklace: NecklaceSpec) -> np.ndarray:
    """Sector eigenvalue table (K, M) from one stacked ``eigvalsh``, no vectors.

    Single-root pearls, and pearls that are the d >= 2 comb their
    ``comb_spacing`` names, solve a real symmetric stack with the same
    spectra.  Their values differ from :func:`full_spectrum`'s in the last
    digits, and ties that symmetry forces, exact there, hold to about
    eps * max|lambda| here.  Every other pearl solves the complex Hermitian
    stack.  Rows k and K-k are equal bit for bit either way.
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
