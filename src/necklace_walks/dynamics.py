"""Time evolution, time-averaged distributions and mixing of the walk.

Everything here works on a :class:`~necklace_walks.bloch.FullSpectrum` in
Bloch form.  With c_kn = <psi_kn|phi_0>, the amplitude on vertex (j, m) is

    psi_(j,m)(t) = K^-1/2 sum_k exp(i p_k j) sum_n y_kn[m] exp(-i lambda_kn t) c_kn,

one inverse FFT over k; p_x = |psi_x|^2 averaged over [0, T] has the exact closed form

    pbar_x(T) = sum_{a,b} <x|psi_a><psi_a|phi_0><psi_b|x><phi_0|psi_b>
                * G(lambda_a - lambda_b, T),

with kernel G(0, T) = 1 and G(D, T) = (1 - exp(-i D T)) / (i D T), and the
T -> infinity limit keeps only pairs inside the same degenerate eigenspace.
No quadrature is involved; the quadrature route lives in
:mod:`necklace_walks.oracle` as an independent cross-check.  The pair sum
runs in sector form; the dense pair sum over a lifted basis is kept only
as a reference to check it against.

Total variation distance follows the un-halved convention
``sum_x |p_x - q_x|`` with range [0, 2].
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bloch import FullSpectrum
from .errors import (
    AmbiguousDegeneracyWarning,
    InvalidParameterError,
    NumericalFailureError,
    finite_above,
)
from .graphs import NecklaceSpec

NEGATIVE_CLAMP = 1e-12
DISTRIBUTION_SUM_TOL = 1e-9
STATE_NORM_TOL = 1e-12
# Sector-pair averaging works through a T grid in chunks: the pair tables of
# one chunk of q, with their build temporaries, take at most about
# PAIR_CHUNK_BYTES, and the phases of one chunk of (q, T) PHASE_CHUNK_BYTES.
PAIR_CHUNK_BYTES = 1 << 21
PHASE_CHUNK_BYTES = 1 << 19


def _q_table_bytes(K: int, M: int) -> int:
    """Most bytes one q's M^2 (K//2 + 1) pair tables and temporaries take: 52 M + 100 a pair."""
    return (52 * M + 100) * M * M * (K // 2 + 1)


def vertex_state(necklace: NecklaceSpec, j: int, m: int) -> np.ndarray:
    """Unit state concentrated on vertex (j, m), 1-based."""
    phi = np.zeros(necklace.n_vertices, dtype=complex)
    phi[necklace.flat_index(j, m)] = 1.0
    return phi


def default_degeneracy_tolerance(eigenvalues: np.ndarray) -> float:
    """Default tolerance 4096 eps * max|lambda|, about 9.1e-13 * max|lambda|.

    Solver precision: the ties that symmetry forces are bit-exact in both
    solves, and a backward-stable eigh moves a value by O(M eps max|lambda|)
    (Weyl), far below the genuine 1/K^2 gaps (the d=1 comb's is 1.3e-9 at
    K=65536).  It reads max|lambda| only, so a table and its ravel agree.
    """
    scale = float(np.abs(eigenvalues).max()) if np.size(eigenvalues) else 0.0
    return 4096 * float(np.finfo(float).eps) * (scale if scale > 0.0 else 1.0)


def resolve_tau_deg(eigenvalues: np.ndarray, tau_deg: float | None) -> float:
    """``tau_deg``, or the default for ``eigenvalues`` when it is None; checked either way."""
    tau = default_degeneracy_tolerance(eigenvalues) if tau_deg is None else tau_deg
    return finite_above(tau, "tau_deg")


@dataclass(frozen=True)
class DegeneracyPartition:
    """Grouping of eigenpair indices into (numerically) equal eigenvalues.

    Group g is ``members[bounds[g]:bounds[g + 1]]``.  ``members`` lists
    every index once, groups in ascending eigenvalue order and each
    group's members in ascending index order; ``bounds`` runs from 0 to
    ``len(members)`` with one entry more than there are groups.
    """

    members: np.ndarray
    bounds: np.ndarray
    tau_deg: float
    ambiguous: bool = field(default=False)

    @property
    def groups(self) -> list[np.ndarray]:
        b = self.bounds.tolist()
        return [self.members[lo:hi] for lo, hi in zip(b, b[1:])]

    @property
    def group_id(self) -> np.ndarray:
        gid = np.empty(len(self.members), dtype=int)
        gid[self.members] = np.repeat(np.arange(len(self.bounds) - 1), np.diff(self.bounds))
        return gid


def degeneracy_partition(eigenvalues: np.ndarray, tau_deg: float | None) -> DegeneracyPartition:
    """Partition eigenvalue indices by a sorted sweep with threshold ``tau_deg``.

    A (K, M) table is read flattened: its members are k * M + n.  Adjacent
    sorted values closer than ``tau_deg`` share a group; None takes
    :func:`default_degeneracy_tolerance`.  If some cross-group gap falls
    within a factor 10 of ``tau_deg`` the grouping is ambiguous: an
    :class:`AmbiguousDegeneracyWarning` is emitted and the partition is
    flagged.
    """
    eigenvalues = np.ravel(eigenvalues)
    tau_deg = resolve_tau_deg(eigenvalues, tau_deg)
    order = np.argsort(eigenvalues, kind="stable")
    steps = np.diff(eigenvalues[order])
    cuts = np.flatnonzero(steps > tau_deg) + 1
    ambiguous = bool(np.any(steps[cuts - 1] <= 10.0 * tau_deg))
    bounds = np.array([0, *cuts.tolist(), len(order)] if len(order) else [0])
    sizes = np.diff(bounds)
    # Sorting by (group, index) puts each group's members in index order.
    members = order[np.lexsort((order, np.repeat(np.arange(len(sizes)), sizes)))]
    if ambiguous:
        warnings.warn(
            "a spectral gap lies within 10x of tau_deg; degenerate groups "
            "may be merged or split unreliably",
            AmbiguousDegeneracyWarning,
        )
    return DegeneracyPartition(members=members, bounds=bounds, tau_deg=tau_deg,
                               ambiguous=ambiguous)


def _check_state(phi0: np.ndarray, n: int) -> np.ndarray:
    phi = np.asarray(phi0, dtype=complex)
    if phi.shape != (n,):
        raise InvalidParameterError(f"initial state has shape {phi.shape}, expected ({n},)")
    norm = np.linalg.norm(phi)
    if not abs(norm - 1.0) <= STATE_NORM_TOL:
        raise InvalidParameterError(f"initial state norm {norm} is not 1 within {STATE_NORM_TOL}")
    return phi


def _finalize_distribution(p: np.ndarray) -> np.ndarray:
    """Clamp roundoff negatives and verify normalization of each distribution.

    ``p`` holds one distribution along its last axis, or a stack of them.
    """
    low = p.min()
    if not low >= -NEGATIVE_CLAMP:                   # also a NaN entry
        raise NumericalFailureError(
            f"distribution entry {low} is below -{NEGATIVE_CLAMP} or not a number")
    p = np.where(p < 0.0, 0.0, p)
    totals = np.ravel(p.sum(axis=-1))
    total = totals[np.argmax(np.abs(totals - 1.0))]
    if not abs(total - 1.0) <= DISTRIBUTION_SUM_TOL:
        raise NumericalFailureError(f"distribution sums to {total}, not 1 within {DISTRIBUTION_SUM_TOL}")
    return p


def _sector_overlaps(spec: FullSpectrum, phi: np.ndarray) -> np.ndarray:
    """c_kn = <psi_kn|phi_0> as [k, n], from phi_k[m] = sum_j exp(-i p_k j) phi_0[j, m]."""
    K, M = spec.necklace.K, spec.necklace.pearl.m
    phi_k = np.exp(-2j * np.pi * np.arange(K) / K)[:, None] * np.fft.fft(
        phi.reshape(K, M), axis=0)
    # y^H phi_k is conj(y^T conj(phi_k)) bit for bit, with no conjugate copy of y.
    return np.einsum("kmn,km->kn", spec.sector_vectors, phi_k.conj()).conj() / math.sqrt(K)


def probability_at_time(spec: FullSpectrum, phi0: np.ndarray, t: float) -> np.ndarray:
    """Vertex distribution p_x(t) of the walk started in ``phi0``.

    One inverse FFT over k of a_k[m] = sum_n y_kn[m] exp(-i lambda_kn t) c_kn; no dense basis.
    """
    finite_above(t, "time", or_equal=True)
    c = _sector_overlaps(spec, _check_state(phi0, spec.necklace.n_vertices))
    c *= np.exp(-1j * spec.eigenvalues * t)
    a = np.einsum("kmn,kn->km", spec.sector_vectors, c)
    psi = np.roll(np.fft.ifft(a, axis=0), -1, axis=0) * math.sqrt(len(a))   # row 0 is pearl 1
    return _finalize_distribution(np.abs(psi.ravel()) ** 2)


class _PairAverager:
    """Dense reference for the pair sums, over any orthonormal eigenbasis.

    ``vectors[:, a]`` is the eigenvector of flat entry a of ``eigenvalues``.  Holds
    W[x, a] = psi_a[x] * <psi_a|phi_0>, the degeneracy partition, the
    limiting distribution and the gap-sum entering the convergence bound.
    It needs O(N^2) memory and an N^3 product per T; the package's own
    averaging runs in :class:`_SectorAverager`.
    """

    def __init__(self, eigenvalues: np.ndarray, vectors: np.ndarray, phi0: np.ndarray,
                 tau_deg: float | None):
        phi = _check_state(phi0, len(vectors))
        eigenvalues = np.ravel(eigenvalues)
        self.partition = degeneracy_partition(eigenvalues, tau_deg)
        self.overlaps = vectors.conj().T @ phi
        self.weights = vectors * self.overlaps[None, :]   # (N, A)
        gid = self.partition.group_id
        self.same_group = gid[:, None] == gid[None, :]
        self.gaps = eigenvalues[:, None] - eigenvalues[None, :]
        pi = np.zeros(len(vectors))
        for group in self.partition.groups:
            amp = self.weights[:, group].sum(axis=1)
            pi += np.abs(amp) ** 2
        self.limiting = _finalize_distribution(pi)
        cross = ~self.same_group
        inv_gap = np.where(cross, np.abs(self.gaps), 1.0)
        self._bound_sum = float(
            ((np.abs(self.overlaps) ** 2)[:, None] * cross / inv_gap).sum()
        )

    def averaged(self, T: float) -> np.ndarray:
        finite_above(T, "averaging window")
        kernel = np.where(
            self.same_group,
            1.0 + 0.0j,
            -np.expm1(-1j * self.gaps * T) / np.where(self.same_group, 1.0, 1j * self.gaps * T),
        )
        # pbar_x = sum_{a,b} W[x,a] kernel[a,b] conj(W[x,b])
        partial = self.weights.conj() @ kernel.T
        pbar = np.einsum("xa,xa->x", self.weights, partial).real
        return _finalize_distribution(pbar)

    def bound(self, T: float) -> float:
        return 2.0 * self._bound_sum / finite_above(T, "averaging window")


class _SectorAverager:
    """The pair sums of :class:`_PairAverager` in Bloch form, for any start.

    With overlaps c_kn = <psi_kn|phi_0> (an FFT of phi_0 over pearls) and
    A_kn[m] = y_kn[m] c_kn, the average at vertex (j, m) is

        pbar_(j,m)(T) = (1/K) sum_q exp(i p_q j) S_q[m],
        S_q[m] = sum_{k,n,l} A_kn[m] conj(A_{k-q,l}[m]) G(lambda_kn - lambda_{k-q,l}, T),

    one inverse FFT over q.  S_{K-q} = conj(S_q), so only q = 0..K//2 is
    formed.  Pairs inside one degenerate group have G = 1 and give the
    limit.  Any other pair has G = -z / (i D T) with z = exp(-i D T) - 1,
    so a T is one contraction of z against the T-independent A conj(A) / D.
    Each pair and its mirror under k <-> K-k share q, so the contraction
    runs over one pair per couple, as a real product (see
    :meth:`_pair_tables`).  Far pairs take z + 1 = u_a conj(u_b) with
    u = exp(-i lambda T), so a T costs (K//2 + 1) * M exponentials, as
    lambda_{K-k} = lambda_k, and the -1 is one subtraction per (q, T).  That
    factored form loses about eps / |D T| relative accuracy, so pairs with
    |D| below ``delta`` take z = expm1(-i D T) at every T, and every pair
    does when ``delta * T`` is small.

    A whole grid of T is evaluated in one pass: the pair tables are built
    for a chunk of q at a time, within ``PAIR_CHUNK_BYTES``, and each chunk
    is contracted against z for a chunk of T at a time, written into one
    buffer of about ``PHASE_CHUNK_BYTES``.  Memory is
    O(budget + len(grid) * N).
    """

    NEAR_GAP_REL = 1e-3
    SMALL_DT = 2e-4

    def __init__(self, spec: FullSpectrum, phi0: np.ndarray, tau_deg: float | None):
        K, M = spec.necklace.K, spec.necklace.pearl.m
        phi = _check_state(phi0, spec.necklace.n_vertices)
        self.partition = degeneracy_partition(spec.eigenvalues, tau_deg)
        self.K, self.M, self.half = K, M, K // 2 + 1
        self.lam = spec.eigenvalues
        if not np.array_equal(self.lam[1:], self.lam[:0:-1]):
            raise InvalidParameterError("sector K-k must repeat the eigenvalues of sector k")
        self.gid = self.partition.group_id.reshape(K, M)
        self.delta = self.NEAR_GAP_REL * max(float(np.abs(self.lam).max()), 1.0)
        self.overlaps = _sector_overlaps(spec, phi)
        self.amps = (spec.sector_vectors * self.overlaps[:, None]).transpose(0, 2, 1)   # [k, n, m]
        self._same = self._same_group_sum()
        self.limiting = _finalize_distribution(self._on_vertices(self._same))

    def _on_vertices(self, s: np.ndarray) -> np.ndarray:
        """(1/K) sum_q exp(i p_q j) S_q[m] for pearls j = 1..K.

        ``s`` is [q, ..., m]; the result is [..., K * M], flattened per pearl.
        """
        p = np.fft.irfft(s, n=self.K, axis=0)    # row r is pearl j = r mod K
        p = np.moveaxis(np.roll(p, -1, axis=0), 0, -2)
        return p.reshape(p.shape[:-2] + (-1,))

    def _same_group_sum(self) -> np.ndarray:
        """S_q over pairs inside one degenerate group, where G = 1.

        Groups of one size are gathered together, sizes in order of first
        appearance along the sorted spectrum.  Small groups list their
        pairs; a group with more than sqrt(K) members, such as a flat band,
        is the circular autocorrelation over k of its summed amplitudes,
        taken by FFT.  Pair lists are built for a chunk of groups at a time,
        within about ``PAIR_CHUNK_BYTES``, and added in the same order.
        """
        K, M = self.K, self.M
        members, bounds = self.partition.members, self.partition.bounds
        sizes = np.diff(bounds)
        by_size = np.argsort(sizes, kind="stable")      # each size's groups in spectrum order
        buckets = np.split(by_size, np.flatnonzero(np.diff(sizes[by_size])) + 1)
        s = np.zeros((K, M), dtype=complex)
        for bucket in sorted(buckets, key=lambda b: b[0]):
            size = int(sizes[bucket[0]])
            idx = members[bounds[bucket][:, None] + np.arange(size)]     # (groups, size)
            # Indexed as [k, n]: reshaping the transposed amps would copy all of it.
            sector, branch = np.divmod(idx, M)
            if size * size <= K:
                step = max(1, PAIR_CHUNK_BYTES // (16 * size * (size + 2) * M))  # terms, a, conj(a)
                for g0 in range(0, len(idx), step):
                    rows = slice(g0, g0 + step)
                    a = self.amps[sector[rows], branch[rows]]
                    q = (sector[rows, :, None] - sector[rows, None, :]) % K
                    terms = a[:, :, None, :] * a[:, None, :, :].conj()
                    np.add.at(s, q.ravel(), terms.reshape(-1, M))
            else:
                a = self.amps[sector, branch]
                z = np.zeros((len(bucket), K, M), dtype=complex)
                np.add.at(z, (np.arange(len(bucket))[:, None], sector), a)
                s += np.fft.ifft(np.abs(np.fft.fft(z, axis=1)) ** 2, axis=1).sum(axis=0)
        return s[: self.half]

    @functools.cached_property
    def _table_inputs(self) -> tuple:
        """lambda, group ids, A and conj(A) with k last, read by every chunk's tables."""
        amps = self.amps.transpose(2, 1, 0)
        return tuple(np.ascontiguousarray(t) for t in (self.lam.T, self.gid.T, amps, amps.conj()))

    def _pair_tables(self, q0: int, q1: int, step: int = 1) -> dict:
        """T-independent tables over mirror couples, for q in range(q0, q1, step).

        Pair a = (k, n), b = (k - q, l), with w = A_a conj(A_b), is coupled
        with a' = (q - k, l), b' = (-k, n), with w'.  As lambda_{K-k} =
        lambda_k, the mirror has gap -D, the same groups and the conjugate
        phase, so with z = exp(-i D T) - 1 a couple enters S_q through
        -F(z) / (i T), F(z) = (w z - w' conj(z)) / D.  F is real-linear: its
        real and imaginary parts are Re(z conj(W0)) and Re(z conj(W1)) with
        W0 = (conj(w) - w') / D and W1 = i (conj(w) + w') / D, the
        ``weights``.  ``total`` is F(1) summed over far pairs only, since
        near weights reach 1 / tau_deg.  One pair per couple is kept:
        k = c + s, k - q = s - r for s = 0..K//2, c = ceil(q/2),
        r = floor(q/2).  A column that is its own mirror holds both (n, l)
        and (l, n) and is weighted 1/2; one whose mirror is also in the
        window is weighted 0.

        Pairs are laid out [n, l, s]; ``weights`` is [q, m, (W0, W1), pair].
        Near pairs, |D| < ``delta``, are listed by ``near_q``, counted from
        ``q0``, their flat pair index ``near_pair`` and ``near_gaps``.
        """
        K, M = self.K, self.M
        qs = np.arange(q0, q1, step)[:, None]
        s = np.arange(self.half)
        c, r = (qs + 1) // 2, qs // 2
        mirror = (-s - qs % 2) % K                       # window column of the mirror
        col = np.where(mirror == s, 0.5, np.where(mirror < s, 0.0, 1.0))[:, None, None]

        def at(table, k):                                 # table [..., k] as [q, ..., s]
            return np.moveaxis(np.take(table, k, axis=-1), -2, 0)

        a, b = (c + s) % K, (s - r) % K                   # mirror: a' = (r - s), b' = (-c - s)
        lam, gid, amps, amps_conj = self._table_inputs                # amps is [m, n, k]
        gaps = np.subtract(at(lam, a)[:, :, None], at(lam, b)[:, None], order="C")  # [q, n, l, s]
        cross = np.not_equal(at(gid, a)[:, :, None], at(gid, b)[:, None], order="C")
        cross &= col > 0.0
        near = cross & (np.abs(gaps) < self.delta)
        weights = np.empty((len(qs), M, 2) + gaps.shape[1:], dtype=complex)
        w0, w1 = weights[:, :, 0], weights[:, :, 1]                   # [q, m, n, l, s]
        np.multiply(at(amps_conj, a)[:, :, :, None], at(amps, b)[:, :, None], out=w0)
        np.multiply(at(amps, (r - s) % K)[:, :, None], at(amps_conj, (-c - s) % K)[:, :, :, None],
                    out=w1)                                           # conj(w) and w'
        total = w0 + w1
        w0 -= w1
        scale = np.where(cross, col / np.where(cross, gaps, 1.0), 0.0)[:, None]
        np.multiply(w0.real, scale, out=w0.real)                     # real scale, no complex cast
        np.multiply(w0.imag, scale, out=w0.imag)
        np.multiply(total.imag, -scale, out=w1.real)                  # w1 = i scale total
        np.multiply(total.real, scale, out=w1.imag)
        del total
        weights = weights.reshape(len(qs), M, 2, -1)
        gaps, near = gaps.reshape(len(qs), -1), near.reshape(len(qs), -1)
        near_q, near_pair = np.nonzero(near)
        far = np.where(near[:, None, None], 0.0, weights.real)
        return {
            "gaps": gaps,
            "weights": weights,
            "total": far.sum(axis=3) @ np.array([1.0, 1j]),          # F(1) over far pairs
            "near_q": near_q,
            "near_pair": near_pair,
            "near_gaps": gaps[near],
        }

    def _cross_sums(self, times: np.ndarray) -> np.ndarray:
        """S_q[m](T) over cross-group pairs for ascending ``times``, as [q, T, m].

        q runs in chunks of one parity, where the offsets c and r of
        :meth:`_pair_tables` step by one, so u_a and conj(u_b) are strided
        windows of ``ahead``, u at sectors 0, 1, .., and ``behind``, conj(u)
        at sectors -r_max, .., K//2.  Both are [t, m, sector] with the
        sector axis contiguous (``np.take``, not a fancy index, which would
        put that axis outermost), so each window row the phase products
        read is one contiguous run.
        """
        K, M, h = self.K, self.M, self.half
        r_max = (h - 1) // 2
        u = np.exp(-1j * times[:, None, None] * self.lam[:h].T)      # [t, m, k], k <= K//2
        sectors = np.arange(h // 2 + h)
        ahead = np.take(u, np.minimum(sectors, K - sectors), axis=2)  # lambda_{K-k} = lambda_k
        del u
        behind = np.take(ahead, np.abs(np.arange(-r_max, h)), axis=2)
        np.conjugate(behind, out=behind)
        q_step = max(1, PAIR_CHUNK_BYTES // _q_table_bytes(K, M))
        s = np.empty((h, len(times), M), dtype=complex)
        for parity in (0, 1):
            for q0 in range(parity, h, 2 * q_step):
                q1 = min(q0 + 2 * q_step, h)
                self._chunk_sums(q0, q1, times, ahead, behind, s[q0:q1:2])
        return s

    def _chunk_sums(self, q0: int, q1: int, times: np.ndarray, ahead: np.ndarray,
                    behind: np.ndarray, out: np.ndarray) -> None:
        """Write S_q[m](T) for q in range(q0, q1, 2) into ``out``.

        Each chunk of T writes z for every pair into one phase buffer, then
        makes one real batched product of it, viewed as (Re, Im) pairs,
        against the weights: [q, t, 2 pair] @ [q, 2 pair, 2 m] gives F(z).
        Below the ``SMALL_DT`` switch every z is expm1(-i D T).  Above it far
        pairs hold z + 1 = u_a conj(u_b), whose F(1) is taken off afterwards,
        and near pairs hold expm1(-i D T), written over their places.  The
        near z are formed for a span of several chunks of T at once, and a
        chunk of q without near pairs skips the write.  The chunk's tables
        go when this returns, before the next are built.
        """
        M, S = self.M, self.half
        tables = self._pair_tables(q0, q1, 2)
        n_q, n_t, pairs = out.shape[0], len(times), tables["gaps"].shape[1]
        weights = tables["weights"].view(float).reshape(n_q, 2 * M, 2 * pairs).transpose(0, 2, 1)
        gaps = tables["gaps"][:, None, :]
        near_q, near_pair, near_gaps = tables["near_q"], tables["near_pair"], tables["near_gaps"]
        n_exact = int(np.searchsorted(self.delta * times, self.SMALL_DT))
        t_step = max(1, PHASE_CHUNK_BYTES // (16 * n_q * pairs))
        c0, start_b = (q0 + 1) // 2, (self.half - 1) // 2 - q0 // 2
        window = np.lib.stride_tricks.sliding_window_view
        u_a = window(ahead, S, axis=2)[:, :, c0:c0 + n_q]
        u_b = window(behind, S, axis=2)[:, :, start_b - n_q + 1:start_b + 1][:, :, ::-1]
        u_a = u_a.transpose(2, 0, 1, 3)[:, :, :, None]    # [q, t, n, 1, s]
        u_b = u_b.transpose(2, 0, 1, 3)[:, :, None]       # [q, t, 1, l, s]
        phases = np.empty((n_q, t_step, M, M, S), dtype=complex)
        # Near z are formed for a span of whole chunks of T, into one block of
        # at most PHASE_CHUNK_BYTES / 16 bytes: a larger span saves no time and
        # would raise the peak of the pass.
        span = t_step * max(1, PHASE_CHUNK_BYTES // (256 * t_step * max(len(near_q), 1)))
        near_z = np.empty((len(near_q), span), dtype=complex)
        starts = [*range(0, n_exact, t_step), *range(n_exact, n_t, t_step)]
        for t0, t1 in zip(starts, starts[1:] + [n_t]):
            z = phases[:, : t1 - t0].reshape(n_q, t1 - t0, pairs)
            if t0 < n_exact:
                np.expm1(-1j * (gaps * times[None, t0:t1, None]), out=z)
            else:
                np.multiply(u_a[:, t0:t1], u_b[:, t0:t1], out=phases[:, : t1 - t0])
                if len(near_q):
                    offset = (t0 - n_exact) % span
                    if offset == 0:
                        block = times[t0:t0 + span]
                        np.expm1(-1j * (near_gaps[:, None] * block), out=near_z[:, : len(block)])
                    z[near_q, :, near_pair] = near_z[:, offset:offset + t1 - t0]
            np.matmul(z.view(float), weights, out=out[:, t0:t1].view(float))
        out[:, n_exact:] -= tables["total"][:, None]
        out /= -1j * times[None, :, None]

    @functools.cached_property
    def _gap_sum(self) -> float:
        """sum |c_a|^2 / |lambda_a - lambda_b| over ordered cross-group pairs (a, b).

        Taken over rows a in chunks of about ``PAIR_CHUNK_BYTES``.
        """
        lam, gid = self.lam.ravel(), self.gid.ravel()
        pop = np.abs(self.overlaps.ravel()) ** 2
        step = max(1, PAIR_CHUNK_BYTES // (24 * len(lam)))
        total = 0.0
        for r0 in range(0, len(lam), step):
            rows = slice(r0, r0 + step)
            gaps = np.abs(lam[rows, None] - lam[None, :])
            gaps[gid[rows, None] == gid[None, :]] = np.inf    # same group: 1/inf = 0
            total += float(pop[rows] @ np.reciprocal(gaps, out=gaps).sum(axis=1))
        return total

    def averaged_grid(self, grid: np.ndarray) -> np.ndarray:
        """pbar(T) for every T of ``grid``, one distribution per row."""
        grid = np.asarray(grid, dtype=float)
        bad = ~(np.isfinite(grid) & (grid > 0.0))
        if bad.any():
            raise InvalidParameterError(
                f"averaging window must be positive and finite, got {grid[bad][0]}")
        order = np.argsort(grid)
        cross = self._cross_sums(grid[order])
        cross += self._same[:, None, :]
        p = self._on_vertices(cross)
        return _finalize_distribution(p[np.argsort(order)])

    def averaged(self, T: float) -> np.ndarray:
        return self.averaged_grid(np.array([T]))[0]

    def bound(self, T: float) -> float:
        return 2.0 * self._gap_sum / finite_above(T, "averaging window")


def time_averaged(
    spec: FullSpectrum, phi0: np.ndarray, T: float, tau_deg: float | None = None
) -> np.ndarray:
    """Distribution averaged uniformly over measurement times in [0, T].

    Uses the closed-form kernel G(D, T) = -z / (i D T), z = exp(-i D T) - 1,
    with z from ``expm1`` wherever the factored phase would lose accuracy;
    the D = 0 branch is taken for pairs in the same degenerate group of the
    partition at ``tau_deg``.
    """
    return _SectorAverager(spec, phi0, tau_deg).averaged(T)


def limiting_distribution(
    spec: FullSpectrum, phi0: np.ndarray, tau_deg: float | None = None
) -> np.ndarray:
    """T -> infinity limit of the time-averaged distribution.

    Computed as ``sum_g |<x| P_g |phi_0>|^2`` over projectors P_g onto the
    degenerate eigenspaces, which makes the result independent of the
    basis chosen inside each degenerate group.
    """
    return _SectorAverager(spec, phi0, tau_deg).limiting


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Un-halved total variation distance sum_x |p_x - q_x|, in [0, 2]."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise InvalidParameterError(f"length mismatch: {p.shape} vs {q.shape}")
    return float(np.abs(p - q).sum())


def tv_convergence_bound(
    spec: FullSpectrum, phi0: np.ndarray, T: float, tau_deg: float | None = None
) -> float:
    """Upper bound on ||pbar(T) - pi|| from overlaps and inverse gaps.

    Sums 2 |<psi_a|phi_0>|^2 / (T |lambda_a - lambda_b|) over ordered pairs
    of eigenpairs lying in different degenerate groups.  Dominates the
    exact total variation distance at every T.
    """
    return _SectorAverager(spec, phi0, tau_deg).bound(T)


@dataclass(frozen=True)
class MixingResult:
    """Outcome of the geometric-grid mixing-time search.

    ``t_mix`` is the smallest grid time from which the total variation
    distance stays at or below ``epsilon`` on the rest of the grid, or
    None if that never happens up to ``grid[-1]``.  ``bound_at_unit`` is
    :func:`tv_convergence_bound` at T = 1 from the same averager, always
    set; the bound at T is ``bound_at_unit / T``.
    """

    epsilon: float
    t_mix: float | None
    grid: np.ndarray
    tv_values: np.ndarray
    bound_at_unit: float

    @property
    def tv_at_hi(self) -> float:
        return float(self.tv_values[-1])

    @property
    def found(self) -> bool:
        return self.t_mix is not None


def geometric_grid(t_lo: float, t_hi: float, ratio: float = 1.05) -> np.ndarray:
    """Times t_lo * ratio^i up to and including the first point >= t_hi."""
    if not (0.0 < t_lo <= t_hi and math.isfinite(t_hi / t_lo)):    # NaN fails too
        raise InvalidParameterError(f"bad grid limits ({t_lo}, {t_hi})")
    finite_above(ratio, "grid ratio", 1.0)
    count = max(0, math.ceil(math.log(t_hi / t_lo) / math.log(ratio)))
    return t_lo * ratio ** np.arange(count + 1)


def mixing_time(
    spec: FullSpectrum,
    phi0: np.ndarray,
    epsilon: float,
    t_hi: float,
    t_lo: float = 1.0,
    ratio: float = 1.05,
    tau_deg: float | None = None,
) -> MixingResult:
    """Empirical mixing time on a geometric time grid.

    Total variation is not monotone in T, so the defining condition
    "within epsilon for every later time" is enforced across the grid:
    the result is the earliest grid point after which no grid point
    exceeds ``epsilon``.
    """
    if not (0.0 < epsilon <= 2.0):
        raise InvalidParameterError(f"epsilon must lie in (0, 2], got {epsilon}")
    averager = _SectorAverager(spec, phi0, tau_deg)
    grid = geometric_grid(t_lo, t_hi, ratio)
    tvs = np.abs(averager.averaged_grid(grid) - averager.limiting).sum(axis=1)
    ok_from_here = np.minimum.accumulate((tvs <= epsilon)[::-1])[::-1]
    t_mix = float(grid[np.argmax(ok_from_here)]) if ok_from_here.any() else None
    return MixingResult(epsilon=epsilon, t_mix=t_mix, grid=grid, tv_values=tvs,
                        bound_at_unit=averager.bound(1.0))


__all__ = [
    "DegeneracyPartition",
    "MixingResult",
    "default_degeneracy_tolerance",
    "degeneracy_partition",
    "geometric_grid",
    "limiting_distribution",
    "mixing_time",
    "probability_at_time",
    "time_averaged",
    "tv_convergence_bound",
    "tv_distance",
    "vertex_state",
]
