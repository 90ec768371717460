"""Gap structure of necklace spectra and the resulting mixing bounds.

The convergence rate of the time-averaged walk is controlled by inverse
differences of non-equal eigenvalues.  When a branch pair (n, m) obeys

    |lambda_{j,n} - lambda_{k,m}| >= c * |cos p_j - cos p_k|

for some c > 0, the pair's contribution to the distance bound is at most
(1 / (8 c)) * (K / T) * ln^2(K / 2) under the uniform-overlap assumption
|<psi|phi_0>|^2 ~ 1/K, i.e. the walk mixes on a cycle-like time scale.
This module measures the constants c, the cross-branch minimum gaps, and
the scaling of the smallest nonzero gap with K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import FullSpectrum, all_sector_eigenvalues
from .dynamics import default_degeneracy_tolerance, resolve_tau_deg
from .errors import DegenerateSpectrumError, InvalidParameterError, finite_above
from .graphs import NecklaceSpec, make_comb_pearl, make_cycle_pearl
from .parallel import ordered_map, resolve_thread_count


def min_nonzero_gap(eigenvalues: np.ndarray, tau_deg: float) -> float:
    """Smallest adjacent difference exceeding ``tau_deg`` in the sorted spectrum."""
    finite_above(tau_deg, "tau_deg")
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    if len(eigenvalues) < 2:
        raise InvalidParameterError("need at least two eigenvalues")
    diffs = np.diff(np.sort(eigenvalues))
    diffs = diffs[diffs > tau_deg]
    if len(diffs) == 0:
        raise DegenerateSpectrumError(
            f"all eigenvalue differences lie below tau_deg={tau_deg}"
        )
    return float(diffs.min())


@dataclass(frozen=True)
class CosBoundReport:
    """Measured constant relating eigenvalue gaps to cos-momentum gaps."""

    branch_pair: tuple[int, int]
    c_measured: float
    pair_count: int
    tau_deg: float


def _branch_table(spec: FullSpectrum, n: int, m: int) -> np.ndarray:
    """The (K, M) sector table, once branch labels n and m are checked against M."""
    table = spec.sector_table()
    branches = table.shape[1]
    if not (0 <= n < branches and 0 <= m < branches):
        raise InvalidParameterError(f"branch labels ({n}, {m}) outside 0..{branches - 1}")
    return table


def _branch_ranges_disjoint(table: np.ndarray) -> bool:
    """True when the per-branch eigenvalue bands do not overlap."""
    lo = table.min(axis=0)
    hi = table.max(axis=0)
    return all(hi[n] <= lo[n + 1] for n in range(len(lo) - 1))


def cos_bound_constant(
    spec: FullSpectrum, n: int, m: int, tau_deg: float | None = None
) -> CosBoundReport:
    """Minimum of |lambda_{j,n} - lambda_{k,m}| / |cos p_j - cos p_k|.

    Branch labels follow ascending order inside each sector, which is only
    meaningful when branches never cross; spectra whose branch bands
    overlap are rejected.  Pairs are admissible when both the eigenvalue
    difference and the cos-momentum difference exceed ``tau_deg``, which
    drops degenerate pairs (sectors k and K-k) and identical sectors.
    """
    table = _branch_table(spec, n, m)
    if not _branch_ranges_disjoint(table):
        raise InvalidParameterError(
            "branch eigenvalue ranges overlap; ascending-order branch labels "
            "are unreliable for this pearl"
        )
    tau_deg = resolve_tau_deg(spec.eigenvalues, tau_deg)
    cosines = np.cos(spec.momenta())
    lam_n = table[:, n]
    lam_m = table[:, m]
    dcos = np.abs(cosines[:, None] - cosines[None, :])
    dlam = np.abs(lam_n[:, None] - lam_m[None, :])
    admissible = (dcos > tau_deg) & (dlam > tau_deg)
    count = int(admissible.sum())
    if count == 0:
        raise DegenerateSpectrumError(
            f"no admissible sector pairs for branches ({n}, {m}) at tau_deg={tau_deg}"
        )
    ratios = dlam[admissible] / dcos[admissible]
    return CosBoundReport(
        branch_pair=(n, m),
        c_measured=float(ratios.min()),
        pair_count=count,
        tau_deg=tau_deg,
    )


def cross_sector_min_gap(spec: FullSpectrum, n: int, m: int) -> float:
    """Minimum |lambda_{j,n} - lambda_{k,m}| over all sector pairs, for n != m."""
    if n == m:
        raise InvalidParameterError("branch labels must differ")
    table = _branch_table(spec, n, m)
    lam_n = table[:, n]
    lam_m = table[:, m]
    return float(np.abs(lam_n[:, None] - lam_m[None, :]).min())


def mixing_bound_curve(c: float, K: float, T: float) -> float:
    """Per-branch-pair distance bound (1 / (8 c)) * (K / T) * ln^2(K / 2).

    Assumes the initial state overlaps all momentum sectors roughly
    uniformly, |<psi_k|phi_0>|^2 ~ 1/K.
    """
    finite_above(c, "gap constant c")
    finite_above(K, "K", 3.0, or_equal=True)
    finite_above(T, "T")
    return (K / T) * math.log(K / 2.0) ** 2 / (8.0 * c)


@dataclass(frozen=True)
class GapScanRecord:
    """Smallest nonzero eigenvalue difference of one (d, K) comb necklace."""

    d: int
    K: int
    min_gap: float
    tau_deg: float


def fit_loglog_slope(k_values, gap_values) -> float:
    """Ordinary least-squares slope of log(gap) against log(K)."""
    k_values = np.asarray(k_values, dtype=float)
    gap_values = np.asarray(gap_values, dtype=float)
    if len(k_values) < 2:
        raise InvalidParameterError("slope fit needs at least two points")
    return float(np.polyfit(np.log(k_values), np.log(gap_values), 1)[0])


def gap_scan(
    d_list, k_list, threads: int | None = None
) -> tuple[list[GapScanRecord], dict[int, float]]:
    """Scan minimum nonzero gaps over comb necklaces (d = 0 means plain cycle).

    Returns the per-(d, K) records in ``k_list`` order within each d,
    duplicates included, and the log-log slope per d fitted over its
    distinct K values (NaN when there are fewer than two).

    K values in ``k_list`` that share an odd part form a doubling chain.
    Momentum ``2 pi k / K`` is the same float as ``2 pi (2k) / (2K)``,
    since scaling by 2 is exact, so K's sectors are bit for bit the even
    sectors of 2K.  Each pearl therefore solves only the largest K of each
    chain, its head, and slices every other member's rows out of the
    head's table; the records are those of a solve per K.  Chains run one
    at a time, so the peak memory is one head table.  ``threads`` is
    validated; the chains run on the calling thread, since a thread pool
    bought no wall time over one thread and cost extra CPU.
    """
    d_list = [int(d) for d in d_list]
    k_list = [int(k) for k in k_list]
    for d in d_list:
        if d < 0:
            raise InvalidParameterError(f"tooth spacing d must be >= 0, got {d}")
    for k in k_list:
        if k < 3:
            raise InvalidParameterError(f"K must be >= 3, got {k}")

    resolve_thread_count(threads)

    chains: dict[int, list[int]] = {}
    for k in dict.fromkeys(k_list):
        chains.setdefault(k // (k & -k), []).append(k)    # keyed by K's odd part

    def one_chain(case: tuple[int, list[int]]) -> list[GapScanRecord]:
        d, members = case
        pearl = make_cycle_pearl() if d == 0 else make_comb_pearl(d)
        head = max(members)
        table = all_sector_eigenvalues(NecklaceSpec(pearl, head))
        chain = []
        for k in members:
            # Rows k and K-k are bit-identical, so rows 0..K//2 hold every
            # distinct value; row k of K is row k * head / K of the head.
            values = table[: head // 2 + 1 : head // k].ravel()
            tau = default_degeneracy_tolerance(values)
            chain.append(GapScanRecord(d=d, K=k, min_gap=min_nonzero_gap(values, tau),
                                       tau_deg=tau))
        return chain

    cases = [(d, members) for d in dict.fromkeys(d_list) for members in chains.values()]
    found = {(r.d, r.K): r for chain in ordered_map(one_chain, cases) for r in chain}
    records = [found[d, k] for d in d_list for k in k_list]
    slopes: dict[int, float] = {}
    for d in d_list:
        own = {r.K: r.min_gap for r in records if r.d == d}    # a repeated K is one point
        if len(own) >= 2:
            slopes[d] = fit_loglog_slope(list(own), list(own.values()))
        else:
            slopes[d] = float("nan")
    return records, slopes


__all__ = [
    "CosBoundReport",
    "GapScanRecord",
    "cos_bound_constant",
    "cross_sector_min_gap",
    "fit_loglog_slope",
    "gap_scan",
    "min_nonzero_gap",
    "mixing_bound_curve",
]
