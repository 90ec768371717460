"""Acceptance suite: one test per release criterion, each at its stated tolerance.

Every test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) in addition to asserting, so the suite doubles as a checklist.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from necklace_walks import (
    NecklaceSpec,
    assemble_hamiltonian,
    brute_spectrum,
    comb1_closed_form,
    comb1_high_k,
    comb1_limiting,
    cos_bound_constant,
    cross_sector_min_gap,
    cycle_limiting,
    full_spectrum,
    gap_scan,
    limiting_distribution,
    make_comb_pearl,
    make_custom_pearl,
    make_cycle_pearl,
    mixing_time,
    probability_at_time,
    quadrature_time_average,
    sector_spectrum,
    time_averaged,
    tv_convergence_bound,
    tv_distance,
    vertex_state,
)

K1_CONSTANT = (math.sqrt(2) - 1) / math.sqrt(2)
K2_CONSTANT = 1 / math.sqrt(5)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_sector_union_oracle_equivalence():
    """Sector-route eigenvalues match brute-force diagonalization, 1e-9."""
    start = time.time()
    pearls = [make_cycle_pearl()] + [make_comb_pearl(d) for d in (1, 2, 3, 4)]
    pearls.append(make_custom_pearl(4, [(1, 2), (2, 3), (3, 4), (1, 3)], 1, 4))
    worst = 0.0
    for pearl in pearls:
        for K in range(3, 11):
            neck = NecklaceSpec(pearl, K)
            spec = full_spectrum(neck)
            brute = brute_spectrum(assemble_hamiltonian(neck))
            sorted_values = np.sort(spec.eigenvalues, axis=None)
            worst = max(worst, float(np.abs(sorted_values - brute.eigenvalues).max()))
    elapsed = time.time() - start
    report(
        "criterion 1 (sector union vs brute force)",
        worst <= 1e-9 and elapsed < 30.0,
        f"max deviation {worst:.2e} over 48 necklaces in {elapsed:.1f}s",
    )


def test_criterion_02_comb1_closed_form():
    """d=1 comb sector eigenpairs match the analytic forms."""
    pearl = make_comb_pearl(1)
    worst_lam, worst_vec = 0.0, 0.0
    for K in (4, 7, 64, 200):
        for k in range(K):
            c = math.cos(2 * math.pi * k / K)
            root = math.sqrt(1 + c * c)
            s = sector_spectrum(pearl, k, K)
            worst_lam = max(
                worst_lam,
                abs(s.eigenvalues[0] - (c - root)),
                abs(s.eigenvalues[1] - (c + root)),
            )
            for n, (_, vec) in enumerate(comb1_closed_form(k, K)):
                worst_vec = max(worst_vec, float(np.abs(s.vectors[:, n] - vec).max()))
    report(
        "criterion 2 (d=1 closed form)",
        worst_lam <= 1e-10 and worst_vec <= 1e-9,
        f"eigenvalue dev {worst_lam:.2e}, eigenvector dev {worst_vec:.2e}",
    )


def test_criterion_03_comb2_closed_form():
    """d=2 comb sector eigenvalues are {0, +/- sqrt(3 + 2 cos p_k)}."""
    pearl = make_comb_pearl(2)
    worst = 0.0
    for K in (4, 9, 64):
        for k in range(K):
            s_val = math.sqrt(3 + 2 * math.cos(2 * math.pi * k / K))
            spectrum = sector_spectrum(pearl, k, K).eigenvalues
            worst = max(
                worst, float(np.abs(spectrum - [-s_val, 0.0, s_val]).max())
            )
    report("criterion 3 (d=2 closed form)", worst <= 1e-10, f"max deviation {worst:.2e}")


def test_criterion_04_cycle_limiting_distribution():
    """Cycle limiting distribution from a vertex start, both parities."""
    worst = 0.0
    for K in (8, 9):
        neck = NecklaceSpec(make_cycle_pearl(), K)
        spec = full_spectrum(neck)
        pi = limiting_distribution(spec, vertex_state(neck, 1, 1))
        closed = np.array([cycle_limiting(K, x, 1) for x in range(1, K + 1)])
        worst = max(worst, float(np.abs(pi - closed).max()))
    spot = abs(cycle_limiting(8, 1, 1) - 0.21875) + abs(cycle_limiting(8, 2, 1) - 0.09375)
    report(
        "criterion 4 (cycle limiting)",
        worst <= 1e-9 and spot == 0.0,
        f"max deviation {worst:.2e}; K=8 spot values exact",
    )


def test_criterion_05_comb1_limiting_reproduction():
    """Closed-form d=1 limiting distribution matches the projector route."""
    start = time.time()
    worst = 0.0
    for K in (201, 200):
        neck = NecklaceSpec(make_comb_pearl(1), K)
        spec = full_spectrum(neck)
        z = 50
        pi = limiting_distribution(spec, vertex_state(neck, z, 1))
        closed = np.empty(2 * K)
        for x in range(1, K + 1):
            closed[neck.flat_index(x, 1)] = comb1_limiting(K, "base", "base", x, z)
            closed[neck.flat_index(x, 2)] = comb1_limiting(K, "base", "tooth", x, z)
        worst = max(worst, float(np.abs(pi - closed).max()))

    # flat-approximation check at K = 200, away from pearls 50 and 150
    K, z = 200, 50
    base_target = (4 - math.sqrt(2)) / (4 * K)
    tooth_target = math.sqrt(2) / (4 * K)
    worst_rel = 0.0
    for x in range(1, K + 1):
        dist = min(abs(x - 50) % K, K - abs(x - 50) % K)
        dist_op = min(abs(x - 150) % K, K - abs(x - 150) % K)
        if min(dist, dist_op) <= K // 8:
            continue
        base = comb1_limiting(K, "base", "base", x, z)
        tooth = comb1_limiting(K, "base", "tooth", x, z)
        worst_rel = max(
            worst_rel,
            abs(base - base_target) / base_target,
            abs(tooth - tooth_target) / tooth_target,
        )
    elapsed = time.time() - start
    report(
        "criterion 5 (d=1 limiting reproduction)",
        worst <= 1e-9 and worst_rel <= 0.02 and elapsed < 60.0,
        f"projector deviation {worst:.2e}, flat-value rel dev {worst_rel:.2%}, {elapsed:.1f}s",
    )


def test_criterion_06_spectral_weight_identities():
    """Product and weight identities of the d=1 sector eigenvalues at K = 256."""
    K = 256
    worst = 0.0
    for k in range(K):
        lams = [lam for lam, _ in comb1_closed_form(k, K)]
        c = math.cos(2 * math.pi * k / K)
        l_k = 1 / (2 * (1 + c * c))
        worst = max(
            worst,
            abs(lams[0] * lams[1] + 1.0),
            abs(sum(1 / (1 + l * l) ** 2 for l in lams) - (1 - l_k)),
            abs(sum(l**4 / (1 + l * l) ** 2 for l in lams) - (1 - l_k)),
            abs(sum(l * l / (1 + l * l) ** 2 for l in lams) - l_k),
        )
    report("criterion 6 (weight identities)", worst <= 1e-12, f"max deviation {worst:.2e}")


def test_criterion_07_gap_scaling():
    """Minimum nonzero gaps scale like K^-2 across comb families."""
    start = time.time()
    ks = [16, 23, 32, 45, 64, 91, 128, 181, 256]
    _, slopes = gap_scan([0, 1, 2, 3, 5, 8], ks)
    elapsed = time.time() - start
    ok_cycle = abs(slopes[0] + 2.0) <= 0.05
    ok_combs = all(-2.3 <= slopes[d] <= -1.7 for d in (1, 2, 3, 5, 8))
    rendered = {d: round(s, 3) for d, s in slopes.items()}
    report(
        "criterion 7 (gap scaling)",
        ok_cycle and ok_combs and elapsed < 300.0,
        f"slopes {rendered} in {elapsed:.1f}s",
    )


def _cos_bound_minimum(d: int, branches, k_values) -> float:
    measured = math.inf
    for K in k_values:
        spec = full_spectrum(NecklaceSpec(make_comb_pearl(d), K))
        for n in branches:
            measured = min(measured, cos_bound_constant(spec, n, n).c_measured)
    return measured


COS_BOUND_K_VALUES = (8, 9, 16, 33, 64, 100, 128, 256, 511, 512)


def test_criterion_08a_cos_bound_constant_comb1():
    """d=1 same-branch gap constants stay above (sqrt(2)-1)/sqrt(2)."""
    measured = _cos_bound_minimum(1, (0, 1), COS_BOUND_K_VALUES)
    report(
        "criterion 8a (d=1 cos-bound constant)",
        measured >= K1_CONSTANT - 1e-12,
        f"min measured {measured:.12f} vs target {K1_CONSTANT:.12f}",
    )


def _comb2_outer_ratio_minimum(K: int, tau_deg: float) -> float:
    """min 2 / (s_j + s_k) over admissible sector pairs, s_k = sqrt(3 + 2 cos p_k)."""
    cosines = np.cos(2.0 * math.pi * np.arange(K) / K)
    s = np.sqrt(3.0 + 2.0 * cosines)
    dcos = np.abs(cosines[:, None] - cosines[None, :])
    dlam = np.abs(s[:, None] - s[None, :])
    admissible = (dcos > tau_deg) & (dlam > tau_deg)
    return float((2.0 / (s[:, None] + s[None, :]))[admissible].min())


def test_criterion_08b_cos_bound_constant_comb2():
    """d=2 same-branch gap constants stay above the sharp 1/sqrt(5).

    The outer branches of the d=2 comb are lambda = +/- s_k with
    s_k = sqrt(3 + 2 cos p_k), so on either of them
    |s_j - s_k| / |cos p_j - cos p_k| = 2 / (s_j + s_k).  That ratio always
    exceeds 1/sqrt(5) and tends to it as both momenta go to 0; it falls
    below 1/2 from K = 5 on.  Each K's branch minimum must also match the
    closed-form minimum of 2 / (s_j + s_k), computed here from the momenta
    alone, to 1e-9.
    """
    measured = math.inf
    worst_sharpness = 0.0
    for K in COS_BOUND_K_VALUES:
        spec = full_spectrum(NecklaceSpec(make_comb_pearl(2), K))
        for n in (0, 2):
            bound = cos_bound_constant(spec, n, n)
            expected = _comb2_outer_ratio_minimum(K, bound.tau_deg)
            measured = min(measured, bound.c_measured)
            worst_sharpness = max(worst_sharpness, abs(bound.c_measured - expected))
    report(
        "criterion 8b (d=2 cos-bound constant)",
        measured >= K2_CONSTANT - 1e-12 and worst_sharpness < 1e-9,
        f"min measured {measured:.12f} vs target {K2_CONSTANT:.12f}; "
        f"worst |measured - closed form| {worst_sharpness:.2e} (tol 1e-9)",
    )


def test_criterion_08c_cross_sector_gaps():
    """Cross-branch minimum gaps at K = 512."""
    spec1 = full_spectrum(NecklaceSpec(make_comb_pearl(1), 512))
    spec2 = full_spectrum(NecklaceSpec(make_comb_pearl(2), 512))
    gap1 = cross_sector_min_gap(spec1, 1, 0)
    gap2_zero = cross_sector_min_gap(spec2, 1, 2)
    gap2_outer = cross_sector_min_gap(spec2, 0, 2)
    ok = (
        abs(gap1 - 2 * (math.sqrt(2) - 1)) < 1e-6
        and gap2_zero >= 1.0 - 1e-6
        and abs(gap2_outer - 2.0) < 1e-6
    )
    report(
        "criterion 8c (cross-branch gaps)",
        ok,
        f"d=1 (+,-): {gap1:.9f}; d=2 (0,+): {gap2_zero:.9f}; d=2 (+,-): {gap2_outer:.9f}",
    )


def test_criterion_09_mixing_dominance_and_scaling():
    """Bound dominates the exact distance; mixing time grows cycle-like."""
    start = time.time()
    families = {
        "cycle": make_cycle_pearl(),
        "comb1": make_comb_pearl(1),
        "comb2": make_comb_pearl(2),
    }
    dominance_ok = True
    scaling_ok = True
    details = []
    for name, pearl in families.items():
        ratios = {}
        for K in (16, 32, 64):
            neck = NecklaceSpec(pearl, K)
            spec = full_spectrum(neck)
            phi = vertex_state(neck, 1, 1)
            result = mixing_time(spec, phi, 0.1, t_hi=1e5)
            bound_at_unit = tv_convergence_bound(spec, phi, 1.0)
            dominance_ok &= bool(
                np.all(bound_at_unit / result.grid >= result.tv_values - 1e-12)
            )
            assert result.found
            ratios[K] = result.t_mix / (K * math.log(K / 2) ** 2)
        # one constant per family: the later ratios must not exceed the
        # first one beyond two coarse grid steps of slack (1.05^2)
        c_family = ratios[16] * 1.05**2
        scaling_ok &= ratios[32] <= c_family and ratios[64] <= c_family
        details.append(f"{name}: r16={ratios[16]:.3f} r32={ratios[32]:.3f} r64={ratios[64]:.3f}")
    elapsed = time.time() - start
    report(
        "criterion 9 (mixing dominance and scaling)",
        dominance_ok and scaling_ok and elapsed < 600.0,
        "; ".join(details) + f"; {elapsed:.0f}s",
    )


def test_criterion_10_numerical_hygiene():
    """Residuals, orthonormality, distribution sanity, quadrature agreement."""
    rng = np.random.default_rng(7)
    worst_residual = 0.0
    worst_gram = 0.0
    for pearl, K in ((make_comb_pearl(2), 8), (make_cycle_pearl(), 12)):
        neck = NecklaceSpec(pearl, K)
        spec = full_spectrum(neck)
        h = assemble_hamiltonian(neck)
        residual = h @ spec.vectors - spec.vectors * spec.eigenvalues.reshape(1, -1)
        worst_residual = max(worst_residual, float(np.linalg.norm(residual, axis=0).max()))
        gram = spec.vectors.conj().T @ spec.vectors - np.eye(spec.necklace.n_vertices)
        worst_gram = max(worst_gram, float(np.abs(gram).max()))

    neck = NecklaceSpec(make_comb_pearl(1), 10)
    spec = full_spectrum(neck)
    phi = vertex_state(neck, 1, 1)
    sum_dev = 0.0
    for t in rng.uniform(0.0, 200.0, size=100):
        p = probability_at_time(spec, phi, float(t))
        sum_dev = max(sum_dev, abs(p.sum() - 1.0), float(-p.min()))

    quad_dev = 0.0
    for pearl, K, T, steps in (
        (make_cycle_pearl(), 6, 10.0, 10_000),
        (make_comb_pearl(2), 4, 50.0, 50_000),
    ):
        small = NecklaceSpec(pearl, K)
        sp = full_spectrum(small)
        phi0 = vertex_state(small, 1, 1)
        h = assemble_hamiltonian(small)
        quad_dev = max(
            quad_dev,
            float(
                np.abs(
                    time_averaged(sp, phi0, T) - quadrature_time_average(h, phi0, T, steps)
                ).max()
            ),
        )
    ok = (
        worst_residual <= 1e-9
        and worst_gram <= 1e-9
        and sum_dev <= 1e-9
        and quad_dev <= 1e-5
    )
    report(
        "criterion 10 (numerical hygiene)",
        ok,
        f"residual {worst_residual:.2e}, gram {worst_gram:.2e}, "
        f"unit-sum dev {sum_dev:.2e}, quadrature dev {quad_dev:.2e}",
    )


def test_criterion_11_deterministic_output(tmp_path):
    """Byte-identical CSV for repeated runs and different thread counts."""
    blobs = []
    for name, threads in (("r1.csv", "1"), ("r2.csv", "1"), ("r4.csv", "4")):
        path = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable, "-m", "necklace_walks.cli",
                "mix", "--comb-d", "1", "--K", "12", "--start", "0,base",
                "--eps", "0.2", "--T-hi", "1e3",
                "--threads", threads, "--output", str(path),
            ],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    report("criterion 11 (determinism)", ok, f"3 runs, {len(blobs[0])} bytes each")
