import dataclasses
import math
import threading
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from necklace_walks import (
    DegenerateSpectrumError,
    InvalidParameterError,
    NecklaceSpec,
    all_sector_eigenvalues,
    brute_spectrum,
    assemble_hamiltonian,
    cos_bound_constant,
    cross_sector_min_gap,
    default_degeneracy_tolerance,
    fit_loglog_slope,
    full_spectrum,
    gap_scan,
    make_comb_pearl,
    make_custom_pearl,
    make_cycle_pearl,
    min_nonzero_gap,
    mixing_bound_curve,
    mixing_time,
    tv_distance,
    time_averaged,
    limiting_distribution,
    vertex_state,
)
from necklace_walks import mixing

K1_CONSTANT = (math.sqrt(2) - 1) / math.sqrt(2)


class TestMinNonzeroGap:
    def test_simple(self):
        assert min_nonzero_gap(np.array([0.0, 0.0, 1.0, 3.0]), 1e-8) == 1.0

    def test_cycle_analytic(self):
        for K in (8, 16, 32):
            vals = 2 * np.cos(2 * np.pi * np.arange(K) / K)
            expected = np.diff(np.sort(np.unique(np.round(vals, 12))))
            gap = min_nonzero_gap(vals, 1e-8)
            assert gap == pytest.approx(expected.min(), rel=1e-9)
            # flattest region of the cosine band: gap ~ (2 pi / K)^2
            assert gap == pytest.approx(2 * (1 - math.cos(2 * math.pi / K)), rel=1e-9)

    def test_comb_matches_brute_force(self):
        neck = NecklaceSpec(make_comb_pearl(1), 32)
        sector_vals = all_sector_eigenvalues(neck).ravel()
        brute_vals = brute_spectrum(assemble_hamiltonian(neck)).eigenvalues
        tau = 1e-8 * np.abs(brute_vals).max()
        assert min_nonzero_gap(sector_vals, tau) == pytest.approx(
            min_nonzero_gap(brute_vals, tau), abs=1e-10
        )

    def test_a_sector_by_branch_table_is_read_across_its_sectors(self):
        # Within one d = 1 sector the two branches are at least 2 apart; the
        # smallest gap lies between sectors.
        table = all_sector_eigenvalues(NecklaceSpec(make_comb_pearl(1), 16))
        assert table.shape == (16, 2)
        assert min_nonzero_gap(table, 1e-9) == min_nonzero_gap(table.ravel(), 1e-9)
        assert f"{min_nonzero_gap(table, 1e-9):.15g}" == "0.0233595817053239"

    def test_fully_degenerate(self):
        with pytest.raises(DegenerateSpectrumError):
            min_nonzero_gap(np.array([1.0, 1.0 + 1e-12]), 1e-8)

    def test_needs_two_values(self):
        with pytest.raises(InvalidParameterError):
            min_nonzero_gap(np.array([1.0]), 1e-8)


class TestCosBoundConstant:
    def test_cycle_is_exactly_two(self):
        spec = full_spectrum(NecklaceSpec(make_cycle_pearl(), 16))
        report = cos_bound_constant(spec, 0, 0)
        assert report.c_measured == pytest.approx(2.0, abs=1e-12)
        assert report.pair_count > 0

    @pytest.mark.parametrize("K", [8, 64, 129])
    def test_comb1_same_branch(self, K):
        spec = full_spectrum(NecklaceSpec(make_comb_pearl(1), K))
        for n in (0, 1):
            report = cos_bound_constant(spec, n, n)
            assert report.c_measured >= K1_CONSTANT - 1e-12

    @pytest.mark.parametrize("K", [8, 64])
    def test_comb2_same_branch_sharp_constant(self, K):
        # the sharp constant is 1/sqrt(5), approached in the small-momentum
        # limit; see the outer-branch ratio 2 / (sqrt(3+2cos) + sqrt(3+2cos))
        spec = full_spectrum(NecklaceSpec(make_comb_pearl(2), K))
        for n in (0, 2):
            report = cos_bound_constant(spec, n, n)
            assert report.c_measured >= 1 / math.sqrt(5) - 1e-12
            assert report.c_measured <= 0.5

    def test_rejects_overlapping_branch_bands(self):
        # Sector 0's lower eigenvalue moved 0.5 above the upper band's minimum.
        spec = full_spectrum(NecklaceSpec(make_comb_pearl(1), 8))
        table = spec.eigenvalues.copy()
        table[0, 0] = table[:, 1].min() + 0.5
        spec = dataclasses.replace(spec, eigenvalues=table)
        with pytest.raises(InvalidParameterError, match="branch eigenvalue ranges overlap"):
            cos_bound_constant(spec, 0, 0)

    def test_bands_touching_through_roundoff_are_disjoint(self):
        # Star pearl: branch 1 tops out near 4e-16 and branch 2 starts at 0.0.
        pearl = make_custom_pearl(4, [(1, 3), (2, 3), (3, 4)], 1, 3)
        spec = full_spectrum(NecklaceSpec(pearl, 8))
        table = spec.eigenvalues
        assert table[:, 1].max() > table[:, 2].min()
        for n, m in ((0, 3), (0, 1), (2, 3)):
            assert cos_bound_constant(spec, n, m).pair_count > 0

    def test_rejects_bad_branch(self):
        spec = full_spectrum(NecklaceSpec(make_cycle_pearl(), 8))
        with pytest.raises(InvalidParameterError):
            cos_bound_constant(spec, 0, 1)


class TestCrossSectorMinGap:
    def test_comb1_opposite_branches(self):
        spec = full_spectrum(NecklaceSpec(make_comb_pearl(1), 64))
        # min lambda_+ = sqrt(2)-1 and max lambda_- = 1-sqrt(2) at momentum pi
        assert cross_sector_min_gap(spec, 1, 0) == pytest.approx(
            2 * (math.sqrt(2) - 1), abs=1e-12
        )

    def test_comb2_gaps(self):
        spec = full_spectrum(NecklaceSpec(make_comb_pearl(2), 64))
        assert cross_sector_min_gap(spec, 1, 2) == pytest.approx(1.0, abs=1e-12)
        assert cross_sector_min_gap(spec, 0, 2) == pytest.approx(2.0, abs=1e-12)

    def test_same_branch_rejected(self):
        spec = full_spectrum(NecklaceSpec(make_comb_pearl(1), 8))
        with pytest.raises(InvalidParameterError):
            cross_sector_min_gap(spec, 1, 1)


class TestMixingBoundCurve:
    def test_plug_in(self):
        # K = 2e makes ln(K/2) = 1, and T = K cancels the K factor
        K = 2 * math.e
        assert mixing_bound_curve(1.0, K, K) == pytest.approx(1 / 8, rel=1e-12)

    def test_halves_with_doubled_t(self):
        assert mixing_bound_curve(0.5, 64, 200.0) == pytest.approx(
            2 * mixing_bound_curve(0.5, 64, 400.0), rel=1e-12
        )

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("K", [16, 32, 64])
    def test_dominates_exact_distance_with_measured_c(self, d, K):
        neck = NecklaceSpec(make_comb_pearl(d), K)
        spec = full_spectrum(neck)
        outer = (0, d)  # outermost branches carry the governing pairs
        c = min(cos_bound_constant(spec, n, n).c_measured for n in outer)
        phi = vertex_state(neck, 1, 1)
        pi = limiting_distribution(spec, phi)
        for T in (float(K), 4.0 * K, 16.0 * K, 64.0 * K):
            tv = tv_distance(time_averaged(spec, phi, T), pi)
            assert 2 * mixing_bound_curve(c, K, T) >= tv

    def test_empirical_tmix_below_closed_form_budget(self):
        # with eps = 0.1, two governing pairs and the d=1 constant, the
        # curve crosses eps at T = 2 K ln^2(K/2) / (8 c eps)
        K, eps = 64, 0.1
        neck = NecklaceSpec(make_comb_pearl(1), K)
        spec = full_spectrum(neck)
        phi = vertex_state(neck, 1, 1)
        result = mixing_time(spec, phi, eps, t_hi=1e5)
        budget = 2 * K * math.log(K / 2) ** 2 / (8 * K1_CONSTANT * eps)
        assert result.found and result.t_mix <= budget

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            mixing_bound_curve(0.0, 16, 10.0)
        with pytest.raises(InvalidParameterError):
            mixing_bound_curve(1.0, 2, 10.0)
        with pytest.raises(InvalidParameterError):
            mixing_bound_curve(1.0, 16, 0.0)


class TestGapScan:
    def test_cycle_slope_near_minus_two(self):
        _, slopes = gap_scan([0], [16, 32, 64, 128])
        assert abs(slopes[0] + 2.0) < 0.05

    def test_comb_slopes_in_band(self):
        records, slopes = gap_scan([1, 2], [16, 32, 64, 128])
        for d in (1, 2):
            assert -2.3 <= slopes[d] <= -1.7
        assert all(r.min_gap > 0 for r in records)

    def test_single_k_smoke(self):
        records, slopes = gap_scan([15], [8])
        assert len(records) == 1
        assert records[0].min_gap > 0
        assert math.isnan(slopes[15])

    def test_repeated_k_has_no_slope(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records, slopes = gap_scan([1], [5, 5])
        assert [r.K for r in records] == [5, 5]
        assert math.isnan(slopes[1])

    def test_repeats_do_not_weight_the_slope(self):
        _, once = gap_scan([1], [16, 32, 64])
        _, repeated = gap_scan([1], [16, 32, 64, 64, 16, 64])
        assert repeated[1] == once[1]

    def test_records_ordered_and_thread_stable(self):
        a, _ = gap_scan([1, 3], [8, 16])
        b, _ = gap_scan([1, 3], [8, 16])
        assert [(r.d, r.K) for r in a] == [(1, 8), (1, 16), (3, 8), (3, 16)]
        assert [(r.d, r.K, r.min_gap) for r in a] == [(r.d, r.K, r.min_gap) for r in b]

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            gap_scan([-1], [8])
        with pytest.raises(InvalidParameterError):
            gap_scan([1], [2])

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_half_table_gives_the_full_table_records(self, d):
        records, _ = gap_scan([d], [8, 9, 16, 33])
        pearl = make_cycle_pearl() if d == 0 else make_comb_pearl(d)
        for record in records:
            values = all_sector_eigenvalues(NecklaceSpec(pearl, record.K)).ravel()
            tau = default_degeneracy_tolerance(values)
            assert record.tau_deg == tau
            assert record.min_gap == min_nonzero_gap(values, tau)

    def test_cases_run_on_the_calling_thread(self, monkeypatch):
        threads = set()
        solve = mixing.all_sector_eigenvalues

        def recording(*args, **kwargs):
            threads.add(threading.get_ident())
            return solve(*args, **kwargs)

        monkeypatch.setattr(mixing, "all_sector_eigenvalues", recording)
        gap_scan([1, 3], [8, 16, 32])
        assert threads == {threading.get_ident()}

    @pytest.mark.filterwarnings("error:Polyfit may be poorly conditioned")
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_chain_sharing_is_exact(self, data):
        d_list = data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=2, unique=True))
        chained = st.builds(lambda odd, j: odd << j, st.sampled_from([3, 5, 7, 9]),
                            st.integers(0, 6))
        k_list = data.draw(st.lists(chained | st.integers(3, 200), min_size=1, max_size=10))
        k_list = data.draw(st.permutations(k_list + data.draw(
            st.lists(st.sampled_from(k_list), max_size=3))))
        pearls = {d: make_cycle_pearl() if d == 0 else make_comb_pearl(d) for d in d_list}

        solved = []
        solve = mixing.all_sector_eigenvalues

        def recording(necklace, *args, **kwargs):
            solved.append((necklace.pearl.m, necklace.K))
            return solve(necklace, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mixing, "all_sector_eigenvalues", recording)
            records, slopes = gap_scan(d_list, k_list)

        assert all(math.isnan(slopes[d]) == (len(set(k_list)) < 2) for d in d_list)
        heads = {}
        for k in k_list:
            odd = k // (k & -k)
            heads[odd] = max(heads.get(odd, k), k)
        assert Counter(solved) == Counter(
            (pearls[d].m, head) for d in d_list for head in heads.values())
        assert [(r.d, r.K) for r in records] == [(d, k) for d in d_list for k in k_list]
        for record in records:
            values = all_sector_eigenvalues(
                NecklaceSpec(pearls[record.d], record.K))[: record.K // 2 + 1].ravel()
            tau = default_degeneracy_tolerance(values)
            assert record.tau_deg == tau
            assert record.min_gap == min_nonzero_gap(values, tau)

    def test_peak_memory_is_one_head_table(self):
        pearl = make_comb_pearl(8)

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_head = peak(lambda: all_sector_eigenvalues(NecklaceSpec(pearl, 16384)))
        scan = peak(lambda: gap_scan([8], [64 << j for j in range(9)]))   # 64..16384
        assert scan <= 1.25 * one_head


class TestSlopeFit:
    def test_exact_power_law(self):
        ks = np.array([10.0, 20.0, 40.0])
        assert fit_loglog_slope(ks, 3.0 * ks**-2) == pytest.approx(-2.0, abs=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(InvalidParameterError):
            fit_loglog_slope([10.0], [1.0])
