import math

import numpy as np
import pytest

from necklace_walks import (
    InvalidParameterError,
    NecklaceSpec,
    comb1_closed_form,
    comb1_coefficients,
    comb1_high_k,
    comb1_limiting,
    comb1_limiting_distribution,
    cycle_limiting,
    full_spectrum,
    limiting_distribution,
    make_comb_pearl,
    vertex_state,
)


def comb1_closed_vector(K, start_kind, z):
    """Closed-form limiting distribution over all 2K vertices."""
    out = np.empty(2 * K)
    for x in range(1, K + 1):
        out[2 * (x - 1)] = comb1_limiting(K, start_kind, "base", x, z)
        out[2 * (x - 1) + 1] = comb1_limiting(K, start_kind, "tooth", x, z)
    return out


class TestCycleLimiting:
    def test_even_values(self):
        assert cycle_limiting(8, 3, 3) == pytest.approx(0.21875, abs=1e-15)
        assert cycle_limiting(8, 4, 3) == pytest.approx(0.09375, abs=1e-15)
        assert cycle_limiting(8, 7, 3) == pytest.approx(0.21875, abs=1e-15)  # antipode

    def test_odd_values(self):
        assert cycle_limiting(9, 2, 2) == pytest.approx(2 / 9 - 1 / 81, abs=1e-15)
        assert cycle_limiting(9, 3, 2) == pytest.approx(1 / 9 - 1 / 81, abs=1e-15)

    @pytest.mark.parametrize("K", [3, 4, 8, 9, 50, 51])
    def test_normalization(self, K):
        total = sum(cycle_limiting(K, x, 1) for x in range(1, K + 1))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            cycle_limiting(2, 1, 1)
        with pytest.raises(InvalidParameterError):
            cycle_limiting(8, 0, 1)


class TestSpectralIdentities:
    @pytest.mark.parametrize("K", [8, 31, 256])
    def test_eigenvalue_product(self, K):
        for k in range(K):
            (lo, _), (hi, _) = comb1_closed_form(k, K)
            assert abs(lo * hi + 1.0) < 1e-12

    @pytest.mark.parametrize("K", [8, 256])
    def test_weight_identities(self, K):
        # both sector eigenvalues contribute symmetric rational weights:
        # sum 1/(1+l^2)^2 = 1 - L_k = sum l^4/(1+l^2)^2 and
        # sum l^2/(1+l^2)^2 = L_k with L_k = 1/(2 (1 + cos^2 p_k))
        for k in range(K):
            lams = [lam for lam, _ in comb1_closed_form(k, K)]
            c = math.cos(2 * math.pi * k / K)
            l_k = 1.0 / (2.0 * (1.0 + c * c))
            w0 = sum(1.0 / (1.0 + l * l) ** 2 for l in lams)
            w2 = sum(l * l / (1.0 + l * l) ** 2 for l in lams)
            w4 = sum(l**4 / (1.0 + l * l) ** 2 for l in lams)
            assert abs(w0 - (1.0 - l_k)) < 1e-12
            assert abs(w4 - (1.0 - l_k)) < 1e-12
            assert abs(w2 - l_k) < 1e-12


class TestComb1Coefficients:
    def test_offset_zero_equals_mean(self):
        for K in (9, 16):
            coeff = comb1_coefficients(K, 4, 4)
            assert coeff.weight_at_offset == pytest.approx(coeff.weight_mean, abs=1e-14)

    def test_parity_correction_values(self):
        assert comb1_coefficients(200, 1, 1).parity_correction == pytest.approx(3 / 400)
        assert comb1_coefficients(201, 1, 1).parity_correction == pytest.approx(3 / 804)

    def test_mean_tends_to_integral(self):
        coeff = comb1_coefficients(200, 1, 1)
        assert abs(coeff.weight_mean - math.sqrt(2) / 4) < 1e-3

    def test_offset_weight_falls_off(self):
        K = 128
        coeff_far = comb1_coefficients(K, 1 + K // 4, 1)
        coeff_near = comb1_coefficients(K, 1, 1)
        assert abs(coeff_far.weight_at_offset) < 0.01 * coeff_near.weight_mean

    def test_antipode_equals_mean_even_k(self):
        K = 64
        coeff = comb1_coefficients(K, 1 + K // 2, 1)
        assert coeff.weight_at_offset == pytest.approx(coeff.weight_mean, abs=1e-14)
        assert coeff.peak == 1


class TestComb1Limiting:
    @pytest.mark.parametrize("K", [9, 10, 200, 201])
    def test_normalization(self, K):
        total = comb1_closed_vector(K, "base", 3).sum()
        assert abs(total - 1.0) < 1e-10

    @pytest.mark.parametrize("K,start_kind", [(9, "base"), (10, "base"), (12, "tooth")])
    def test_matches_projector_route(self, K, start_kind):
        neck = NecklaceSpec(make_comb_pearl(1), K)
        spec = full_spectrum(neck)
        z = 3
        phi = vertex_state(neck, z, 1 if start_kind == "base" else 2)
        pi = limiting_distribution(spec, phi)
        closed = comb1_closed_vector(K, start_kind, z)
        assert np.abs(pi - closed).max() < 1e-12

    def test_base_tooth_symmetry(self):
        assert comb1_limiting(11, "base", "tooth", 5, 2) == pytest.approx(
            comb1_limiting(11, "tooth", "base", 5, 2), abs=1e-15
        )

    def test_kind_validation(self):
        with pytest.raises(InvalidParameterError):
            comb1_limiting(9, "base", "ring", 1, 1)


class TestComb1HighK:
    def test_even_generic_values(self):
        summary = comb1_high_k(200)
        assert summary.generic_base == pytest.approx((4 - math.sqrt(2)) / 800, rel=2e-2)
        assert summary.generic_tooth == pytest.approx(math.sqrt(2) / 800, rel=2e-2)
        assert summary.has_antipode

    def test_odd_k_drops_antipode(self):
        assert not comb1_high_k(201).has_antipode

    def test_generic_matches_exact_far_from_peaks(self):
        K, z = 200, 50
        summary = comb1_high_k(K)
        for x in (10, 100, 120):  # > K/8 pearls away from both 50 and 150
            base = comb1_limiting(K, "base", "base", x, z)
            tooth = comb1_limiting(K, "base", "tooth", x, z)
            assert base == pytest.approx(summary.generic_base, rel=1e-6)
            assert tooth == pytest.approx(summary.generic_tooth, rel=1e-6)

    def test_peak_matches_exact(self):
        K, z = 200, 50
        summary = comb1_high_k(K)
        assert comb1_limiting(K, "base", "base", z, z) == pytest.approx(
            summary.peak_base, rel=1e-6
        )
        assert comb1_limiting(K, "base", "tooth", z + K // 2, z) == pytest.approx(
            summary.peak_tooth, rel=1e-6
        )

    def test_requires_large_k(self):
        with pytest.raises(InvalidParameterError):
            comb1_high_k(49)


class TestComb1LimitingDistribution:
    @pytest.mark.parametrize("K", [3, 4, 9, 10, 57, 64])
    @pytest.mark.parametrize("start_kind", ["base", "tooth"])
    def test_matches_pointwise_closed_form(self, K, start_kind):
        for z in sorted({1, 2, K // 2 + 1, K}):
            vector = comb1_limiting_distribution(K, start_kind, z)
            assert np.abs(vector - comb1_closed_vector(K, start_kind, z)).max() < 1e-14

    @pytest.mark.parametrize("K", [40000, 70000, 100000])
    def test_pointwise_closed_form_holds_at_large_K(self, K):
        # The phase 2 (x - z) k reaches about 2 K^2 here; its angle must not carry roundoff.
        vector = comb1_limiting_distribution(K, "base", 1)
        for x in range(K - 25, K + 1):
            for m, target in enumerate(("base", "tooth")):
                assert abs(comb1_limiting(K, "base", target, x, 1) - vector[2 * (x - 1) + m]) < 1e-15

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            comb1_limiting_distribution(8, "ring", 1)
        with pytest.raises(InvalidParameterError):
            comb1_limiting_distribution(8, "base", 9)
        with pytest.raises(InvalidParameterError):
            comb1_limiting_distribution(2, "base", 1)
