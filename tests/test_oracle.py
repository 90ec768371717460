import numpy as np
import pytest

from necklace_walks import (
    InvalidParameterError,
    NecklaceSpec,
    assemble_hamiltonian,
    brute_spectrum,
    evolve_matrix_exponential,
    full_spectrum,
    make_comb_pearl,
    make_cycle_pearl,
    quadrature_time_average,
    time_averaged,
    vertex_state,
)


class TestBruteSpectrum:
    def test_cycle_k4(self):
        h = assemble_hamiltonian(NecklaceSpec(make_cycle_pearl(), 4))
        vals = brute_spectrum(h).eigenvalues
        assert np.abs(vals - [-2.0, 0.0, 0.0, 2.0]).max() < 1e-12

    def test_comb1_even_k_symmetric(self):
        # bipartite only for even K; see the sector-route test for odd K
        h = assemble_hamiltonian(NecklaceSpec(make_comb_pearl(1), 4))
        vals = brute_spectrum(h).eigenvalues
        assert np.abs(vals + vals[::-1]).max() < 1e-12

    def test_agrees_with_sector_route(self):
        neck = NecklaceSpec(make_comb_pearl(3), 5)
        spec = full_spectrum(neck)
        brute = brute_spectrum(assemble_hamiltonian(neck))
        assert np.abs(np.sort(spec.eigenvalues, axis=None) - brute.eigenvalues).max() < 1e-9

    def test_dimension_cap(self):
        with pytest.raises(InvalidParameterError):
            brute_spectrum(np.zeros((5001, 5001)))


class TestMatrixExponentialEvolution:
    def test_dimension_cap(self):
        with pytest.raises(InvalidParameterError, match="exceeds evolution cap 2000"):
            evolve_matrix_exponential(np.zeros((2001, 2001)), np.zeros(2001), 1.0)

    def test_zero_time(self):
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        phi = np.array([0.6, 0.8], dtype=complex)
        assert np.abs(evolve_matrix_exponential(h, phi, 0.0) - np.abs(phi) ** 2).max() < 1e-14

    def test_two_level_oscillation(self):
        # single edge: p(stay) = cos^2 t
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        phi = np.array([1.0, 0.0], dtype=complex)
        for t in (0.3, 1.0, 2.5):
            p = evolve_matrix_exponential(h, phi, t)
            assert p[0] == pytest.approx(np.cos(t) ** 2, abs=1e-12)

    def test_conserves_probability(self, rng):
        neck = NecklaceSpec(make_comb_pearl(2), 4)
        h = assemble_hamiltonian(neck)
        phi = vertex_state(neck, 1, 1)
        for t in rng.uniform(0, 30, size=10):
            assert abs(evolve_matrix_exponential(h, phi, t).sum() - 1.0) < 1e-10


class TestQuadratureAverage:
    def test_eigenvector_start(self):
        neck = NecklaceSpec(make_cycle_pearl(), 5)
        h = assemble_hamiltonian(neck)
        vec = brute_spectrum(h).vectors[:, 0]
        for T in (5.0, 20.0):
            avg = quadrature_time_average(h, vec, T, 500)
            assert np.abs(avg - np.abs(vec) ** 2).max() < 1e-10

    def test_matches_exact_kernel_comb(self):
        neck = NecklaceSpec(make_comb_pearl(2), 4)
        h = assemble_hamiltonian(neck)
        spec = full_spectrum(neck)
        phi = vertex_state(neck, 2, 3)
        # 5e4 steps over T=50: discretization error ~ (T/steps)^2 ~ 1e-6
        quad = quadrature_time_average(h, phi, 50.0, 50_000)
        exact = time_averaged(spec, phi, 50.0)
        assert np.abs(quad - exact).max() < 1e-5

    def test_step_floor(self):
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InvalidParameterError):
            quadrature_time_average(h, np.array([1.0, 0.0]), 1.0, 50)


class TestLiftedBasisDiagonalizes:
    def test_small_instances(self, custom_pearl):
        for pearl, K in ((make_comb_pearl(1), 6), (custom_pearl, 4)):
            neck = NecklaceSpec(pearl, K)
            spec = full_spectrum(neck)
            h = assemble_hamiltonian(neck)
            transformed = spec.vectors.conj().T @ h @ spec.vectors
            assert np.abs(transformed - np.diag(spec.eigenvalues.ravel())).max() <= 1e-9
