import numpy as np
import pytest

from necklace_walks import InvalidMatrixError, eigh

from conftest import random_hermitian


def charpoly_roots(a):
    """Independent eigenvalue route for small matrices.

    Characteristic polynomial coefficients via the Faddeev-LeVerrier trace
    recursion, then companion-matrix root finding.  Shares nothing with the
    Hermitian solver under test.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -(a @ m).trace() / k
    return np.sort(np.roots(coeffs).real)


class TestEighBasics:
    def test_pauli_x(self):
        dec = eigh([[0, 1], [1, 0]])
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_comb1_zero_sector_matrix(self):
        dec = eigh([[2, 1], [1, 0]])
        expected = [1 - np.sqrt(2), 1 + np.sqrt(2)]
        assert np.abs(dec.eigenvalues - expected).max() < 1e-12

    def test_ascending_order(self, rng):
        dec = eigh(random_hermitian(rng, 12))
        assert np.all(np.diff(dec.eigenvalues) >= 0)

    def test_rejects_non_square(self):
        with pytest.raises(InvalidMatrixError):
            eigh(np.zeros((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidMatrixError, match="not Hermitian"):
            eigh([[0.0, 1.0], [0.5, 0.0]])

    def test_symmetrizes_within_tolerance(self):
        a = np.array([[1.0, 0.5 + 1e-13], [0.5, 2.0]])
        dec = eigh(a)
        assert len(dec.eigenvalues) == 2


class TestEighInvariants:
    @pytest.mark.parametrize("dim", [2, 5, 6, 8, 20])
    def test_residual_and_gram(self, rng, dim):
        a = random_hermitian(rng, dim)
        dec = eigh(a)
        fro = np.linalg.norm(a)
        residual = a @ dec.vectors - dec.vectors * dec.eigenvalues[None, :]
        assert np.linalg.norm(residual, axis=0).max() <= 1e-10 * fro
        gram = dec.vectors.conj().T @ dec.vectors
        assert np.abs(gram - np.eye(dim)).max() <= 1e-10

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_charpoly_oracle(self, rng, dim):
        a = random_hermitian(rng, dim)
        dec = eigh(a)
        assert np.abs(dec.eigenvalues - charpoly_roots(a)).max() < 1e-8

    def test_trace_identities(self, rng):
        a = random_hermitian(rng, 6)
        dec = eigh(a)
        fro = np.linalg.norm(a)
        assert abs(dec.eigenvalues.sum() - a.trace().real) <= 1e-10 * fro
        assert abs((dec.eigenvalues**2).sum() - fro**2) <= 1e-9 * fro**2

    def test_permutation_similarity(self, rng):
        a = random_hermitian(rng, 7)
        perm = rng.permutation(7)
        p = np.eye(7)[perm]
        b = p @ a @ p.T
        assert np.abs(eigh(a).eigenvalues - eigh(b).eigenvalues).max() <= 1e-10


class TestDeterminism:
    def test_phase_anchor_real_positive(self, rng):
        dec = eigh(random_hermitian(rng, 9))
        for col in range(9):
            v = dec.vectors[:, col]
            anchor = np.argmax(np.abs(v) >= np.abs(v).max() * (1 - 1e-6))
            assert v[anchor].real > 0
            assert abs(v[anchor].imag) < 1e-12

    def test_repeatable(self, rng):
        a = random_hermitian(rng, 10)
        d1, d2 = eigh(a), eigh(a)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.vectors, d2.vectors)

    def test_real_symmetric_same_path(self):
        dec = eigh(np.array([[2.0, 1.0], [1.0, 0.0]]))
        assert dec.vectors.dtype == complex
        assert np.abs(dec.vectors.imag).max() < 1e-14
