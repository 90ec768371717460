import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from necklace_walks import (
    InvalidParameterError,
    NecklaceSpec,
    all_sector_eigenvalues,
    assemble_hamiltonian,
    brute_spectrum,
    comb1_closed_form,
    comb2_closed_form,
    full_spectrum,
    make_comb_pearl,
    make_custom_pearl,
    make_cycle_pearl,
    momentum,
    sector_matrix,
    sector_spectrum,
)
from necklace_walks import bloch
from necklace_walks.eig import fix_phases

from conftest import draw_connected_pearl


class TestMomentum:
    def test_values(self):
        assert momentum(0, 8) == 0.0
        assert momentum(1, 8) == pytest.approx(math.pi / 4, abs=0)
        assert momentum(4, 8) == pytest.approx(math.pi, abs=0)

    @pytest.mark.parametrize("k", [-1, 8, 100])
    def test_out_of_range(self, k):
        with pytest.raises(InvalidParameterError):
            momentum(k, 8)


class TestSectorMatrix:
    def test_comb1_single_root(self):
        y = sector_matrix(make_comb_pearl(1), 0.7)
        expected = np.array([[2 * math.cos(0.7), 1.0], [1.0, 0.0]], dtype=complex)
        assert np.abs(y - expected).max() < 1e-15

    def test_comb2_two_roots_at_zero(self):
        y = sector_matrix(make_comb_pearl(2), 0.0)
        # at p = 0 the root corner picks up an extra +1 on the ring edge
        expected = np.array(
            [[0, 2, 1], [2, 0, 0], [1, 0, 0]], dtype=complex
        )
        assert np.abs(y - expected).max() < 1e-15
        vals = np.linalg.eigvalsh(y)
        assert np.abs(vals - [-np.sqrt(5), 0.0, np.sqrt(5)]).max() < 1e-12

    def test_cycle_scalar(self):
        y = sector_matrix(make_cycle_pearl(), 1.1)
        assert y.shape == (1, 1)
        assert y[0, 0] == pytest.approx(2 * math.cos(1.1), abs=1e-15)

    def test_hermitian_by_construction(self, custom_pearl):
        for p in (0.0, 0.3, math.pi):
            y = sector_matrix(custom_pearl, p)
            assert np.abs(y - y.conj().T).max() < 1e-15


class TestSectorSpectrum:
    def test_cycle_eigenvalue(self):
        for K, k in ((5, 0), (5, 2), (8, 3)):
            s = sector_spectrum(make_cycle_pearl(), k, K)
            assert s.eigenvalues[0] == pytest.approx(2 * math.cos(2 * math.pi * k / K), abs=1e-14)

    def test_comb1_zero_sector(self):
        for K in (4, 9):
            s = sector_spectrum(make_comb_pearl(1), 0, K)
            assert np.abs(s.eigenvalues - [1 - np.sqrt(2), 1 + np.sqrt(2)]).max() < 1e-12

    def test_comb2_zero_sector(self):
        s = sector_spectrum(make_comb_pearl(2), 0, 6)
        assert np.abs(s.eigenvalues - [-np.sqrt(5), 0.0, np.sqrt(5)]).max() < 1e-12


def comb(d):
    """The d-comb pearl, or the cycle pearl at d = 0."""
    return make_cycle_pearl() if d == 0 else make_comb_pearl(d)


def lift(y, k, K):
    """Sector vector ``y`` of sector k lifted to the necklace by ``bloch._lift``."""
    return bloch._lift(np.asarray(y, dtype=complex)[None, :, None], np.array([k]), K)[:, 0]


class TestLift:
    def test_zero_momentum_repeats(self):
        y = np.array([0.6, 0.8])
        psi = lift(y, 0, 5)
        expected = np.tile(y, 5) / np.sqrt(5)
        assert np.abs(psi - expected).max() < 1e-15

    def test_cycle_plane_wave(self):
        K, k = 6, 2
        psi = lift(np.array([1.0]), k, K)
        p = 2 * math.pi * k / K
        expected = np.exp(1j * p * np.arange(1, K + 1)) / np.sqrt(K)
        assert np.abs(psi - expected).max() < 1e-14

    def test_lifted_vector_is_eigenvector(self):
        K, k = 4, 1
        pearl = make_comb_pearl(1)
        neck = NecklaceSpec(pearl, K)
        h = assemble_hamiltonian(neck)
        s = sector_spectrum(pearl, k, K)
        for n in range(pearl.m):
            psi = lift(s.vectors[:, n], k, K)
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(h @ psi - s.eigenvalues[n] * psi) <= 1e-9

    def test_matches_the_plane_wave_table_bit_for_bit(self, custom_pearl):
        K = 7
        y = full_spectrum(NecklaceSpec(custom_pearl, K)).sector_vectors
        p = 2.0 * np.pi * np.arange(K) / K
        phases = np.exp(1j * p[None, :] * np.arange(1, K + 1)[:, None])      # [j, k]
        table = phases[:, None, :, None] * y.transpose(1, 0, 2)[None] / math.sqrt(K)
        assert np.array_equal(bloch._lift(y, np.arange(K), K), table.reshape(K * 4, -1))

    @pytest.mark.parametrize("sectors", [[3], [1, 5], [0, 2, 6]])
    def test_some_sectors_lift_to_their_columns_of_the_basis(self, sectors, custom_pearl):
        # Pearl blocks of 7, of 3, 3 and 1, and of 2, 2, 2 and 1.
        K, M = 7, custom_pearl.m
        spec = full_spectrum(NecklaceSpec(custom_pearl, K))
        block = bloch._lift(spec.sector_vectors[sectors], np.array(sectors), K)
        columns = [k * M + n for k in sectors for n in range(M)]
        assert np.array_equal(block, spec.vectors[:, columns])

    def test_peak_memory_is_the_basis(self):
        # At M = 1 a K x K plane-wave table beside the basis would double the peak.
        K = 1200
        y = full_spectrum(NecklaceSpec(make_cycle_pearl(), K)).sector_vectors
        tracemalloc.start()
        try:
            vectors = bloch._lift(y, np.arange(K), K)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vectors.shape == (K, K)
        assert peak <= 1.1 * 16 * K * K


class TestFullSpectrum:
    def test_cycle_k4_multiset(self):
        spec = full_spectrum(NecklaceSpec(make_cycle_pearl(), 4))
        assert np.abs(np.sort(spec.eigenvalues, axis=None) - [-2.0, 0.0, 0.0, 2.0]).max() < 1e-12

    def test_cycle_exact_cosines(self):
        K = 12
        spec = full_spectrum(NecklaceSpec(make_cycle_pearl(), K))
        expected = 2 * np.cos(2 * np.pi * np.arange(K) / K)
        assert np.abs(spec.eigenvalues[:, 0] - expected).max() < 1e-12

    def test_comb1_even_k_spectrum_symmetric(self):
        # even-K combs are bipartite, so the spectrum mirrors around zero;
        # odd K contains an odd ring and the symmetry genuinely fails
        spec = full_spectrum(NecklaceSpec(make_comb_pearl(1), 6))
        vals = np.sort(spec.eigenvalues, axis=None)
        assert len(vals) == 12
        assert np.abs(vals + vals[::-1]).max() < 1e-12

    def test_comb1_k3_multiset(self):
        spec = full_spectrum(NecklaceSpec(make_comb_pearl(1), 3))
        # k=0: 1 +/- sqrt(2); k=1,2: -1/2 +/- sqrt(5)/2
        expected = np.sort(
            [1 - np.sqrt(2), 1 + np.sqrt(2)]
            + 2 * [-0.5 - np.sqrt(1.25), -0.5 + np.sqrt(1.25)]
        )
        assert np.abs(np.sort(spec.eigenvalues, axis=None) - expected).max() < 1e-12

    def test_matches_brute_force(self, custom_pearl):
        for pearl, K in ((make_comb_pearl(2), 6), (custom_pearl, 5)):
            neck = NecklaceSpec(pearl, K)
            spec = full_spectrum(neck)
            brute = brute_spectrum(assemble_hamiltonian(neck))
            assert np.abs(np.sort(spec.eigenvalues, axis=None) - brute.eigenvalues).max() < 1e-9

    def test_conjugate_sector_pairing(self, custom_pearl):
        for K in (7, 8):
            spec = full_spectrum(NecklaceSpec(custom_pearl, K))
            table = spec.eigenvalues
            for k in range(1, K):
                if 2 * k == K:
                    continue
                assert np.abs(table[k] - table[K - k]).max() < 1e-10

    def test_lifted_basis_orthonormal(self, custom_pearl):
        spec = full_spectrum(NecklaceSpec(custom_pearl, 5))
        gram = spec.vectors.conj().T @ spec.vectors
        assert np.abs(gram - np.eye(spec.necklace.n_vertices)).max() <= 1e-9

    def test_refuses_arrays_not_shaped_by_sector(self):
        spec = full_spectrum(NecklaceSpec(make_comb_pearl(2), 5))
        with pytest.raises(InvalidParameterError, match=r"\(5, 3\) eigenvalues"):
            replace(spec, eigenvalues=spec.eigenvalues.ravel())
        with pytest.raises(InvalidParameterError, match=r"\(5, 3, 3\) sector vectors"):
            replace(spec, sector_vectors=spec.sector_vectors[:, :2])

    def test_residuals(self):
        neck = NecklaceSpec(make_comb_pearl(3), 5)
        spec = full_spectrum(neck)
        h = assemble_hamiltonian(neck)
        residual = h @ spec.vectors - spec.vectors * spec.eigenvalues.reshape(1, -1)
        assert np.linalg.norm(residual, axis=0).max() <= 1e-9


class TestComb1ClosedForm:
    def test_zero_sector(self):
        (lo, _), (hi, _) = comb1_closed_form(0, 8)
        assert lo == pytest.approx(1 - np.sqrt(2), abs=1e-14)
        assert hi == pytest.approx(1 + np.sqrt(2), abs=1e-14)

    def test_quarter_turn_gives_unit_eigenvalues(self):
        (lo, _), (hi, _) = comb1_closed_form(2, 8)  # p = pi/2
        assert lo == pytest.approx(-1.0, abs=1e-14)
        assert hi == pytest.approx(+1.0, abs=1e-14)

    @pytest.mark.parametrize("K", [4, 7, 64])
    def test_product_identity(self, K):
        for k in range(K):
            (lo, _), (hi, _) = comb1_closed_form(k, K)
            assert lo * hi == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("K", [4, 7, 12])
    def test_matches_sector_spectrum(self, K):
        pearl = make_comb_pearl(1)
        for k in range(K):
            s = sector_spectrum(pearl, k, K)
            for n, (lam, vec) in enumerate(comb1_closed_form(k, K)):
                assert abs(s.eigenvalues[n] - lam) < 1e-12
                assert np.abs(s.vectors[:, n] - vec).max() < 1e-9


class TestComb2ClosedForm:
    def test_zero_sector(self):
        lams = [lam for lam, _ in comb2_closed_form(0, 6)]
        assert np.abs(np.array(lams) - [-np.sqrt(5), 0.0, np.sqrt(5)]).max() < 1e-14

    def test_half_turn(self):
        lams = [lam for lam, _ in comb2_closed_form(3, 6)]  # p = pi
        assert np.abs(np.array(lams) - [-1.0, 0.0, 1.0]).max() < 1e-14

    @pytest.mark.parametrize("K", [4, 9, 16])
    def test_matches_sector_spectrum(self, K):
        pearl = make_comb_pearl(2)
        for k in range(K):
            s = sector_spectrum(pearl, k, K)
            for n, (lam, vec) in enumerate(comb2_closed_form(k, K)):
                assert abs(s.eigenvalues[n] - lam) < 1e-10
                assert np.abs(s.vectors[:, n] - vec).max() < 1e-9


class TestSectorUnionProperty:
    @pytest.mark.parametrize("K", [3, 5, 8])
    def test_union_equals_brute(self, K):
        pearl = make_custom_pearl(3, [(1, 2), (2, 3)], 1, 3)
        neck = NecklaceSpec(pearl, K)
        spec = full_spectrum(neck)
        brute = brute_spectrum(assemble_hamiltonian(neck))
        assert np.abs(np.sort(spec.eigenvalues, axis=None) - brute.eigenvalues).max() < 1e-9


def fix_phases_by_column(vectors, band=1e-6):
    """Column-by-column phase fix, the reference for the stacked pass."""
    out = np.array(vectors, dtype=complex, copy=True)
    for col in range(out.shape[1]):
        v = out[:, col]
        mags = np.abs(v)
        top = mags.max()
        if top == 0.0:
            continue
        anchor = int(np.argmax(mags >= top * (1.0 - band)))
        out[:, col] = v * (np.conj(v[anchor]) / mags[anchor])
    return out


def assert_matches_sector_spectra(pearl, K, sectors=None):
    """Stacked half-spectrum solve against one sector_spectrum per sector.

    Both solves give (K, M) eigenvalue tables, equal to 1e-12.  A simple
    sector eigenvalue has a unique phase-fixed vector, compared to 1e-9; a
    degenerate cluster compares its eigenspace projector.  ``sectors``
    limits the per-sector comparison (default: every k); the stacked
    tables are compared whole.
    """
    spec = full_spectrum(NecklaceSpec(pearl, K))
    table, only_values = spec.eigenvalues, all_sector_eigenvalues(NecklaceSpec(pearl, K))
    assert table.shape == only_values.shape == (K, pearl.m)
    assert np.abs(only_values - table).max() < 1e-12
    for k in range(K) if sectors is None else sectors:
        ref = sector_spectrum(pearl, k, K)
        assert np.abs(table[k] - ref.eigenvalues).max() < 1e-12
        y, y_ref = spec.sector_vectors[k], ref.vectors
        start = 0
        for stop in range(1, pearl.m + 1):
            if stop < pearl.m and ref.eigenvalues[stop] - ref.eigenvalues[stop - 1] < 1e-6:
                continue
            block, block_ref = y[:, start:stop], y_ref[:, start:stop]
            if stop - start == 1:
                assert np.abs(block - block_ref).max() < 1e-9
            else:
                projector = block @ block.conj().T
                assert np.abs(projector - block_ref @ block_ref.conj().T).max() < 1e-9
            start = stop


def assert_conjugate_rows_bitwise_equal(pearl, K):
    """Rows k and K-k of both sector tables are equal bit for bit, vectors conjugate."""
    neck = NecklaceSpec(pearl, K)
    spec = full_spectrum(neck)
    table, only_values = spec.eigenvalues, all_sector_eigenvalues(neck)
    for k in range(1, K):
        assert np.array_equal(table[k], table[K - k])
        assert np.array_equal(only_values[k], only_values[K - k])
        if 2 * k != K:
            assert np.array_equal(spec.sector_vectors[k], spec.sector_vectors[K - k].conj())


class TestStackedSpectrum:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_connected_pearls_match_sector_spectra(self, data):
        pearl = draw_connected_pearl(data)
        assert_matches_sector_spectra(pearl, data.draw(st.integers(3, 40), label="K"))

    @pytest.mark.parametrize("d", range(13))
    @settings(max_examples=4, deadline=None)
    @given(K=st.integers(3, 600))
    def test_comb_pearls_match_sector_spectra(self, d, K):
        assert_matches_sector_spectra(comb(d), K)

    @pytest.mark.parametrize("d", range(13))
    @pytest.mark.parametrize("K", [4096, 11585])
    def test_comb_pearls_match_sector_spectra_at_large_K(self, d, K):
        sectors = sorted({*range(0, K, 257), 1, K // 2, K // 2 + 1, K - 1})
        assert_matches_sector_spectra(comb(d), K, sectors)

    @pytest.mark.parametrize("d", range(2, 13))
    def test_a_custom_pearl_with_comb_edges_and_roots_takes_the_real_solve(self, d, monkeypatch):
        made = make_comb_pearl(d)
        plain = make_custom_pearl(d + 1, made.edges, made.root_in, made.root_out)
        assert plain.comb_spacing == d
        terms, n = bloch._sector_terms(plain, True)
        assert terms.dtype == float and n == d
        assert_matches_sector_spectra(plain, 41)
        references = {K: full_spectrum(NecklaceSpec(plain, K)).eigenvalues for K in (3, 8, 600)}

        def refuse(*args):
            raise AssertionError("the eigenvalue-only solve built the complex stack")

        monkeypatch.setattr(bloch, "sector_matrix", refuse)
        for K, reference in references.items():
            assert np.abs(all_sector_eigenvalues(NecklaceSpec(plain, K)) - reference).max() < 1e-12

    @pytest.mark.parametrize("pearl", [
        make_custom_pearl(4, [(1, 2), (1, 3), (1, 4)], 1, 3),      # a star
        make_custom_pearl(4, [(1, 2), (2, 3), (1, 4)], 1, 4),      # comb(3) edges, root on the tooth
        replace(make_comb_pearl(3), root_out=2),                    # comb(3), out-root moved
    ])
    def test_a_two_root_pearl_that_is_no_comb_takes_the_complex_solve(self, pearl):
        assert bloch._sector_terms(pearl, True) is None
        assert_matches_sector_spectra(pearl, 41)

    @pytest.mark.parametrize("d, K", [(2, 16384), (4, 4096), (6, 4096), (8, 2048), (12, 2048)])
    def test_half_rows_split_into_ties_and_genuine_gaps(self, d, K):
        # A tolerance at solver precision (ROADMAP item 1) needs every tie that
        # symmetry forces to be exact and every genuine gap far above
        # eps * max|lambda|.
        values = all_sector_eigenvalues(NecklaceSpec(comb(d), K))[: K // 2 + 1].ravel()
        scale = np.finfo(float).eps * np.abs(values).max()
        diffs = np.diff(np.sort(values))
        assert np.all((diffs == 0) | (diffs >= 1e6 * scale))
        assert np.any(diffs == 0)

    @pytest.mark.parametrize("K", [3, 4, 7, 8, 41])
    def test_conjugate_sectors_are_bitwise_equal(self, custom_pearl, K):
        assert_conjugate_rows_bitwise_equal(custom_pearl, K)

    @pytest.mark.parametrize("d", range(13))
    @pytest.mark.parametrize("K", [3, 4, 7, 8, 41, 600, 4096, 11585])
    def test_comb_conjugate_sectors_are_bitwise_equal(self, d, K):
        assert_conjugate_rows_bitwise_equal(comb(d), K)

    def test_stacked_phase_fix_equals_column_by_column(self, rng):
        stack = rng.normal(size=(6, 5, 5)) + 1j * rng.normal(size=(6, 5, 5))
        stack[1, :, 2] = 0.0                              # zero column stays zero
        stack[2, 3, :] = stack[2, 0, :] * np.exp(0.7j)    # magnitude ties: lowest index
        stack[3, :, 1] *= 1e-300
        fixed = fix_phases(stack)
        eps = np.finfo(float).eps
        for s in range(len(stack)):
            reference = fix_phases_by_column(stack[s])
            assert np.abs(fixed[s] - reference).max() <= 4 * eps * np.abs(stack[s]).max()
            for c in range(stack.shape[2]):
                single = fix_phases(stack[s][:, c:c + 1])[:, 0]
                assert np.abs(fixed[s][:, c] - single).max() <= 4 * eps * np.abs(stack[s]).max()
        assert np.array_equal(fixed[1][:, 2], np.zeros(5))

    def test_lazy_basis_is_the_plane_wave_lift(self, custom_pearl):
        K = 6
        spec = full_spectrum(NecklaceSpec(custom_pearl, K))
        vectors = spec.vectors
        assert spec.vectors is vectors                    # built once, then cached
        for a in range(K * custom_pearl.m):
            k, n = divmod(a, custom_pearl.m)
            lifted = lift(spec.sector_vectors[k][:, n], k, K)
            assert np.array_equal(vectors[:, a], lifted)


def broadcast_stack(terms, n, p):
    """C0 + cos t C1 + sin t C2 by broadcasting, the reference for ``bloch._stack``."""
    c0, c1, c2 = terms
    t = (p / n)[..., None, None]
    y = np.cos(t) * c1
    y += c0
    y += np.sin(t) * c2
    return y


def draw_chiral_pearl(data, max_m=7):
    """A drawn connected pearl, bipartite with its roots in different colour classes.

    Returns the pearl and the class (0 or 1) of each vertex, read off a
    random tree; extra edges only join the two classes.
    """
    m = data.draw(st.integers(2, max_m), label="m")
    tree = [(data.draw(st.integers(1, v - 1)), v) for v in range(2, m + 1)]
    side = [0] * m
    for a, b in tree:
        side[b - 1] = 1 - side[a - 1]
    across = [(a, b) for a in range(1, m + 1) for b in range(a + 1, m + 1)
              if side[a - 1] != side[b - 1] and (a, b) not in tree]
    extra = data.draw(st.lists(st.sampled_from(across), unique=True), label="extra") \
        if across else []
    root_in = data.draw(st.integers(1, m), label="root_in")
    root_out = data.draw(st.sampled_from([v for v in range(1, m + 1)
                                          if side[v - 1] != side[root_in - 1]]), label="root_out")
    return make_custom_pearl(m, tree + extra, root_in, root_out), side


def has_colour_classes(pearl):
    """Brute force over every 2-colouring: does one put each edge and the link across?"""
    links = [*pearl.edges, (pearl.root_in, pearl.root_out)]
    return any(all(c[a - 1] != c[b - 1] for a, b in links)
               for c in itertools.product((0, 1), repeat=pearl.m))


def refuse_eigvalsh(patch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh ran on a route that solves without it")

    patch.setattr(np.linalg, "eigvalsh", refuse)


@pytest.fixture
def eigvalsh_shapes(monkeypatch):
    """Shapes of the stacks passed to ``np.linalg.eigvalsh``, recorded as it runs."""
    shapes, solve = [], np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return shapes


class TestStackProduct:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_stack_is_the_broadcast_sum_bit_for_bit(self, data):
        pearl = draw_connected_pearl(data, max_m=8)
        K = data.draw(st.integers(3, 4096), label="K")
        p = 2.0 * np.pi * np.arange(K // 2 + 1) / K
        forms = [form for form in (bloch._sector_terms(pearl, False),
                                   bloch._sector_terms(pearl, True)) if form is not None]
        for terms, n in forms:
            assert np.array_equal(bloch._stack(terms, n, p), broadcast_stack(terms, n, p))
            for scalar in (p[0], p[1], p[-1]):
                y = bloch._stack(terms, n, np.asarray(scalar))
                assert y.shape == (pearl.m, pearl.m)
                assert np.array_equal(y, broadcast_stack(terms, n, np.asarray(scalar)))

    @pytest.mark.parametrize("d", range(1, 13))
    def test_comb_real_form_is_the_broadcast_sum_bit_for_bit(self, d):
        terms, n = bloch._sector_terms(comb(d), True)
        p = 2.0 * np.pi * np.arange(11585 // 2 + 1) / 11585
        assert np.array_equal(bloch._stack(terms, n, p), broadcast_stack(terms, n, p))


class TestChiralSolve:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_colour_classes_are_those_of_a_brute_force_colouring(self, data):
        pearl = draw_connected_pearl(data)
        classes = bloch._colour_classes(pearl)
        assert (classes is not None) == has_colour_classes(pearl)
        if classes is not None:
            c0, c1 = (set(c + 1) for c in classes)
            assert c0 | c1 == set(range(1, pearl.m + 1)) and not c0 & c1
            for a, b in (*pearl.edges, (pearl.root_in, pearl.root_out)):
                assert (a in c0) != (b in c0)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_chiral_pearls_solve_without_eigvalsh(self, data):
        pearl, side = draw_chiral_pearl(data)
        K = data.draw(st.integers(3, 40), label="K")
        drawn = {frozenset(np.flatnonzero(np.array(side) == c)) for c in (0, 1)}
        assert {frozenset(c) for c in bloch._colour_classes(pearl)} == drawn
        assert_matches_sector_spectra(pearl, K)
        with pytest.MonkeyPatch.context() as patch:
            refuse_eigvalsh(patch)
            table = all_sector_eigenvalues(NecklaceSpec(pearl, K))
        zeros = abs(pearl.m - 2 * sum(side))
        assert np.all(np.count_nonzero(table == 0.0, axis=1) >= zeros)
        assert np.array_equal(table, -table[:, ::-1])                 # bitwise +/- pairs
        assert np.all(np.diff(table, axis=1) >= 0)
        assert not np.signbit(table[table == 0.0]).any()

    @pytest.mark.parametrize("d", [2, 4, 8, 12])
    def test_even_combs_take_the_chiral_solve(self, d, monkeypatch):
        refuse_eigvalsh(monkeypatch)
        table = all_sector_eigenvalues(NecklaceSpec(comb(d), 601))
        assert np.all(np.count_nonzero(table == 0.0, axis=1) >= 1)       # the flat band
        if d == 2:
            s = np.sqrt(3.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(601) / 601))
            assert np.abs(table - np.stack([-s, 0 * s, s], axis=1)).max() < 1e-12

    @pytest.mark.parametrize("pearl", [
        make_custom_pearl(3, [(1, 2), (2, 3)], 2, 2),                  # single root, bipartite graph
        make_comb_pearl(3),                                            # both roots in one class
        make_comb_pearl(5),
        make_custom_pearl(3, [(1, 2), (2, 3), (1, 3)], 1, 2),          # an odd cycle
        make_custom_pearl(4, [(1, 2), (2, 3), (3, 4)], 1, 3),          # the link closes an odd cycle
    ])
    def test_other_pearls_still_call_eigvalsh(self, pearl, eigvalsh_shapes):
        assert bloch._colour_classes(pearl) is None
        all_sector_eigenvalues(NecklaceSpec(pearl, 9))
        assert eigvalsh_shapes == [(5, pearl.m, pearl.m)]


def assert_bitwise_equal(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()        # unlike ==, tells -0.0 from 0.0


@st.composite
def symmetric_2x2_stacks(draw):
    """Real symmetric (n, 2, 2) stacks, each entry +/-0 or +/-x with x in [1e-100, 1e100].

    Rows come in kinds: free entries, equal or opposite diagonals, small
    integers, and an off-diagonal 2^-j times the diagonal, j = 40..60,
    which straddles the split tests at the unit roundoff 2^-53.
    """
    magnitude = st.floats(1e-100, 1e100) | st.floats(-100, 100).map(lambda e: 10.0 ** e)
    entry = st.sampled_from([0.0, -0.0]) | st.builds(lambda x, neg: -x if neg else x,
                                                     magnitude, st.booleans())
    rows = []
    for _ in range(draw(st.integers(1, 24), label="n")):
        kind = draw(st.sampled_from(["free", "equal", "opposite", "integer", "near split"]))
        if kind == "integer":
            a, c, b = (float(draw(st.integers(-4, 4))) for _ in range(3))
        else:
            a, c, b = draw(entry), draw(entry), draw(entry)
        if kind == "equal":
            c = a
        elif kind == "opposite":
            c = -a
        elif kind == "near split":
            b = a * 2.0 ** -draw(st.integers(40, 60))
        rows.append([[a, b], [b, c]])
    return np.array(rows)


class TestSmallSolve:
    """Pearls of one or two vertices without colour classes take :func:`bloch._small_values`."""

    @pytest.mark.parametrize("K", [3, 4, 601, 11585])
    @pytest.mark.parametrize("pearl", [
        make_cycle_pearl(),
        make_comb_pearl(1),                                            # single root
        make_custom_pearl(2, [(1, 2)], 2, 2),                          # single root on the tooth
    ], ids=["cycle", "comb1", "tooth_root"])
    def test_one_and_two_vertex_pearls_skip_eigvalsh_bit_for_bit(self, pearl, K, monkeypatch):
        assert bloch._colour_classes(pearl) is None
        p = 2.0 * np.pi * np.arange(K // 2 + 1) / K
        expected = np.linalg.eigvalsh(bloch._stack(*bloch._sector_terms(pearl, True), p))
        refuse_eigvalsh(monkeypatch)
        table = all_sector_eigenvalues(NecklaceSpec(pearl, K))
        assert np.array_equal(table, bloch._mirror(expected, K))
        assert_bitwise_equal(table[: K // 2 + 1], expected)

    @settings(max_examples=300, deadline=None)
    @given(stack=symmetric_2x2_stacks())
    def test_two_by_two_stacks_are_eigvalsh_bit_for_bit(self, stack):
        """Inside [1e-100, 1e100] neither ``dsyevd`` nor ``dsterf`` rescales a block.

        ``dsterf`` rescales one whose largest entry is above about 2.2e153 or
        below about 1.2e-122 (``dsyevd`` a matrix above about 1e146), and the
        result can then differ in the last bit; sector entries never get near either.
        """
        assert_bitwise_equal(bloch._small_values(stack), np.linalg.eigvalsh(stack))

    def test_one_by_one_stacks_are_their_entries(self):
        stack = np.array([-2.0, -0.0, 0.0, 1e-300, 3.5])[:, None, None]
        assert_bitwise_equal(bloch._small_values(stack), np.linalg.eigvalsh(stack))
