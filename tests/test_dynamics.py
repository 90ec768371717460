import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from necklace_walks import (
    AmbiguousDegeneracyWarning,
    FullSpectrum,
    InvalidParameterError,
    NecklaceSpec,
    NumericalFailureError,
    all_sector_eigenvalues,
    assemble_hamiltonian,
    cycle_limiting,
    default_degeneracy_tolerance,
    degeneracy_partition,
    dynamics,
    evolve_matrix_exponential,
    full_spectrum,
    limiting_distribution,
    make_comb_pearl,
    make_custom_pearl,
    make_cycle_pearl,
    mixing_time,
    probability_at_time,
    quadrature_time_average,
    time_averaged,
    tv_convergence_bound,
    tv_distance,
    vertex_state,
)
from necklace_walks.dynamics import _PairAverager, _SectorAverager

from conftest import draw_connected_pearl


def cycle_setup(K):
    neck = NecklaceSpec(make_cycle_pearl(), K)
    return neck, full_spectrum(neck), vertex_state(neck, 1, 1)


# One root each, so the sector term 2 cos(p_k) sits on vertex 1.
STAR = make_custom_pearl(4, [(1, 2), (1, 3), (1, 4)], 1, 1)
TRIANGLE = make_custom_pearl(3, [(1, 2), (2, 3), (1, 3)], 1, 1)


class TestDegeneracyPartition:
    def test_groups_by_threshold(self):
        part = degeneracy_partition(np.array([0.0, 1e-12, 1.0, 1.0 + 5e-9, 3.0]), 1e-8)
        sizes = sorted(len(g) for g in part.groups)
        assert sizes == [1, 2, 2]

    def test_warns_when_gap_near_threshold(self):
        with pytest.warns(AmbiguousDegeneracyWarning):
            part = degeneracy_partition(np.array([0.0, 5e-8, 1.0]), 1e-8)
        assert part.ambiguous

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, 0.0, -1e-8])
    def test_rejects_tolerance_that_is_not_positive_and_finite(self, tau):
        with pytest.raises(InvalidParameterError):
            degeneracy_partition(np.array([0.0, 1.0]), tau)

    def test_default_tolerance_scale(self):
        # 4096 eps * max|lambda|: solver precision, about 1.8e-12 here.
        assert default_degeneracy_tolerance(np.array([-2.0, 1.0])) == 2 * 4096 * np.finfo(float).eps

    @pytest.mark.parametrize("tau", [None, 1e-9])
    def test_a_sector_by_branch_table_partitions_as_its_ravel(self, tau):
        table = all_sector_eigenvalues(NecklaceSpec(make_comb_pearl(2), 12))
        part, flat = degeneracy_partition(table, tau), degeneracy_partition(table.ravel(), tau)
        assert np.array_equal(part.members, flat.members)       # flat indices k * M + n
        assert np.array_equal(part.bounds, flat.bounds)
        assert part.tau_deg == flat.tau_deg

    @pytest.mark.filterwarnings("error::necklace_walks.AmbiguousDegeneracyWarning")
    def test_default_splits_the_d1_comb_into_its_mirror_pairs_at_K_65536(self):
        # The true structure: sectors 0 and K/2 alone on each branch, every other
        # sector k paired with K - k, so 4 + 2 (K/2 - 1) groups.  The smallest
        # genuine gap, 1.3e-9, lies between such groups.
        K = 65536
        spec = full_spectrum(NecklaceSpec(make_comb_pearl(1), K))
        part = degeneracy_partition(spec.eigenvalues, None)
        assert not part.ambiguous
        assert len(part.bounds) - 1 == K + 2
        sizes = np.diff(part.bounds)
        assert np.count_nonzero(sizes == 1) == 4 and set(sizes.tolist()) == {1, 2}
        pairs = part.members[np.repeat(sizes == 2, sizes)].reshape(-1, 2)
        k = pairs // 2                                          # members are k * M + n
        assert np.array_equal(k.sum(axis=1), np.full(len(k), K))
        assert np.array_equal(pairs[:, 0] % 2, pairs[:, 1] % 2)

    @pytest.mark.filterwarnings("error::necklace_walks.AmbiguousDegeneracyWarning")
    def test_default_keeps_the_d8_flat_band_as_one_group(self):
        # 8192 zero modes, one a sector, then 8 bands of mirror pairs and 16 single levels.
        K = 8192
        spec = full_spectrum(NecklaceSpec(make_comb_pearl(8), K))
        part = degeneracy_partition(spec.eigenvalues, None)
        sizes = np.diff(part.bounds)
        assert len(sizes) == 1 + 8 * (K // 2 - 1) + 16
        (flat,) = [g for g, size in zip(part.groups, sizes) if size > 2]
        assert len(flat) == K
        assert np.abs(spec.eigenvalues.ravel()[flat]).max() < 1e-12

    @pytest.mark.filterwarnings("error::necklace_walks.AmbiguousDegeneracyWarning")
    def test_default_keeps_the_star_pearls_pendant_band_as_one_group(self):
        # Two zero modes a sector on the pendant vertices, then the other two branches
        # in mirror pairs with 4 single levels: 1 + 2 (K/2 - 1) + 4 groups.
        K = 4096
        spec = full_spectrum(NecklaceSpec(STAR, K))
        part = degeneracy_partition(spec.eigenvalues, None)
        sizes = np.diff(part.bounds)
        assert not part.ambiguous
        assert len(sizes) == K + 3
        flat = part.groups[int(np.argmax(sizes))]
        assert len(flat) == 2 * K
        assert np.abs(spec.eigenvalues.ravel()[flat]).max() < 1e-12

    @pytest.mark.filterwarnings("error::necklace_walks.AmbiguousDegeneracyWarning")
    @pytest.mark.parametrize("K, largest", [(8, 10), (10, 10), (12, 14)])
    def test_default_joins_the_triangle_pearls_tie_to_its_flat_band(self, K, largest):
        # The flat band at -1, once a sector, meets the triangle's other -1 at sectors
        # K/4 and 3K/4, where the root's 2 cos(p_k) vanishes, when 4 divides K.
        spec = full_spectrum(NecklaceSpec(TRIANGLE, K))
        part = degeneracy_partition(spec.eigenvalues, None)
        sizes = np.diff(part.bounds)
        assert not part.ambiguous
        assert sizes.max() == largest
        group = part.groups[int(np.argmax(sizes))]
        assert np.abs(spec.eigenvalues.ravel()[group] + 1).max() < 1e-12

    @pytest.mark.filterwarnings("error::necklace_walks.AmbiguousDegeneracyWarning")
    @pytest.mark.parametrize("pearl", ["star", "triangle"])
    @pytest.mark.parametrize("K", [8, 10])
    def test_limiting_matches_dense_projectors(self, pearl, K):
        pearl = {"star": STAR, "triangle": TRIANGLE}[pearl]
        neck = NecklaceSpec(pearl, K)
        values, basis = np.linalg.eigh(assemble_hamiltonian(neck))
        # The dense spectrum's gaps are at least 0.05 here, so any small threshold groups it.
        groups = np.split(np.arange(len(values)), np.flatnonzero(np.diff(values) > 1e-8) + 1)
        spec = full_spectrum(neck)
        for m in range(1, pearl.m + 1):
            phi = vertex_state(neck, 1, m)
            dense = sum(np.abs(basis[:, g] @ (basis[:, g].conj().T @ phi)) ** 2 for g in groups)
            assert np.abs(limiting_distribution(spec, phi) - dense).max() < 1e-12


class TestProbabilityAtTime:
    def test_delta_at_zero_time(self):
        neck, spec, phi = cycle_setup(5)
        p = probability_at_time(spec, phi, 0.0)
        expected = np.zeros(5)
        expected[0] = 1.0
        assert np.abs(p - expected).max() < 1e-12

    def test_eigenvector_is_stationary(self):
        _, spec, _ = cycle_setup(6)
        psi = spec.vectors[:, 2]
        for t in (0.0, 1.3, 20.0):
            p = probability_at_time(spec, psi, t)
            assert np.abs(p - np.abs(psi) ** 2).max() < 1e-12

    def test_matches_matrix_exponential(self):
        neck, spec, phi = cycle_setup(4)
        h = assemble_hamiltonian(neck)
        p_fast = probability_at_time(spec, phi, math.pi / 2)
        p_ref = evolve_matrix_exponential(h, phi, math.pi / 2)
        assert np.abs(p_fast - p_ref).max() < 1e-9

    def test_unit_sum_at_random_times(self, rng):
        neck, spec, phi = cycle_setup(7)
        for t in rng.uniform(0, 50, size=25):
            assert abs(probability_at_time(spec, phi, t).sum() - 1.0) < 1e-10

    def test_rejects_negative_time(self):
        _, spec, phi = cycle_setup(4)
        with pytest.raises(InvalidParameterError):
            probability_at_time(spec, phi, -1.0)

    def test_reflection_symmetry_through_start(self):
        # reflection j -> 2 - j (mod K) fixes the start vertex and is a
        # graph automorphism for the cycle and the d=1 comb
        for pearl in (make_cycle_pearl(), make_comb_pearl(1)):
            neck = NecklaceSpec(pearl, 9)
            spec = full_spectrum(neck)
            phi = vertex_state(neck, 1, 1)
            p = probability_at_time(spec, phi, 2.7)
            for j in range(1, 10):
                mirrored = (2 - j) % 9
                j_ref = mirrored if mirrored >= 1 else mirrored + 9
                for m in range(1, pearl.m + 1):
                    assert abs(
                        p[neck.flat_index(j, m)] - p[neck.flat_index(j_ref, m)]
                    ) < 1e-10


def dense_probability(spec, phi, t):
    """p(t) over the lifted basis: the dense reference for the Bloch-form route."""
    overlaps = spec.vectors.conj().T @ phi
    return np.abs(spec.vectors @ (np.exp(-1j * spec.eigenvalues.ravel() * t) * overlaps)) ** 2


EVOLUTION_TIMES = (0.0, 0.7, 1000.3)


def random_state(rng, n):
    phi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return phi / np.linalg.norm(phi)


def assert_bloch_form_matches_dense(neck, phi):
    spec = full_spectrum(neck)
    for t in EVOLUTION_TIMES:
        p = probability_at_time(spec, phi, t)
        assert np.abs(p - dense_probability(spec, phi, t)).max() < 1e-12


class TestBlochFormEvolution:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_the_dense_route_on_drawn_pearls(self, data):
        pearl = draw_connected_pearl(data)
        K = data.draw(st.integers(3, 16), label="K")
        neck = NecklaceSpec(pearl, K)
        if data.draw(st.booleans(), label="superposition"):
            seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
            phi = random_state(np.random.default_rng(seed), neck.n_vertices)
        else:
            phi = vertex_state(neck, data.draw(st.integers(1, K)),
                               data.draw(st.integers(1, pearl.m)))
        assert_bloch_form_matches_dense(neck, phi)

    @pytest.mark.parametrize("pearl", [
        make_cycle_pearl(),                                         # M = 1
        make_custom_pearl(1, [], root_in=1, root_out=1),
        make_custom_pearl(3, [(1, 2), (2, 3)], root_in=2, root_out=2),   # single root
        make_comb_pearl(2),
    ], ids=["cycle", "one-vertex", "single-root", "comb-2"])
    @pytest.mark.parametrize("K", [3, 8, 11])
    def test_matches_the_dense_route(self, pearl, K, rng):
        neck = NecklaceSpec(pearl, K)
        assert_bloch_form_matches_dense(neck, vertex_state(neck, K, pearl.m))
        assert_bloch_form_matches_dense(neck, random_state(rng, neck.n_vertices))

    def test_never_lifts_the_basis(self, monkeypatch):
        from necklace_walks import bloch

        def refuse(*args, **kwargs):
            raise AssertionError("the dense lifted basis was built")

        monkeypatch.setattr(bloch, "_lift", refuse)
        neck = NecklaceSpec(make_comb_pearl(2), 10)
        p = probability_at_time(full_spectrum(neck), vertex_state(neck, 3, 2), 0.7)
        assert abs(p.sum() - 1.0) < 1e-12

    def test_peak_memory_at_large_k(self):
        # The dense route's basis alone is 16 N^2 = 256 MiB here.
        neck = NecklaceSpec(make_comb_pearl(1), 2048)
        spec = full_spectrum(neck)
        phi = vertex_state(neck, 1, 1)
        tracemalloc.start()
        try:
            p = probability_at_time(spec, phi, 1000.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20
        assert abs(p.sum() - 1.0) < 1e-12


class TestTimeAveraged:
    def test_eigenvector_start_time_independent(self):
        _, spec, _ = cycle_setup(6)
        psi = spec.vectors[:, 1]
        p_inst = probability_at_time(spec, psi, 0.0)
        for T in (0.5, 10.0):
            assert np.abs(time_averaged(spec, psi, T) - p_inst).max() < 1e-12

    def test_long_window_approaches_limit(self):
        _, spec, phi = cycle_setup(8)
        pbar = time_averaged(spec, phi, 1e8)
        pi = limiting_distribution(spec, phi)
        assert np.abs(pbar - pi).max() < 1e-5

    def test_matches_quadrature_oracle(self):
        neck, spec, phi = cycle_setup(6)
        h = assemble_hamiltonian(neck)
        pbar = time_averaged(spec, phi, 10.0)
        # trapezoid with 1e4 steps: discretization error O((T/steps)^2) ~ 1e-6
        quad = quadrature_time_average(h, phi, 10.0, 10_000)
        assert np.abs(pbar - quad).max() < 1e-6

    def test_rejects_nonpositive_window(self):
        _, spec, phi = cycle_setup(4)
        with pytest.raises(InvalidParameterError):
            time_averaged(spec, phi, 0.0)


class TestLimitingDistribution:
    def test_even_cycle_closed_form(self):
        _, spec, phi = cycle_setup(8)
        pi = limiting_distribution(spec, phi)
        expected = np.array([cycle_limiting(8, x, 1) for x in range(1, 9)])
        assert np.abs(pi - expected).max() < 1e-12
        assert pi[0] == pytest.approx(0.21875, abs=1e-12)
        assert pi[4] == pytest.approx(0.21875, abs=1e-12)
        assert pi[1] == pytest.approx(0.09375, abs=1e-12)

    def test_odd_cycle_closed_form(self):
        _, spec, phi = cycle_setup(9)
        pi = limiting_distribution(spec, phi)
        expected = np.array([cycle_limiting(9, x, 1) for x in range(1, 10)])
        assert np.abs(pi - expected).max() < 1e-12
        assert pi[0] == pytest.approx(2 / 9 - 1 / 81, abs=1e-12)

    @pytest.mark.parametrize("shape", [(7,), (9,), (8, 1)])
    def test_start_state_of_wrong_shape_is_refused(self, shape):
        _, spec, _ = cycle_setup(8)
        phi = np.zeros(shape, dtype=complex)
        phi.flat[0] = 1.0
        for call in (lambda: limiting_distribution(spec, phi),
                     lambda: probability_at_time(spec, phi, 1.0)):
            with pytest.raises(InvalidParameterError, match=r"expected \(8,\)"):
                call()

    def test_invariant_under_degenerate_basis_change(self, rng):
        neck = NecklaceSpec(make_comb_pearl(1), 8)
        spec = full_spectrum(neck)
        phi = vertex_state(neck, 2, 1)
        pi = limiting_distribution(spec, phi)

        vectors = spec.vectors.copy()
        part = degeneracy_partition(
            spec.eigenvalues, default_degeneracy_tolerance(spec.eigenvalues)
        )
        for group in part.groups:
            if len(group) < 2:
                continue
            raw = rng.normal(size=(len(group), len(group))) + 1j * rng.normal(
                size=(len(group), len(group))
            )
            q, _ = np.linalg.qr(raw)
            vectors[:, group] = vectors[:, group] @ q
        scrambled = _PairAverager(spec.eigenvalues, vectors, phi, None)
        assert np.abs(scrambled.limiting - pi).max() < 1e-10


class TestTvDistance:
    def test_zero_on_equal(self):
        p = np.array([0.5, 0.5])
        assert tv_distance(p, p) == 0.0

    def test_disjoint_deltas(self):
        assert tv_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 2.0

    def test_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            tv_distance(np.zeros(3), np.zeros(4))


class TestConvergenceBound:
    def test_dominates_exact_distance(self):
        _, spec, phi = cycle_setup(8)
        pi = limiting_distribution(spec, phi)
        for T in (10.0, 1000.0):
            tv = tv_distance(time_averaged(spec, phi, T), pi)
            assert tv_convergence_bound(spec, phi, T) >= tv

    def test_exact_inverse_t_scaling(self):
        _, spec, phi = cycle_setup(6)
        b1 = tv_convergence_bound(spec, phi, 50.0)
        b2 = tv_convergence_bound(spec, phi, 100.0)
        assert b2 == pytest.approx(b1 / 2.0, rel=1e-12)

    def test_eigenvector_start_single_overlap(self):
        _, spec, _ = cycle_setup(16)
        psi = spec.vectors[:, 0]
        gaps = np.abs(spec.eigenvalues - spec.eigenvalues[0, 0])
        gap = gaps[gaps > 1e-8].min()
        T = 100.0
        bound = tv_convergence_bound(spec, psi, T)
        assert bound <= 2.0 * gaps.size / (T * gap) + 1e-12

    def test_dominance_comb_k16(self):
        neck = NecklaceSpec(make_comb_pearl(1), 16)
        spec = full_spectrum(neck)
        phi = vertex_state(neck, 1, 1)
        pi = limiting_distribution(spec, phi)
        T = 1000.0
        tv = tv_distance(time_averaged(spec, phi, T), pi)
        assert tv_convergence_bound(spec, phi, T) >= tv


class TestMixingTime:
    def test_epsilon_two_is_first_grid_point(self):
        _, spec, phi = cycle_setup(5)
        result = mixing_time(spec, phi, 2.0, t_hi=100.0, t_lo=1.0)
        assert result.t_mix == 1.0

    def test_fine_grid_agreement(self):
        # coarse (1.05) and fine (1.005) grids must land within one coarse step
        _, spec, phi = cycle_setup(8)
        coarse = mixing_time(spec, phi, 0.1, t_hi=1e5, ratio=1.05)
        fine = mixing_time(spec, phi, 0.1, t_hi=1e5, ratio=1.005)
        assert coarse.found and fine.found
        assert abs(math.log(coarse.t_mix / fine.t_mix)) <= math.log(1.05) + 1e-9

    def test_not_found_reports_tv(self):
        _, spec, phi = cycle_setup(8)
        result = mixing_time(spec, phi, 1e-6, t_hi=10.0)
        assert not result.found
        assert result.t_mix is None
        assert result.tv_at_hi > 1e-6

    def test_rejects_bad_epsilon(self):
        _, spec, phi = cycle_setup(4)
        with pytest.raises(InvalidParameterError):
            mixing_time(spec, phi, 0.0, t_hi=10.0)

    @pytest.mark.parametrize("t_lo, t_hi, ratio", [
        (1.0, math.inf, 1.05),
        (math.nan, 10.0, 1.05),
        (1.0, math.nan, 1.05),
        (1.0, 10.0, math.nan),
        (1.0, 10.0, math.inf),
        (1e-300, 1e300, 1.05),          # t_hi / t_lo overflows
        (5e-324, 1e5, 1.05),
    ])
    def test_grid_rejects_non_finite_values(self, t_lo, t_hi, ratio):
        with pytest.raises(InvalidParameterError):
            dynamics.geometric_grid(t_lo, t_hi, ratio)


EQUIVALENCE_TIMES = (1e-6, 1e-3, 0.37, 1.0, 37.0, 1e5, 1e8)


def dense_averager(spec, phi):
    """The dense reference pair sum over the lifted basis."""
    return _PairAverager(spec.eigenvalues, spec.vectors, phi, None)


def dense_mixing(spec, phi, result):
    """TV at each T of ``result.grid``, t_mix by the same rule and bound(1), densely."""
    dense = dense_averager(spec, phi)
    tvs = np.array([np.abs(dense.averaged(T) - dense.limiting).sum() for T in result.grid])
    ok_from_here = np.minimum.accumulate((tvs <= result.epsilon)[::-1])[::-1]
    t_mix = float(result.grid[np.argmax(ok_from_here)]) if ok_from_here.any() else None
    return tvs, t_mix, dense.bound(1.0)


def assert_routes_agree(spec, phi):
    """Sector-pair and dense averagers agree on pi, pbar(T) and the bound."""
    sector = _SectorAverager(spec, phi, None)
    dense = dense_averager(spec, phi)
    assert np.abs(sector.limiting - dense.limiting).max() < 1e-12
    for T in EQUIVALENCE_TIMES:
        assert np.abs(sector.averaged(T) - dense.averaged(T)).max() < 1e-12
        assert sector.bound(T) == pytest.approx(dense.bound(T), rel=1e-12)
    return sector


def assert_mixing_agrees(spec, phi, ratio=1.05):
    sector = mixing_time(spec, phi, 0.1, t_hi=1e5, ratio=ratio)
    tvs, t_mix, bound_at_unit = dense_mixing(spec, phi, sector)
    assert np.abs(sector.tv_values - tvs).max() < 1e-12
    assert sector.t_mix == t_mix
    assert sector.bound_at_unit == pytest.approx(bound_at_unit, rel=1e-12)


class TestSectorRoute:
    @pytest.mark.parametrize("pearl, K, start", [
        (make_cycle_pearl(), 40, (7, 1)),
        (make_comb_pearl(1), 20, (3, 2)),
        (make_comb_pearl(2), 24, (5, 3)),     # flat band: one group of K members
    ])
    def test_vertex_starts(self, pearl, K, start):
        neck = NecklaceSpec(pearl, K)
        spec = full_spectrum(neck)
        phi = vertex_state(neck, *start)
        assert_routes_agree(spec, phi)
        assert_mixing_agrees(spec, phi)

    def test_custom_pearl_vertex_start(self, custom_pearl):
        neck = NecklaceSpec(custom_pearl, 9)
        spec = full_spectrum(neck)
        phi = vertex_state(neck, 2, 3)
        assert_routes_agree(spec, phi)
        assert_mixing_agrees(spec, phi)

    def test_near_pairs_take_the_exact_kernel(self):
        # d=1, K=96 has cross-group pairs closer than the guard threshold
        neck = NecklaceSpec(make_comb_pearl(1), 96)
        spec = full_spectrum(neck)
        phi = vertex_state(neck, 6, 1)
        sector = assert_routes_agree(spec, phi)
        assert len(sector._pair_tables(0, sector.half)["near_q"]) > 0
        assert_mixing_agrees(spec, phi, ratio=1.3)

    def test_superposition_start(self, rng):
        neck = NecklaceSpec(make_comb_pearl(2), 12)
        spec = full_spectrum(neck)
        phi = rng.normal(size=neck.n_vertices) + 1j * rng.normal(size=neck.n_vertices)
        phi /= np.linalg.norm(phi)
        assert_routes_agree(spec, phi)
        assert_mixing_agrees(spec, phi)

    def test_eigenvector_start(self):
        neck = NecklaceSpec(make_comb_pearl(1), 10)
        spec = full_spectrum(neck)
        psi = spec.vectors[:, 3]
        sector = assert_routes_agree(spec, psi)
        assert np.abs(sector.averaged(5.0) - np.abs(psi) ** 2).max() < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_connected_pearls(self, data):
        m = data.draw(st.integers(1, 6), label="m")
        tree = [(data.draw(st.integers(1, v - 1)), v) for v in range(2, m + 1)]
        others = [(a, b) for a in range(1, m + 1) for b in range(a + 1, m + 1)
                  if (a, b) not in tree]
        extra = data.draw(st.lists(st.sampled_from(others), unique=True), label="extra") \
            if others else []
        roots = data.draw(st.tuples(st.integers(1, m), st.integers(1, m)), label="roots")
        pearl = make_custom_pearl(m, tree + extra, *roots)
        K = data.draw(st.integers(3, 40), label="K")
        neck = NecklaceSpec(pearl, K)
        start = data.draw(st.tuples(st.integers(1, K), st.integers(1, m)), label="start")
        assert_routes_agree(full_spectrum(neck), vertex_state(neck, *start))


def partition_by_loop(eigenvalues, tau_deg):
    """The sorted sweep that degeneracy_partition ran before it was vectorized."""
    order = np.argsort(eigenvalues, kind="stable")
    lam_sorted = eigenvalues[order]
    groups, start, ambiguous = [], 0, False
    for i in range(1, len(lam_sorted) + 1):
        if i == len(lam_sorted) or lam_sorted[i] - lam_sorted[i - 1] > tau_deg:
            groups.append(np.sort(order[start:i]))
            if i < len(lam_sorted) and lam_sorted[i] - lam_sorted[i - 1] <= 10.0 * tau_deg:
                ambiguous = True
            start = i
    return groups, ambiguous


def group_id_by_loop(groups):
    gid = np.empty(sum(len(g) for g in groups), dtype=int)
    for i, g in enumerate(groups):
        gid[g] = i
    return gid


def assert_layout_matches(part, groups):
    """members lists the groups back to back; bounds marks where each starts and ends."""
    assert part.bounds.tolist() == np.cumsum([0, *map(len, groups)]).tolist()
    assert part.members.tolist() == [i for g in groups for i in g.tolist()]


def same_group_sum_by_loop(averager):
    """_SectorAverager._same_group_sum as a loop over groups, bucketed by size."""
    K, M = averager.K, averager.M
    amps = averager.amps.reshape(K * M, M)
    sector = np.repeat(np.arange(K), M)
    s = np.zeros((K, M), dtype=complex)
    by_size = {}
    for group in averager.partition.groups:
        by_size.setdefault(len(group), []).append(group)
    for size, groups in by_size.items():
        idx = np.array(groups)
        if size * size <= K:
            q = (sector[idx][:, :, None] - sector[idx][:, None, :]) % K
            terms = amps[idx][:, :, None, :] * amps[idx][:, None, :, :].conj()
            np.add.at(s, q.ravel(), terms.reshape(-1, M))
        else:
            z = np.zeros((len(groups), K, M), dtype=complex)
            np.add.at(z, (np.arange(len(groups))[:, None], sector[idx]), amps[idx])
            s += np.fft.ifft(np.abs(np.fft.fft(z, axis=1)) ** 2, axis=1).sum(axis=0)
    return s[: averager.half]


def pendant_pair_pearl():
    """Vertices 3 and 4 hang off vertex 2: e3 - e4 is a flat band at 0."""
    return make_custom_pearl(4, [(1, 2), (2, 3), (2, 4)], root_in=1, root_out=2)


class TestVectorizedPartition:
    # Steps between sorted values, in units of tau = 2^-10: ties, steps
    # inside a group, gaps of exactly tau and 10 tau, and genuine gaps.
    # Every value is a small multiple of 2^-11, so each difference is exact.
    STEPS = (0.0, 0.5, 1.0, 3.0, 10.0, 10.5, 40.0)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_the_sorted_sweep(self, data):
        tau = 2.0 ** -10
        steps = data.draw(st.lists(st.sampled_from(self.STEPS), max_size=40), label="steps")
        start = data.draw(st.integers(-2000, 2000), label="start") * tau
        values = start + tau * np.cumsum([0.0, *steps])
        values = np.array(data.draw(st.permutations(values.tolist()), label="order"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            part = degeneracy_partition(values, tau)
        groups, ambiguous = partition_by_loop(values, tau)
        assert len(part.groups) == len(groups)
        for got, want in zip(part.groups, groups):
            assert np.array_equal(got, want)
        assert part.ambiguous == ambiguous
        warned = any(issubclass(w.category, AmbiguousDegeneracyWarning) for w in caught)
        assert warned == ambiguous
        assert np.array_equal(part.group_id, group_id_by_loop(groups))
        assert_layout_matches(part, groups)

    def test_gap_of_exactly_tau_joins_and_ten_tau_is_ambiguous(self):
        tau = 2.0 ** -10
        with pytest.warns(AmbiguousDegeneracyWarning):
            part = degeneracy_partition(np.array([0.0, tau, 11 * tau]), tau)
        assert [g.tolist() for g in part.groups] == [[0, 1], [2]]
        assert part.ambiguous

    SAME_GROUP_CASES = [
        (make_comb_pearl(2), 16, (5, 3)),     # flat band: one group of K > sqrt(K) members
        (pendant_pair_pearl(), 12, (4, 3)),
        (pendant_pair_pearl(), 9, (2, 1)),
    ]

    @pytest.mark.parametrize("pearl, K, start", SAME_GROUP_CASES)
    def test_same_group_sum_matches_the_group_loop(self, pearl, K, start):
        neck = NecklaceSpec(pearl, K)
        spec = full_spectrum(neck)
        averager = _SectorAverager(spec, vertex_state(neck, *start), None)
        sizes = np.diff(averager.partition.bounds)
        assert sizes.max() ** 2 > K and sizes.min() ** 2 <= K     # both branches run
        assert_layout_matches(averager.partition, averager.partition.groups)
        assert np.array_equal(averager._same_group_sum(), same_group_sum_by_loop(averager))

    @pytest.mark.parametrize("pearl, K, start", SAME_GROUP_CASES)
    def test_same_group_sum_in_chunks_of_one_group_matches_the_group_loop(
            self, pearl, K, start, monkeypatch):
        neck = NecklaceSpec(pearl, K)
        averager = _SectorAverager(full_spectrum(neck), vertex_state(neck, *start), None)
        sizes = np.diff(averager.partition.bounds)
        listed = sizes[sizes ** 2 <= K]
        # Every pair-list bucket holds two or more groups, so one group a chunk splits each.
        assert all(np.count_nonzero(listed == size) > 1 for size in listed)
        monkeypatch.setattr(dynamics, "PAIR_CHUNK_BYTES", 1)
        assert np.array_equal(averager._same_group_sum(), same_group_sum_by_loop(averager))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_same_group_sum_matches_the_group_loop_on_drawn_pearls(self, data):
        pearl = draw_connected_pearl(data)
        K = data.draw(st.integers(3, 24), label="K")
        neck = NecklaceSpec(pearl, K)
        spec = full_spectrum(neck)
        start = (data.draw(st.integers(1, K)), data.draw(st.integers(1, pearl.m)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AmbiguousDegeneracyWarning)
            averager = _SectorAverager(spec, vertex_state(neck, *start), None)
        assert np.array_equal(averager._same_group_sum(), same_group_sum_by_loop(averager))


def custom_four_vertex_pearl():
    return make_custom_pearl(4, [(1, 2), (2, 3), (3, 4), (1, 3)], root_in=1, root_out=4)


GRID_CASES = [
    (make_cycle_pearl(), 40, (7, 1)),
    (make_comb_pearl(1), 24, (3, 2)),
    (make_comb_pearl(2), 16, (5, 3)),     # flat band: one group of K members
    (custom_four_vertex_pearl(), 9, (2, 3)),
]
# GRID_CASES have no near pair; d=1 K=96 has 6, so near pairs meet the
# SMALL_DT switch and one-q, one-T chunks.
NEAR_PAIR_CASE = (make_comb_pearl(1), 96, (6, 1))


def assert_near_pairs_only_in_near_case(spec, phi):
    averager = _SectorAverager(spec, phi, None)
    near = len(averager._pair_tables(0, averager.half)["near_q"]) > 0
    assert near == (spec.necklace.K == NEAR_PAIR_CASE[1])


class TestBoundWithoutPairTables:
    @pytest.mark.parametrize("pearl, K, start", GRID_CASES)
    def test_bound_and_limit_build_no_pair_table(self, pearl, K, start, monkeypatch):
        neck = NecklaceSpec(pearl, K)
        spec = full_spectrum(neck)
        phi = vertex_state(neck, *start)
        dense = dense_averager(spec, phi)

        def refuse(*args, **kwargs):
            raise AssertionError("pair tables were built")

        monkeypatch.setattr(_SectorAverager, "_pair_tables", refuse)
        for T in (1.0, 37.0):
            bound = tv_convergence_bound(spec, phi, T)
            assert bound == pytest.approx(dense.bound(T), rel=1e-12)
        assert np.abs(limiting_distribution(spec, phi) - dense.limiting).max() < 1e-12


class TestGridRoute:
    @pytest.mark.parametrize("pearl, K, start", GRID_CASES + [NEAR_PAIR_CASE])
    @pytest.mark.parametrize("pair_bytes, phase_bytes", [(1, 1), (1 << 17, 1 << 16)])
    def test_chunk_budgets_leave_tv_unchanged(self, pearl, K, start, pair_bytes,
                                              phase_bytes, monkeypatch):
        # (1, 1) is one q and one T per chunk; the other pair gives ragged chunks.
        neck = NecklaceSpec(pearl, K)
        spec = full_spectrum(neck)
        phi = vertex_state(neck, *start)
        assert_near_pairs_only_in_near_case(spec, phi)
        kwargs = dict(t_hi=1e5, t_lo=1e-5, ratio=1.3)
        default = mixing_time(spec, phi, 0.1, **kwargs)
        monkeypatch.setattr(dynamics, "PAIR_CHUNK_BYTES", pair_bytes)
        monkeypatch.setattr(dynamics, "PHASE_CHUNK_BYTES", phase_bytes)
        chunked = mixing_time(spec, phi, 0.1, **kwargs)
        assert np.abs(chunked.tv_values - default.tv_values).max() < 1e-13
        assert chunked.t_mix == default.t_mix
        assert chunked.bound_at_unit == pytest.approx(default.bound_at_unit, rel=1e-13)

    @pytest.mark.parametrize("pearl, K, start", GRID_CASES + [NEAR_PAIR_CASE])
    def test_grid_across_small_dt_matches_dense(self, pearl, K, start):
        neck = NecklaceSpec(pearl, K)
        spec = full_spectrum(neck)
        phi = vertex_state(neck, *start)
        assert_near_pairs_only_in_near_case(spec, phi)
        kwargs = dict(t_hi=1e3, t_lo=1e-6, ratio=1.2)
        sector = mixing_time(spec, phi, 0.1, **kwargs)
        tvs, t_mix, _ = dense_mixing(spec, phi, sector)
        averager = _SectorAverager(spec, phi, None)
        exact = averager.delta * sector.grid < averager.SMALL_DT
        assert exact.any() and not exact.all()
        assert np.abs(sector.tv_values - tvs).max() < 1e-12
        assert sector.t_mix == t_mix

    def test_close_cross_group_gap_matches_dense(self):
        # Sector 2's lowest eigenvalue, and its mirror's in sector 10, moved to
        # 1e-6 above sector 3's: a cross-group pair about 40 tau_deg apart, on
        # which the factored phase would lose about eps / (1e-6 T).
        neck = NecklaceSpec(make_comb_pearl(1), 12)
        spec = full_spectrum(neck)
        lam = spec.eigenvalues.copy()
        lam[[2, 10], 0] = lam[3, 0] + 1e-6
        moved = FullSpectrum(neck, lam, spec.sector_vectors)
        phi = vertex_state(neck, 1, 1)
        sector = mixing_time(moved, phi, 0.1, t_hi=1e5, t_lo=1e-6, ratio=1.2)
        tvs, t_mix, _ = dense_mixing(moved, phi, sector)
        assert np.abs(sector.tv_values - tvs).max() < 1e-12
        assert sector.t_mix == t_mix

    def test_any_grid_order_gives_the_single_t_rows(self):
        neck = NecklaceSpec(make_comb_pearl(1), 12)
        averager = _SectorAverager(full_spectrum(neck), vertex_state(neck, 4, 1), None)
        grid = np.array([37.0, 1e-3, 1e5, 0.37])
        rows = averager.averaged_grid(grid)
        for T, row in zip(grid, rows):
            assert np.abs(row - averager.averaged(T)).max() < 1e-13
        with pytest.raises(InvalidParameterError):
            averager.averaged_grid(np.array([1.0, 0.0]))

    @pytest.mark.parametrize("pearl, K", [
        (make_comb_pearl(1), 24),
        (make_comb_pearl(2), 16),
        (make_cycle_pearl(), 40),
    ])
    def test_all_near_pairs_on_a_long_grid_stay_in_budget(self, pearl, K, monkeypatch):
        # NEAR_GAP_REL = 10 makes every cross pair near, so every phase of a
        # 3695-point grid goes through expm1: that must stay a span at a time.
        neck = NecklaceSpec(pearl, K)
        spec = full_spectrum(neck)
        phi = vertex_state(neck, 1, 1)
        kwargs = dict(t_hi=1e5, t_lo=1e-3, ratio=1.005)
        default = mixing_time(spec, phi, 0.1, **kwargs)
        monkeypatch.setattr(_SectorAverager, "NEAR_GAP_REL", 10.0)
        averager = _SectorAverager(spec, phi, None)
        tables = averager._pair_tables(0, averager.half)
        assert len(tables["near_q"]) > 0 and not tables["total"].any()
        tracemalloc.start()
        try:
            near = mixing_time(spec, phi, 0.1, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(near.grid) == 3695
        assert np.abs(near.tv_values - default.tv_values).max() < 1e-13
        assert near.t_mix == default.t_mix
        budget = dynamics.PAIR_CHUNK_BYTES + dynamics.PHASE_CHUNK_BYTES
        assert peak < budget + 48 * len(near.grid) * neck.n_vertices

    def test_peak_memory_is_below_the_whole_pair_table(self):
        neck = NecklaceSpec(make_comb_pearl(1), 400)
        spec = full_spectrum(neck)
        phi = vertex_state(neck, 5, 1)
        M, N = neck.pearl.m, neck.n_vertices
        tracemalloc.start()
        try:
            result = mixing_time(spec, phi, 0.1, t_hi=1e4, ratio=1.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.grid) == 24
        assert peak < (8 * M + 12) * N * N / 4


FOLD_PEARLS = [make_cycle_pearl(), make_comb_pearl(1), make_comb_pearl(2),
               custom_four_vertex_pearl()]


def fold_start(neck, spec, start):
    if start == "vertex":
        return vertex_state(neck, 2, neck.pearl.m)
    if start == "superposition":
        rng = np.random.default_rng(neck.K)
        phi = rng.normal(size=neck.n_vertices) + 1j * rng.normal(size=neck.n_vertices)
        return phi / np.linalg.norm(phi)
    return spec.vectors[:, neck.pearl.m]          # branch 0 of sector k = 1


class TestMirrorFold:
    # K = 3..8 covers both parities of q, columns that are their own mirror
    # (q even; and q odd for odd K) and the column whose mirror is also in
    # the window (q odd, K even).
    @pytest.mark.parametrize("start", ["vertex", "superposition", "eigenvector"])
    @pytest.mark.parametrize("pearl", FOLD_PEARLS, ids=["cycle", "d1", "d2", "custom"])
    @pytest.mark.parametrize("K", range(3, 9))
    def test_small_rings_match_the_dense_sum(self, K, pearl, start):
        neck = NecklaceSpec(pearl, K)
        spec = full_spectrum(neck)
        phi = fold_start(neck, spec, start)
        assert_routes_agree(spec, phi)
        assert_mixing_agrees(spec, phi)

    @pytest.mark.parametrize("pair_bytes", [dynamics.PAIR_CHUNK_BYTES, 1])
    @pytest.mark.parametrize("pearl, K", [
        (make_cycle_pearl(), 40),
        (make_comb_pearl(1), 9),
        (make_comb_pearl(2), 16),
        (custom_four_vertex_pearl(), 7),
    ])
    def test_tables_hold_one_pair_per_couple(self, pearl, K, pair_bytes, monkeypatch):
        neck = NecklaceSpec(pearl, K)
        averager = _SectorAverager(full_spectrum(neck), vertex_state(neck, 1, 1), None)
        build = _SectorAverager._pair_tables
        entries = []

        def counting(self, *args):
            tables = build(self, *args)
            entries.append((tables["gaps"].size, tables["weights"].size))
            return tables

        monkeypatch.setattr(_SectorAverager, "_pair_tables", counting)
        monkeypatch.setattr(dynamics, "PAIR_CHUNK_BYTES", pair_bytes)
        averager.averaged_grid(np.array([1e-6, 0.5, 40.0]))
        M, half = pearl.m, K // 2 + 1
        assert entries
        assert sum(g for g, _ in entries) <= half * half * M * M
        assert sum(w for _, w in entries) <= 2 * M * half * half * M * M

    def test_spectrum_without_the_mirror_is_refused(self):
        neck = NecklaceSpec(make_comb_pearl(1), 8)
        spec = full_spectrum(neck)
        values = spec.eigenvalues.copy()
        values[3, 0] = np.nextafter(values[3, 0], np.inf)          # sector 3, not sector 5
        broken = FullSpectrum(spec.necklace, values, spec.sector_vectors)
        with pytest.raises(InvalidParameterError):
            limiting_distribution(broken, vertex_state(neck, 1, 1))


class TestNonFiniteTimes:
    @pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf])
    def test_every_entry_point_refuses(self, T):
        neck = NecklaceSpec(make_comb_pearl(1), 8)
        spec = full_spectrum(neck)
        phi = vertex_state(neck, 1, 1)
        with pytest.raises(InvalidParameterError):
            time_averaged(spec, phi, T)
        with pytest.raises(InvalidParameterError):
            _SectorAverager(spec, phi, None).averaged_grid(np.array([1.0, T, 3.0]))
        with pytest.raises(InvalidParameterError):
            tv_convergence_bound(spec, phi, T)
        with pytest.raises(InvalidParameterError):
            probability_at_time(spec, phi, T)

    @pytest.mark.parametrize("p", [
        np.array([0.5, math.nan, 0.5]),
        np.array([[0.5, 0.5], [math.nan, 1.0]]),
        np.array([[0.5, 0.5], [0.25, math.nan]]),
    ])
    def test_distribution_with_a_nan_is_refused(self, p):
        with pytest.raises(NumericalFailureError):
            dynamics._finalize_distribution(p)
