import json

import numpy as np
import pytest

from necklace_walks import (
    InvalidParameterError,
    InvalidPearlError,
    NecklaceSpec,
    assemble_hamiltonian,
    load_pearl_file,
    make_comb_pearl,
    make_custom_pearl,
    make_cycle_pearl,
    pearl_from_json,
)


class TestCombPearl:
    def test_d1(self):
        pearl = make_comb_pearl(1)
        assert pearl.m == 2
        assert pearl.edges == frozenset({(1, 2)})
        assert pearl.root_in == pearl.root_out == 1
        assert pearl.single_root

    def test_d2(self):
        pearl = make_comb_pearl(2)
        assert pearl.m == 3
        assert pearl.edges == frozenset({(1, 2), (1, 3)})
        assert (pearl.root_in, pearl.root_out) == (1, 2)
        assert not pearl.single_root

    def test_d3(self):
        pearl = make_comb_pearl(3)
        assert pearl.m == 4
        assert pearl.edges == frozenset({(1, 2), (2, 3), (1, 4)})
        assert (pearl.root_in, pearl.root_out) == (1, 3)

    def test_invalid_d(self):
        with pytest.raises(InvalidParameterError):
            make_comb_pearl(0)


class TestCyclePearl:
    def test_shape(self):
        pearl = make_cycle_pearl()
        assert pearl.m == 1
        assert pearl.edges == frozenset()
        assert pearl.single_root

    def test_triangle(self):
        h = assemble_hamiltonian(NecklaceSpec(make_cycle_pearl(), 3))
        assert np.array_equal(h, np.ones((3, 3)) - np.eye(3))

    def test_four_cycle_is_two_regular(self):
        h = assemble_hamiltonian(NecklaceSpec(make_cycle_pearl(), 4))
        assert h[0, 1] == h[1, 2] == h[2, 3] == h[3, 0] == 1.0
        assert np.array_equal(h.sum(axis=0), np.full(4, 2.0))


class TestCustomPearl:
    def test_comb1_equivalent(self):
        pearl = make_custom_pearl(2, [(1, 2)], 1, 1)
        assert pearl.single_root
        assert pearl.edges == make_comb_pearl(1).edges

    def test_cycle_equivalent(self):
        pearl = make_custom_pearl(1, [], 1, 1)
        assert pearl.m == 1 and pearl.single_root

    @pytest.mark.parametrize(
        "m,edges,ri,ro,fragment",
        [
            (3, [(1, 1)], 1, 3, "self-loop"),
            (3, [(1, 4)], 1, 3, "outside"),
            (3, [(1, 2), (2, 1)], 1, 3, "duplicate"),
            (3, [(1, 2)], 0, 3, "root_in"),
            (3, [(1, 2)], 1, 5, "root_out"),
            (0, [], 1, 1, "at least one vertex"),
        ],
    )
    def test_validation(self, m, edges, ri, ro, fragment):
        with pytest.raises(InvalidPearlError, match=fragment):
            make_custom_pearl(m, edges, ri, ro)


def zero_based(pearl):
    return {"m": pearl.m, "edges": [[a - 1, b - 1] for a, b in sorted(pearl.edges)],
            "root_in": pearl.root_in - 1, "root_out": pearl.root_out - 1}


class TestCombSpacing:
    @pytest.mark.parametrize("d", range(13))
    def test_read_from_the_graph_however_built(self, d):
        made = make_cycle_pearl() if d == 0 else make_comb_pearl(d)
        plain = make_custom_pearl(made.m, sorted(made.edges, reverse=True), made.root_in,
                                  made.root_out)
        for pearl in (made, plain, pearl_from_json(zero_based(made))):
            assert pearl == made and pearl.comb_spacing == d

    @pytest.mark.parametrize("pearl", [
        make_custom_pearl(4, [(1, 2), (2, 3), (1, 4)], 1, 2),              # comb(3), out-root moved
        make_custom_pearl(4, [(1, 2), (2, 3), (1, 4)], 1, 4),              # out-root on the tooth
        make_custom_pearl(4, [(1, 2), (2, 3), (1, 4), (3, 4)], 1, 3),      # comb(3) plus one edge
        make_custom_pearl(3, [(1, 2), (1, 3), (2, 3)], 1, 2),              # comb(2) plus one edge
        make_custom_pearl(4, [(1, 2), (1, 3), (1, 4)], 1, 3),              # a star
        make_custom_pearl(4, [(1, 4), (3, 4), (1, 2)], 1, 3),              # comb(3) relabelled
        make_custom_pearl(2, [(1, 2)], 2, 2),                              # comb(1) relabelled
        make_custom_pearl(3, [(1, 2)], 1, 2),                              # comb(2) less an edge
    ])
    def test_near_misses_are_no_comb(self, pearl):
        assert pearl.comb_spacing is None
        assert [pearl.vertex_kind(m) for m in range(1, pearl.m + 1)] == [
            f"v{m}" for m in range(pearl.m)]

    def test_no_comb_is_built_unless_edges_and_out_root_allow_one(self, monkeypatch):
        from necklace_walks import graphs

        path = make_custom_pearl(41, [(i, i + 1) for i in range(1, 41)], 1, 41)
        monkeypatch.setattr(graphs, "make_comb_pearl", None)     # a call would raise
        assert path.comb_spacing is None

    def test_vertex_kinds(self):
        assert make_cycle_pearl().vertex_kind(1) == "base"
        assert [make_comb_pearl(3).vertex_kind(m) for m in (1, 2, 3, 4)] == [
            "base", "base", "base", "tooth"]
        assert pearl_from_json({"m": 2, "edges": [[0, 1]], "root_in": 0,
                                "root_out": 0}).vertex_kind(2) == "tooth"


class TestNecklace:
    def test_k_must_be_at_least_three(self):
        with pytest.raises(InvalidParameterError):
            NecklaceSpec(make_cycle_pearl(), 2)

    def test_flat_index(self):
        neck = NecklaceSpec(make_comb_pearl(2), 4)
        assert neck.flat_index(1, 1) == 0
        assert neck.flat_index(2, 1) == 3
        assert neck.flat_index(4, 3) == 11
        with pytest.raises(InvalidParameterError):
            neck.flat_index(5, 1)
        for m in (0, 4):
            with pytest.raises(InvalidParameterError, match=rf"vertex index m={m} outside"):
                neck.flat_index(1, m)


class TestAssembleHamiltonian:
    def test_five_cycle(self):
        h = assemble_hamiltonian(NecklaceSpec(make_cycle_pearl(), 5))
        assert np.array_equal(h.sum(axis=0), np.full(5, 2.0))
        assert np.array_equal(h, h.T)

    def test_comb1_k3_degrees(self):
        # bases carry two ring links plus the tooth; teeth hang alone
        neck = NecklaceSpec(make_comb_pearl(1), 3)
        h = assemble_hamiltonian(neck)
        assert h.shape == (6, 6)
        degrees = h.sum(axis=0)
        for j in range(1, 4):
            assert degrees[neck.flat_index(j, 1)] == 3.0
            assert degrees[neck.flat_index(j, 2)] == 1.0

    def test_symmetric_binary_zero_diagonal(self, custom_pearl):
        for pearl in (make_cycle_pearl(), make_comb_pearl(3), custom_pearl):
            neck = NecklaceSpec(pearl, 5)
            h = assemble_hamiltonian(neck)
            assert np.array_equal(h, h.T)
            assert set(np.unique(h)) <= {0.0, 1.0}
            assert np.all(np.diag(h) == 0.0)

    def test_edge_count(self, custom_pearl):
        for pearl, K in ((make_comb_pearl(2), 6), (custom_pearl, 4)):
            h = assemble_hamiltonian(NecklaceSpec(pearl, K))
            upper = np.triu(h).sum()
            assert upper == K * len(pearl.edges) + K

    def test_relabeling_preserves_spectrum(self):
        # permute interior vertices of the d=3 pearl while keeping root roles
        original = make_comb_pearl(3)  # path 1-2-3, tooth 4 on vertex 1
        relabeled = make_custom_pearl(4, [(1, 4), (4, 3), (1, 2)], 1, 3)  # 2 <-> 4
        for K in (3, 6):
            h1 = assemble_hamiltonian(NecklaceSpec(original, K))
            h2 = assemble_hamiltonian(NecklaceSpec(relabeled, K))
            e1 = np.linalg.eigvalsh(h1)
            e2 = np.linalg.eigvalsh(h2)
            assert np.abs(e1 - e2).max() < 1e-12

    def test_row_sum_equals_degree(self):
        neck = NecklaceSpec(make_comb_pearl(2), 4)
        h = assemble_hamiltonian(neck)
        # ring vertices: 2 ring links (+1 tooth link on vertex 1); teeth: 1
        for j in range(1, 5):
            assert h.sum(axis=0)[neck.flat_index(j, 1)] == 3.0
            assert h.sum(axis=0)[neck.flat_index(j, 2)] == 2.0
            assert h.sum(axis=0)[neck.flat_index(j, 3)] == 1.0


class TestPearlJson:
    def test_zero_based_on_disk(self):
        obj = {"m": 3, "edges": [[0, 1], [0, 2]], "root_in": 0, "root_out": 1}
        assert pearl_from_json(obj) == make_comb_pearl(2)

    def test_load_file(self, tmp_path):
        path = tmp_path / "pearl.json"
        path.write_text(json.dumps({"m": 2, "edges": [[0, 1]], "root_in": 0, "root_out": 0}))
        assert load_pearl_file(str(path)) == make_custom_pearl(2, [(1, 2)], 1, 1)

    def test_load_rejects_self_loop(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"m": 3, "edges": [[1, 1]], "root_in": 0, "root_out": 2}')
        with pytest.raises(InvalidPearlError, match=r"self-loop edge \(2, 2\)"):
            load_pearl_file(str(path))
