"""Family generators: pinned tables, consistency, and structural properties."""

import tracemalloc
from functools import reduce

import numpy as np
import pytest

from conftest import CORPUS, CORPUS_IDS
from rotmaps import (
    ParameterError,
    adjacency_from_rotation,
    cartesian_adjacency,
    cartesian_rotation,
    complete,
    complete_bipartite,
    cycle,
    generalized_petersen,
    hypercube,
    k2,
    spectrum,
    validate,
)
from rotmaps.families import MAX_DARTS, MAX_HYPERCUBE_DIMENSION

C5_TABLE = [[2, 5], [3, 1], [4, 2], [5, 3], [1, 4]]
K5_TABLE = [
    [2, 3, 4, 5],
    [3, 4, 5, 1],
    [4, 5, 1, 2],
    [5, 1, 2, 3],
    [1, 2, 3, 4],
]
K33_TABLE = [[4, 5, 6], [5, 6, 4], [6, 4, 5], [1, 2, 3], [2, 3, 1], [3, 1, 2]]
GP73_TABLE = [
    [2, 8, 7],
    [3, 9, 1],
    [4, 10, 2],
    [5, 11, 3],
    [6, 12, 4],
    [7, 13, 5],
    [1, 14, 6],
    [11, 1, 12],
    [12, 2, 13],
    [13, 3, 14],
    [14, 4, 8],
    [8, 5, 9],
    [9, 6, 10],
    [10, 7, 11],
]


class TestPinnedTables:
    def test_cycle_5(self):
        assert cycle(5).entries.tolist() == C5_TABLE

    def test_cycle_3_is_triangle(self):
        assert cycle(3).entries.tolist() == [[2, 3], [3, 1], [1, 2]]

    def test_cycle_4(self):
        assert cycle(4).entries.tolist() == [[2, 4], [3, 1], [4, 2], [1, 3]]

    def test_complete_5(self):
        assert complete(5).entries.tolist() == K5_TABLE

    def test_complete_3_equals_cycle_3(self):
        assert complete(3) == cycle(3)

    def test_complete_4_row_3(self):
        assert complete(4).entries[2].tolist() == [4, 1, 2]

    def test_bipartite_3(self):
        assert complete_bipartite(3).entries.tolist() == K33_TABLE

    def test_bipartite_2(self):
        assert complete_bipartite(2).entries.tolist() == [[3, 4], [4, 3], [1, 2], [2, 1]]

    def test_gp_7_3(self):
        assert generalized_petersen(7, 3).entries.tolist() == GP73_TABLE

    def test_gp_5_2_row_6(self):
        assert generalized_petersen(5, 2).entries[5].tolist() == [8, 1, 9]

    def test_k2(self):
        assert k2().entries.tolist() == [[2], [1]]

    def test_hypercube_1(self):
        assert hypercube(1).entries.tolist() == [[2], [1]]

    def test_hypercube_2(self):
        assert hypercube(2).entries.tolist() == [[2, 3], [1, 4], [4, 1], [3, 2]]

    @pytest.mark.parametrize("m", range(1, 11))
    def test_hypercube_is_the_k2_fold(self, m):
        assert hypercube(m) == reduce(cartesian_rotation, [k2()] * m)


class TestParameterDomains:
    @pytest.mark.parametrize("call", [
        lambda: cycle(2),
        lambda: complete(2),
        lambda: complete_bipartite(1),
        lambda: generalized_petersen(2, 1),
        lambda: generalized_petersen(3, 0),
        lambda: generalized_petersen(4, 2),   # 2s = n
        lambda: generalized_petersen(7, 4),
        lambda: hypercube(0),
    ])
    def test_rejected(self, call):
        with pytest.raises(ParameterError):
            call()

    @pytest.mark.parametrize("m", [MAX_HYPERCUBE_DIMENSION + 1, 64])
    def test_hypercube_ceiling(self, m):
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match=f"limit of {MAX_HYPERCUBE_DIMENSION}"):
                hypercube(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("call", [
        lambda: cycle(MAX_DARTS // 2 + 1),
        lambda: complete(4_580),              # 4580 * 4579 darts, the first K_n above the limit
        lambda: complete(100_000),
        lambda: complete_bipartite(3_239),    # 2 * 3239**2 darts
        lambda: generalized_petersen(MAX_DARTS // 6 + 1, 3),
        lambda: cartesian_rotation(cycle(3_000), cycle(2_000)),
    ], ids=["cycle", "complete", "complete-huge", "bipartite", "gp", "product"])
    def test_dart_ceiling(self, call):
        # rejected before any table is allocated; the product's factors are small
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match=f"above the limit of {MAX_DARTS}"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_dart_ceiling_is_the_largest_hypercube(self):
        # core states the ceiling on its own, as it cannot import families
        assert MAX_DARTS == MAX_HYPERCUBE_DIMENSION * 2**MAX_HYPERCUBE_DIMENSION

    def test_cycle_fills_one_table_in_place(self):
        # its columns are filled in place and the map adopts the table
        tracemalloc.start()
        try:
            rot = cycle(10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * rot.entries.nbytes
        assert rot.entries[[0, -1]].tolist() == [[2, 10**6], [1, 10**6 - 1]]

    @pytest.mark.parametrize("make,bound", [
        (lambda: complete(1000), 1.25),  # filled in place: 1.02 measured, 2.00 copied
        (lambda: complete_bipartite(700), 2.5),  # two halves stacked: 2.00, 3.00 copied
        (lambda: generalized_petersen(10**5, 3), 2.5),  # 2.17, 3.17 copied
    ], ids=["complete", "complete_bipartite", "generalized_petersen"])
    def test_map_adopts_the_fresh_table(self, make, bound):
        tracemalloc.start()
        try:
            rot = make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * rot.entries.nbytes

    def test_gp_largest_step_allowed(self):
        assert validate(generalized_petersen(9, 4)).is_consistent


class TestGeneratorProperties:
    @pytest.mark.parametrize("name,rot", CORPUS, ids=CORPUS_IDS)
    def test_every_generator_consistent(self, name, rot):
        report = validate(rot)
        assert report.is_valid_map and report.is_consistent

    @pytest.mark.parametrize("n", range(3, 9))
    def test_complete_shares_cycle_columns(self, n):
        comp, cyc = complete(n), cycle(n)
        assert comp.entries[:, 0].tolist() == cyc.entries[:, 0].tolist()
        assert comp.entries[:, n - 2].tolist() == cyc.entries[:, 1].tolist()

    def test_complete_adjacency_all_ones_minus_identity(self):
        adj = adjacency_from_rotation(complete(6))
        assert adj.matrix.tolist() == (np.ones((6, 6), dtype=int) - np.eye(6, dtype=int)).tolist()

    def test_bipartite_adjacency_block_structure(self):
        adj = adjacency_from_rotation(complete_bipartite(4))
        blocks = adj.matrix.reshape(2, 4, 2, 4).transpose(0, 2, 1, 3)
        assert np.array_equal(blocks[0, 0], np.zeros((4, 4), dtype=int))
        assert np.array_equal(blocks[1, 1], np.zeros((4, 4), dtype=int))
        assert np.array_equal(blocks[0, 1], np.ones((4, 4), dtype=int))

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_hypercube_counts(self, m):
        rot = hypercube(m)
        assert rot.num_vertices == 2 ** m
        assert rot.degree == m
        assert adjacency_from_rotation(rot).edge_count() == m * 2 ** (m - 1)

    def test_hypercube_3_spectrum(self):
        adj = adjacency_from_rotation(hypercube(3))
        got = spectrum(adj).values
        assert np.allclose(got, [3, 1, 1, 1, -1, -1, -1, -3], atol=1e-8)
        oracle = np.sort(np.linalg.eigvalsh(adj.matrix.astype(float)))[::-1]
        assert np.max(np.abs(got - oracle)) < 1e-8

    def test_gp_step_1_matches_prism_spectrum(self):
        for n in (3, 5):
            gp_adj = adjacency_from_rotation(generalized_petersen(n, 1))
            prism = cartesian_adjacency(
                adjacency_from_rotation(cycle(n)), adjacency_from_rotation(k2())
            )
            dev = np.max(np.abs(spectrum(gp_adj).values - spectrum(prism).values))
            assert dev < 1e-8
