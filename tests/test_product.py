"""Box products of rotation maps: the cloud layout of the table and preservation laws."""

import tracemalloc

import numpy as np
import pytest

from conftest import CORPUS
from rotmaps import (
    InconsistentInputWarning,
    InvalidRotationMapError,
    RotationMatrix,
    adjacency_from_rotation,
    cartesian_adjacency,
    cartesian_rotation,
    cycle,
    is_consistent,
    k2,
    validate,
)

# the 6-cycle x 4-cycle product, cloud by cloud; row 23 port 4 is 17 (the
# bridge formula j + (cloud-1)*6 gives 5 + 12)
TORUS_TABLE = [
    [2, 6, 7, 19],
    [3, 1, 8, 20],
    [4, 2, 9, 21],
    [5, 3, 10, 22],
    [6, 4, 11, 23],
    [1, 5, 12, 24],
    [8, 12, 13, 1],
    [9, 7, 14, 2],
    [10, 8, 15, 3],
    [11, 9, 16, 4],
    [12, 10, 17, 5],
    [7, 11, 18, 6],
    [14, 18, 19, 7],
    [15, 13, 20, 8],
    [16, 14, 21, 9],
    [17, 15, 22, 10],
    [18, 16, 23, 11],
    [13, 17, 24, 12],
    [20, 24, 1, 13],
    [21, 19, 2, 14],
    [22, 20, 3, 15],
    [23, 21, 4, 16],
    [24, 22, 5, 17],
    [19, 23, 6, 18],
]


class TestCartesianRotation:
    def test_torus(self):
        prod = cartesian_rotation(cycle(6), cycle(4))
        assert prod.entries.tolist() == TORUS_TABLE
        assert is_consistent(prod)

    def test_k2_by_k2(self):
        prod = cartesian_rotation(k2(), k2())
        assert prod.entries.tolist() == [[2, 3], [1, 4], [4, 1], [3, 2]]

    def test_bridge_block_of_first_cloud(self):
        prod = cartesian_rotation(cycle(6), cycle(4))
        assert prod.entries[:6, 2:].tolist() == [
            [7, 19], [8, 20], [9, 21], [10, 22], [11, 23], [12, 24],
        ]

    def test_local_blocks_are_shifted_copies(self):
        local = cartesian_rotation(cycle(6), cycle(4)).entries[:, :2].reshape(4, 6, 2)
        base = cycle(6).entries
        for i, block in enumerate(local):
            assert np.array_equal(block, base + 6 * i)

    def test_wrong_bridge_entry_breaks_consistency(self):
        # the bridge formula forces 17 at row 23 port 4; 16 would repeat in
        # the column and is not even symmetric
        bad = [row[:] for row in TORUS_TABLE]
        bad[22][3] = 16
        report = validate(RotationMatrix(bad))
        assert not report.is_consistent
        assert any(
            v.kind == "duplicate-in-column" and v.location == (4, 16)
            for v in report.violations
        )

    def test_invalid_factor_rejected(self):
        broken = RotationMatrix([[1], [2]])
        with pytest.raises(InvalidRotationMapError):
            cartesian_rotation(broken, k2())

    def test_inconsistent_factor_warns_but_builds(self):
        row_scan_triangle = RotationMatrix([[2, 3], [1, 3], [1, 2]])
        with pytest.warns(InconsistentInputWarning):
            prod = cartesian_rotation(row_scan_triangle, cycle(3))
        assert validate(prod).is_valid_map

    def test_consistency_preserved_on_seeded_pairs(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            i, j = rng.integers(0, len(CORPUS), 2)
            prod = cartesian_rotation(CORPUS[i][1], CORPUS[j][1])
            assert is_consistent(prod), (CORPUS[i][0], CORPUS[j][0])

    def test_matches_kronecker_sum_on_seeded_pairs(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            i, j = rng.integers(0, len(CORPUS), 2)
            rg, rh = CORPUS[i][1], CORPUS[j][1]
            left = adjacency_from_rotation(cartesian_rotation(rg, rh))
            right = cartesian_adjacency(
                adjacency_from_rotation(rg), adjacency_from_rotation(rh)
            )
            assert left == right, (CORPUS[i][0], CORPUS[j][0])

    def test_degree_and_order(self):
        prod = cartesian_rotation(cycle(5), cycle(3))
        assert prod.num_vertices == 15
        assert prod.degree == 4

    def test_fills_one_table_in_place(self):
        # the two rules write into one preallocated table, which the map
        # adopts; no other table-sized array is made
        inner, outer = cycle(400), cycle(250)
        validate(inner)
        validate(outer)
        tracemalloc.start()
        try:
            prod = cartesian_rotation(inner, outer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * prod.entries.nbytes
