"""Adjacency algebra: row-scan reading, round trips, Kronecker-sum products."""


import numpy as np
import pytest

import rotmaps.adjacency
from conftest import CORPUS, CORPUS_IDS, traced_peak
from rotmaps import (
    AdjacencyMatrix,
    MalformedInputError,
    ParameterError,
    RegularityError,
    RotationMatrix,
    adjacency_from_rotation,
    cartesian_adjacency,
    cartesian_rotation,
    cycle,
    is_consistent,
    rotation_from_adjacency,
)

K3_ADJ = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
K2_ADJ = [[0, 1], [1, 0]]
C4_ADJ = [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
PATH3_ADJ = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]  # not regular


class TestAdjacencyMatrix:
    def test_basics(self):
        adj = AdjacencyMatrix(K3_ADJ)
        assert adj.order == 3
        assert adj.degree() == 2
        assert adj.edge_count() == 3
        assert (np.nonzero(adj.matrix[0])[0] + 1).tolist() == [2, 3]

    @pytest.mark.parametrize("bad", [
        [[0, 1], [1, 0], [0, 1]],        # not square
        [[0]],                           # single vertex
        [[0, 2], [2, 0]],                # entry not 0/1
        [[1, 1], [1, 0]],                # nonzero diagonal
        [[0, 1], [0, 0]],                # not symmetric
        [[0.0, 1.0], [1.0, 0.0]],        # floats
        [[0, 1], [1]],                   # ragged
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(MalformedInputError):
            AdjacencyMatrix(bad)

    # the symmetry check compares 512 x 512 tiles; a cell and its mirror in
    # one tile, in two tiles, on either side of a tile edge, and the last cell
    @pytest.mark.parametrize("v,w", [(3, 600), (600, 3), (512, 513), (513, 512), (512, 1025),
                                     (1100, 1), (1, 1100), (1099, 1100)])
    def test_first_asymmetric_cell_named_across_tiles(self, v, w):
        mat = np.zeros((1100, 1100), dtype=np.uint8)
        mat[v - 1, w - 1] = 1
        first = min((v, w), (w, v))
        with pytest.raises(MalformedInputError) as info:
            AdjacencyMatrix(mat)
        assert str(info.value) == f"adjacency matrix not symmetric at {first}"

    def test_degree_requires_regularity(self):
        with pytest.raises(RegularityError):
            AdjacencyMatrix(PATH3_ADJ).degree()

    def test_repr_names_the_order(self):
        assert repr(AdjacencyMatrix(K3_ADJ)) == "AdjacencyMatrix(order=3)"

    def test_read_only(self):
        adj = AdjacencyMatrix(K2_ADJ)
        with pytest.raises(ValueError):
            adj.matrix[0, 1] = 0


class TestOneBytePerCell:
    @pytest.mark.parametrize("cell", [2, -1, 256])
    def test_int64_cell_outside_0_1_rejected(self, cell):
        # 256 narrowed to one byte first would read as 0 and pass
        mat = np.array(C4_ADJ, dtype=np.int64)
        mat[0, 1] = mat[1, 0] = cell
        with pytest.raises(MalformedInputError, match="0 or 1"):
            AdjacencyMatrix(mat)

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int8, np.int64, np.uint64, ">i8"])
    def test_every_integer_type_gives_the_same_matrix(self, dtype):
        adj = AdjacencyMatrix(np.array(C4_ADJ, dtype=dtype))
        assert adj == AdjacencyMatrix(np.array(C4_ADJ, dtype=np.int64))
        assert adj.matrix.tolist() == C4_ADJ

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64])
    def test_matrix_is_a_read_only_uint8_copy(self, dtype):
        mat = np.asfortranarray(np.array(C4_ADJ, dtype=dtype))
        adj = AdjacencyMatrix(mat)
        assert adj.matrix.dtype == np.uint8 and adj.matrix.flags.c_contiguous
        assert not adj.matrix.flags.writeable
        assert mat.flags.writeable and not np.shares_memory(mat, adj.matrix)

    def test_writable_matrix_is_copied(self):
        mat = np.array(C4_ADJ, dtype=np.uint8)
        adj = AdjacencyMatrix(mat)
        mat[0, 1] = mat[1, 0] = 0
        assert adj.matrix.tolist() == C4_ADJ

    def test_read_only_owned_uint8_matrix_is_adopted(self):
        mat = np.array(C4_ADJ, dtype=np.uint8)
        mat.setflags(write=False)
        assert AdjacencyMatrix(mat).matrix is mat
        view = mat[:, :]  # read-only too, but it owns no data
        assert AdjacencyMatrix(view).matrix is not view

    def test_k300_counts_past_one_byte(self):
        # a row sum or total in a uint8 accumulator would wrap at 256
        adj = AdjacencyMatrix(1 - np.eye(300, dtype=np.uint8))
        assert adj.degree() == 299
        assert adj.edge_count() == 44850
        assert type(adj.edge_count()) is int
        assert rotation_from_adjacency(adj).entries[299].tolist() == list(range(1, 300))


class TestRowScanReading:
    def test_k3(self):
        rot = rotation_from_adjacency(AdjacencyMatrix(K3_ADJ))
        assert rot.entries.tolist() == [[2, 3], [1, 3], [1, 2]]

    def test_k2(self):
        assert rotation_from_adjacency(AdjacencyMatrix(K2_ADJ)).entries.tolist() == [[2], [1]]

    def test_c4(self):
        rot = rotation_from_adjacency(AdjacencyMatrix(C4_ADJ))
        assert rot.entries.tolist() == [[2, 4], [1, 3], [2, 4], [1, 3]]

    def test_non_regular_rejected(self):
        with pytest.raises(RegularityError):
            rotation_from_adjacency(AdjacencyMatrix(PATH3_ADJ))

    def test_edgeless_rejected(self):
        empty = AdjacencyMatrix(np.zeros((3, 3), dtype=np.int64))
        with pytest.raises(RegularityError):
            rotation_from_adjacency(empty)

    @pytest.mark.parametrize("name,rot", CORPUS, ids=CORPUS_IDS)
    def test_rows_increasing_and_round_trip(self, name, rot):
        adj = adjacency_from_rotation(rot)
        scan = rotation_from_adjacency(adj)
        assert np.all(np.diff(scan.entries, axis=1) > 0)
        assert adjacency_from_rotation(scan) == adj


class TestRowScanInconsistency:
    def test_degree_one_reading_is_consistent(self):
        # a perfect matching: the one degree whose row-scan reading can be consistent
        assert is_consistent(rotation_from_adjacency(AdjacencyMatrix(K2_ADJ)))


class TestFromRotation:
    def test_triangle(self):
        adj = adjacency_from_rotation(RotationMatrix([[2, 3], [3, 1], [1, 2]]))
        assert adj.matrix.tolist() == K3_ADJ

    def test_k2(self):
        assert adjacency_from_rotation(RotationMatrix([[2], [1]])).matrix.tolist() == K2_ADJ

    def test_c5_is_ring(self):
        adj = adjacency_from_rotation(cycle(5))
        for v in range(1, 6):
            expected = sorted({(v % 5) + 1, ((v - 2) % 5) + 1})
            assert (np.nonzero(adj.matrix[v - 1])[0] + 1).tolist() == expected


class TestCartesianAdjacency:
    def test_k2_by_k2_is_4_cycle(self):
        prod = cartesian_adjacency(AdjacencyMatrix(K2_ADJ), AdjacencyMatrix(K2_ADJ))
        assert prod.matrix.tolist() == [
            [0, 1, 1, 0],
            [1, 0, 0, 1],
            [1, 0, 0, 1],
            [0, 1, 1, 0],
        ]

    def test_single_vertex_factor_rejected(self):
        with pytest.raises(MalformedInputError):
            AdjacencyMatrix([[0]])

    def test_torus_counts(self):
        c6 = adjacency_from_rotation(cycle(6))
        c4 = adjacency_from_rotation(cycle(4))
        prod = cartesian_adjacency(c6, c4)
        assert prod.order == 24
        assert prod.degree() == 4
        assert prod.edge_count() == 48

    def test_order_multiplies(self):
        pairs = [(cycle(3), cycle(5)), (cycle(4), cycle(4))]
        for rg, rh in pairs:
            ag, ah = adjacency_from_rotation(rg), adjacency_from_rotation(rh)
            assert cartesian_adjacency(ag, ah).order == ag.order * ah.order


class TestDenseMemory:
    # one uint8 array is built and copied once, and the checks hold one
    # n x n boolean array at a time: 3 n^2 bytes; the int64 matrix took
    # 18 n^2 here, and np.kron's int64 temporaries 24 n^2
    def test_adjacency_from_rotation(self):
        rot = cartesian_rotation(cycle(50), cycle(50))
        assert traced_peak(lambda: adjacency_from_rotation(rot)) < 4 * 2500**2

    def test_cartesian_adjacency(self):
        c50, c40 = adjacency_from_rotation(cycle(50)), adjacency_from_rotation(cycle(40))
        assert traced_peak(lambda: cartesian_adjacency(c50, c40)) < 4 * 2000**2

    # each builder hands its fresh matrix over, and the 0/1 check is one
    # max(), so the matrix is the peak: 1.06 n^2 measured, 2.06 n^2 when
    # the constructor compared every cell and copied
    def test_adjacency_from_rotation_holds_one_matrix(self):
        rot = cartesian_rotation(cycle(50), cycle(50))
        assert traced_peak(lambda: adjacency_from_rotation(rot)) < 1.25 * 2500**2

    def test_cartesian_adjacency_holds_one_matrix(self):
        c50, c40 = adjacency_from_rotation(cycle(50)), adjacency_from_rotation(cycle(40))
        assert traced_peak(lambda: cartesian_adjacency(c50, c40)) < 1.25 * 2000**2


class TestDenseCeiling:
    def test_adjacency_from_rotation_past_the_limit_refused_before_the_matrix(self, monkeypatch):
        monkeypatch.setattr(rotmaps.adjacency, "MAX_ADJ_VERTICES", 1000)
        rot = cycle(1001)

        def refused():
            with pytest.raises(ParameterError) as info:
                adjacency_from_rotation(rot)
            assert str(info.value) == "adjacency matrix of 1001 vertices is above the limit of 1000"

        assert traced_peak(refused) < 1e5  # the matrix alone is 10^6 bytes

    def test_cartesian_adjacency_past_the_limit_refused_before_the_product(self, monkeypatch):
        c40, c30 = adjacency_from_rotation(cycle(40)), adjacency_from_rotation(cycle(30))
        monkeypatch.setattr(rotmaps.adjacency, "MAX_ADJ_VERTICES", 1000)

        def refused():
            with pytest.raises(ParameterError, match="adjacency matrix of 1200 vertices"):
                cartesian_adjacency(c40, c30)

        assert traced_peak(refused) < 1e5  # the product alone is 1.44 * 10^6 bytes

    def test_order_at_the_limit_is_built(self, monkeypatch):
        monkeypatch.setattr(rotmaps.adjacency, "MAX_ADJ_VERTICES", 24)
        c6, c4 = adjacency_from_rotation(cycle(6)), adjacency_from_rotation(cycle(4))
        torus = adjacency_from_rotation(cartesian_rotation(cycle(6), cycle(4)))
        assert cartesian_adjacency(c6, c4) == torus and torus.order == 24
