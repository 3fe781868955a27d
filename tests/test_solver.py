"""Labeling solvers: the exhaustive backtracker and the matching constructor."""

import gc
from types import SimpleNamespace

import numpy as np
import pytest

import rotmaps.solver
from conftest import CORPUS, random_regular_adjacency
from rotmaps import (
    AdjacencyMatrix,
    ParameterError,
    RegularityError,
    RotationMatrix,
    RotmapsError,
    SearchBudgetExceededError,
    adjacency_from_rotation,
    cartesian_rotation,
    complete,
    cycle,
    generalized_petersen,
    is_consistent,
    rotation_from_adjacency,
    solve_backtracking,
    solve_matching,
    to_full_form,
)
from rotmaps.core import _pair
from rotmaps.solver import _check_labels

K3_ADJ = AdjacencyMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
K2_ADJ = AdjacencyMatrix([[0, 1], [1, 0]])


def petersen_adjacency():
    return adjacency_from_rotation(generalized_petersen(5, 2))


def relabelled_torus(a, b, seed):
    """C_a x C_b with its vertices renamed by a seeded random permutation."""
    ent = cartesian_rotation(cycle(a), cycle(b)).entries
    name = np.random.default_rng(seed).permutation(len(ent)) + 1  # name[v - 1]: new id of v
    table = np.empty_like(ent)
    table[name - 1] = name[ent - 1]
    return RotationMatrix(table)


class TestBacktracking:
    def test_k3_finds_the_cyclic_map(self):
        # deterministic under lexicographic arc order and ascending labels
        rot = solve_backtracking(K3_ADJ)
        assert rot.entries.tolist() == [[2, 3], [3, 1], [1, 2]]
        assert is_consistent(rot)

    def test_k2(self):
        assert solve_backtracking(K2_ADJ).entries.tolist() == [[2], [1]]

    def test_petersen(self):
        adj = petersen_adjacency()
        rot = solve_backtracking(adj)
        assert is_consistent(rot)
        assert adjacency_from_rotation(rot) == adj

    def test_deterministic(self):
        adj = petersen_adjacency()
        assert solve_backtracking(adj) == solve_backtracking(adj)

    def test_budget_exhaustion(self):
        with pytest.raises(SearchBudgetExceededError) as info:
            solve_backtracking(petersen_adjacency(), budget=3)
        assert info.value.nodes_explored == 4

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ParameterError):
            solve_backtracking(K3_ADJ, budget=budget)

    def test_edgeless_rejected(self):
        with pytest.raises(RegularityError):
            solve_backtracking(AdjacencyMatrix(np.zeros((3, 3), dtype=np.int64)))


class TestMatching:
    def test_k4(self):
        adj = adjacency_from_rotation(complete(4))
        rot = solve_matching(adj)
        assert rot.num_vertices == 4 and rot.degree == 3
        assert is_consistent(rot)
        assert adjacency_from_rotation(rot) == adj

    def test_c5(self):
        adj = adjacency_from_rotation(cycle(5))
        rot = solve_matching(adj)
        assert is_consistent(rot)
        assert adjacency_from_rotation(rot) == adj

    def test_seeded_random_cubic(self):
        adj = random_regular_adjacency(16, 3, seed=1601)
        rot = solve_matching(adj)
        assert is_consistent(rot)
        assert adjacency_from_rotation(rot) == adj

    def test_deterministic(self):
        adj = random_regular_adjacency(16, 3, seed=1601)
        assert solve_matching(adj) == solve_matching(adj)

    @pytest.mark.parametrize("name,rot", CORPUS[::5], ids=[n for n, _ in CORPUS[::5]])
    def test_family_sample(self, name, rot):
        adj = adjacency_from_rotation(rot)
        out = solve_matching(adj)
        assert is_consistent(out)
        assert adjacency_from_rotation(out) == adj


@pytest.mark.skipif(not gc.isenabled() or gc.get_threshold()[0] == 0,
                    reason="the cyclic collector is off")
def test_matching_runs_no_collection():
    # the label-major tables are 2d lists and the rows are read as n more,
    # so half a gen-0 threshold of vertices stays below it
    adj = random_regular_adjacency(gc.get_threshold()[0] // 2, 4, seed=700)
    runs = []

    def count(phase, info):
        if phase == "start":
            runs.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        solve_matching(adj)
    finally:
        gc.callbacks.remove(count)
    assert runs == []


class ShortRows:
    """A row-scan table whose rows hold 2 heads each though it reports degree 3.

    Rows before the current one are then not complete, which breaks the
    invariant that ends every alternating path; this table makes one cycle.
    """

    shape = (5, 3)

    def __sub__(self, one):
        return np.array([[3, 5], [1, 3], [4, 3], [4, 5], [5, 4]]) - one


def test_matching_walk_past_2n_arcs_raises(monkeypatch):
    monkeypatch.setattr(rotmaps.solver, "rotation_from_adjacency",
                        lambda adj: SimpleNamespace(entries=ShortRows()))
    with pytest.raises(RotmapsError, match="alternating path from vertex 4 crossed more than 10 arcs"):
        solve_matching(adjacency_from_rotation(cycle(5)))


class TestLabelCheck:
    C4_SCAN = rotation_from_adjacency(adjacency_from_rotation(cycle(4)))

    def test_consistent_table_passes(self):
        rot = _check_labels(self.C4_SCAN, np.array([[2, 4], [3, 1], [4, 2], [1, 3]]))
        assert np.array_equal(to_full_form(rot), _pair(rot.entries.copy()))

    @pytest.mark.parametrize("table", [
        [[3, 4], [4, 1], [1, 2], [2, 3]],  # (1, 3) is not an arc
        [[2, 4], [3, 1], [2, 4], [1, 3]],  # label 1 enters vertex 2 twice
        [[2, 2], [3, 3], [4, 4], [1, 1]],  # each arc labelled twice
    ], ids=["non-arc", "label-repeats", "arc-twice"])
    def test_bad_table_rejected(self, table):
        with pytest.raises(RotmapsError):
            _check_labels(self.C4_SCAN, np.array(table))


class TestMatchingScale:
    """Graphs whose alternating paths are thousands of arcs deep."""

    @pytest.mark.parametrize("adj_factory", [
        lambda: adjacency_from_rotation(cartesian_rotation(cycle(60), cycle(50))),
        lambda: random_regular_adjacency(2000, 4, seed=2000),
    ], ids=["C60xC50", "rr2000d4"])
    def test_consistent_map_of_the_same_graph(self, adj_factory):
        adj = adj_factory()
        rot = solve_matching(adj)
        assert is_consistent(rot)
        assert adjacency_from_rotation(rot) == adj

    def test_relabelled_torus(self):
        # the recolouring flips 6 285 alternating paths here, the longest 1 866 arcs
        torus = relabelled_torus(100, 100, seed=100)
        adj = adjacency_from_rotation(torus)
        rot = solve_matching(adj)
        assert is_consistent(rot)
        assert np.array_equal(np.sort(rot.entries, axis=1), np.sort(torus.entries, axis=1))
        assert solve_matching(adj) == rot


class TestAgree:
    """The two solvers cross-check each other, called one after the other."""

    @pytest.mark.parametrize("adj_factory", [
        lambda: K3_ADJ,
        lambda: K2_ADJ,
        petersen_adjacency,
    ])
    def test_agree(self, adj_factory):
        adj = adj_factory()
        for rot in (solve_backtracking(adj), solve_matching(adj)):
            assert is_consistent(rot)
            assert adjacency_from_rotation(rot) == adj

    def test_inconclusive_on_tiny_budget(self):
        # the search gives up, while the matching constructor still labels the graph
        with pytest.raises(SearchBudgetExceededError):
            solve_backtracking(petersen_adjacency(), budget=3)
        assert is_consistent(solve_matching(petersen_adjacency()))

    def test_budget_below_one_rejected(self):
        with pytest.raises(ParameterError):
            solve_backtracking(petersen_adjacency(), budget=0)


PATH3 = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
EDGELESS = np.zeros((3, 3), dtype=np.int64)
SCAN_USERS = {
    "rotation_from_adjacency": rotation_from_adjacency,
    "solve_matching": solve_matching,
    "solve_backtracking": solve_backtracking,
}


class TestOneScan:
    """The row-scan table is made once per matrix and shared by every reader."""

    @pytest.mark.parametrize("call", [AdjacencyMatrix.degree, *SCAN_USERS.values()],
                             ids=["degree", *SCAN_USERS])
    def test_irregular_graph_message(self, call):
        with pytest.raises(RegularityError) as info:
            call(AdjacencyMatrix(PATH3))
        assert str(info.value) == "graph is not regular: vertex degrees range over [1, 2]"

    @pytest.mark.parametrize("call", SCAN_USERS.values(), ids=SCAN_USERS)
    def test_edgeless_graph_message(self, call):
        with pytest.raises(RegularityError) as info:
            call(AdjacencyMatrix(EDGELESS))
        assert str(info.value) == "graph has no edges; a rotation map needs degree at least 1"

    def test_same_map_every_call(self):
        adj = petersen_adjacency()
        assert rotation_from_adjacency(adj) is rotation_from_adjacency(adj)

    @pytest.mark.parametrize("first", SCAN_USERS.values(), ids=SCAN_USERS)
    def test_one_flat_scan_per_matrix(self, first, monkeypatch):
        adj = petersen_adjacency()
        scans = []
        flatnonzero = np.flatnonzero
        monkeypatch.setattr(np, "flatnonzero", lambda a: scans.append(1) or flatnonzero(a))
        first(adj)
        assert len(scans) == 1
        for call in SCAN_USERS.values():
            call(adj)
        assert len(scans) == 1
