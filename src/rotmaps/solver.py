"""Consistent labelings for arbitrary regular graphs, two independent ways.

A consistent rotation map is the same thing as assigning each directed arc a
label in 1..d such that labels are pairwise distinct both leaving and
entering every vertex.  Two solvers cross-check each other:

* an exhaustive backtracking search over arcs in lexicographic order
  (complete but exponential in the worst case, meant for small graphs);
* a polynomial constructor that peels the arc set into d perfect matchings
  of the out-side/in-side bipartite graph (the residual graph stays regular,
  so a perfect matching always exists), assigning one label per matching.
  Each matching is a greedy pass plus an iterative alternating-path search
  in a fixed scan order: deterministic, and with no recursion limit.
"""

from __future__ import annotations

import numpy as np

from .adjacency import AdjacencyMatrix, adjacency_from_rotation
from .core import RotationMatrix, is_consistent
from .exceptions import (
    MalformedInputError,
    RegularityError,
    RotmapsError,
    SearchBudgetExceededError,
)

__all__ = [
    "ArcLabeling",
    "solve_backtracking",
    "solve_matching",
    "agree",
]

DEFAULT_BUDGET = 1_000_000


class ArcLabeling:
    """Partial assignment of labels to directed arcs of a graph.

    Maintains the two defining constraints incrementally: labels on arcs
    leaving a vertex are distinct, and labels on arcs entering a vertex are
    distinct.  A completed labeling is exactly a consistent rotation map.
    """

    def __init__(self, adjacency: AdjacencyMatrix):
        self._adjacency = adjacency
        self._n = adjacency.order
        self._degree = adjacency.degree()
        self._labels: dict[tuple[int, int], int] = {}
        self._out_used = [0] * (self._n + 1)  # bitmask of labels leaving v
        self._in_used = [0] * (self._n + 1)   # bitmask of labels entering w

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def num_assigned(self) -> int:
        return len(self._labels)

    @property
    def is_complete(self) -> bool:
        return len(self._labels) == self._n * self._degree

    def label_of(self, v: int, w: int) -> int | None:
        return self._labels.get((v, w))

    def can_assign(self, v: int, w: int, label: int) -> bool:
        if not (1 <= label <= self._degree and 1 <= v <= self._n and 1 <= w <= self._n):
            return False
        if self._adjacency.matrix[v - 1, w - 1] != 1 or (v, w) in self._labels:
            return False
        bit = 1 << label
        return not (self._out_used[v] & bit or self._in_used[w] & bit)

    def assign(self, v: int, w: int, label: int) -> None:
        if not self.can_assign(v, w, label):
            raise MalformedInputError(
                f"cannot label arc ({v}, {w}) with {label}: "
                "not an unlabeled arc, or label already used at an endpoint"
            )
        self._labels[(v, w)] = label
        bit = 1 << label
        self._out_used[v] |= bit
        self._in_used[w] |= bit

    def unassign(self, v: int, w: int) -> None:
        label = self._labels.pop((v, w), None)
        if label is None:
            raise MalformedInputError(f"arc ({v}, {w}) carries no label")
        bit = 1 << label
        self._out_used[v] &= ~bit
        self._in_used[w] &= ~bit

    def to_rotation_matrix(self) -> RotationMatrix:
        if not self.is_complete:
            raise MalformedInputError(
                f"labeling covers {self.num_assigned} of {self._n * self._degree} arcs"
            )
        entries = np.zeros((self._n, self._degree), dtype=np.int64)
        for (v, w), label in self._labels.items():
            entries[v - 1, label - 1] = w
        return RotationMatrix(entries)


def _checked_degree(adjacency: AdjacencyMatrix) -> int:
    d = adjacency.degree()
    if d < 1:
        raise RegularityError("graph has no edges; nothing to label")
    return d


def solve_backtracking(adjacency: AdjacencyMatrix, budget: int = DEFAULT_BUDGET) -> RotationMatrix:
    """Exhaustive search for a consistent map, deterministic and complete.

    Arcs are visited in lexicographic (v, w) order and labels tried in
    ascending order, so the first solution found is a fixed function of the
    input.  ``budget`` caps the number of search nodes (one per arc visit);
    exceeding it raises SearchBudgetExceededError, which is an inconclusive
    outcome, not evidence that no labeling exists (one always does).
    """
    d = _checked_degree(adjacency)
    arcs = [
        (v, int(w))
        for v in range(1, adjacency.order + 1)
        for w in adjacency.neighbors(v)
    ]
    labeling = ArcLabeling(adjacency)

    # explicit stack instead of recursion; next_try[k] is the label to resume
    # from when position k is revisited after a backtrack
    n_arcs = len(arcs)
    next_try = [1] * (n_arcs + 1)
    pos = 0
    nodes = 1  # entering position 0
    if nodes > budget:
        raise SearchBudgetExceededError(
            f"backtracking budget of {budget} nodes exhausted", nodes_explored=nodes
        )
    while pos < n_arcs:
        v, w = arcs[pos]
        label = next_try[pos]
        while label <= d and not labeling.can_assign(v, w, label):
            label += 1
        if label <= d:
            labeling.assign(v, w, label)
            next_try[pos] = label + 1
            pos += 1
            next_try[pos] = 1
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceededError(
                    f"backtracking budget of {budget} nodes exhausted", nodes_explored=nodes
                )
        else:
            if pos == 0:  # unreachable for a valid regular adjacency matrix
                raise RotmapsError("search space exhausted without a labeling")
            pos -= 1
            labeling.unassign(*arcs[pos])
    return labeling.to_rotation_matrix()


def _augment(root: int, remaining: list[list[int]], match_in: list[int],
             match_out: list[int], seen: list[int]) -> bool:
    """Match out-side ``root`` along an alternating path; False if there is none.

    Depth-first search with an explicit stack.  Each out-side reached is
    first scanned for a free in-side among its remaining arcs; only then are
    its matched in-sides followed.  ``seen[w] == root`` marks the in-sides
    already followed in this search.
    """
    path = [root]  # out-sides on the current alternating path
    via = []       # via[k]: the in-side path[k] takes once the path augments
    todo = [iter(remaining[root])]
    while todo:
        w = next((w for w in todo[-1] if seen[w] != root), None)
        if w is None:
            todo.pop()
            path.pop()
            if via:
                via.pop()
            continue
        seen[w] = root
        via.append(w)
        u = match_in[w]
        if u >= 0:
            path.append(u)
            free = next((x for x in remaining[u] if match_in[x] < 0), None)
            if free is None:
                todo.append(iter(remaining[u]))
                continue
            via.append(free)
        for u, w in zip(path, via):
            match_in[w] = u
            match_out[u] = w
        return True
    return False


def _check_labels(adjacency: AdjacencyMatrix, entries: np.ndarray) -> None:
    """Each labelled pair is an arc, labelled once, and no label repeats at either end."""
    n = adjacency.order
    is_arc = adjacency.matrix[np.arange(n)[:, None], entries - 1].all()
    in_distinct = (np.sort(entries, axis=0) == np.arange(1, n + 1)[:, None]).all()
    arc_once = (np.diff(np.sort(entries, axis=1), axis=1) != 0).all()
    if not (is_arc and in_distinct and arc_once):
        raise RotmapsError("matching rounds did not label every arc exactly once")


def solve_matching(adjacency: AdjacencyMatrix) -> RotationMatrix:
    """Polynomial construction: one perfect matching of the arc set per label.

    Round r finds a perfect matching between out-sides and in-sides among
    the still-unlabeled arcs and labels its arcs r.  Each round is a greedy
    pass (every out-side, in ascending order, takes its first free in-side)
    followed by an iterative alternating-path search for each out-side left
    unmatched, so there is no recursion and no depth limit; scan orders are
    fixed, so the output is a deterministic function of the input.
    Removing a perfect matching from a regular bipartite graph keeps it
    regular, so every round succeeds.
    """
    d = _checked_degree(adjacency)
    n = adjacency.order
    remaining = np.nonzero(adjacency.matrix)[1].reshape(n, d).tolist()
    entries = np.zeros((n, d), dtype=np.int64)

    for label in range(1, d + 1):
        match_in = [-1] * n
        match_out = [-1] * n
        for u in range(n):
            w = next((w for w in remaining[u] if match_in[w] < 0), None)
            if w is not None:
                match_in[w] = u
                match_out[u] = w
        seen = [-1] * n
        for u in range(n):
            if match_out[u] < 0 and not _augment(u, remaining, match_in, match_out, seen):
                # unreachable: the residual graph is regular bipartite
                raise RotmapsError(f"no perfect matching among remaining arcs in round {label}")
        entries[:, label - 1] = match_out
        for u, w in enumerate(match_out):
            remaining[u].remove(w)

    entries += 1
    _check_labels(adjacency, entries)
    return RotationMatrix(entries)


def agree(adjacency: AdjacencyMatrix, budget: int = DEFAULT_BUDGET) -> bool | None:
    """Cross-check the two solvers on one input.

    True when both produce consistent maps of the given graph (the maps need
    not be equal); None when the backtracker ran out of budget, which leaves
    the comparison inconclusive.
    """
    try:
        from_search = solve_backtracking(adjacency, budget=budget)
    except SearchBudgetExceededError:
        return None
    from_matching = solve_matching(adjacency)
    return all(
        is_consistent(rot) and adjacency_from_rotation(rot) == adjacency
        for rot in (from_search, from_matching)
    )
