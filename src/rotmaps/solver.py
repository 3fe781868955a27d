"""Consistent labelings for arbitrary regular graphs, two independent ways.

A consistent rotation map is the same thing as assigning each directed arc a
label in 1..d such that labels are pairwise distinct both leaving and
entering every vertex.  Both solvers read the arcs off the row-scan table
(:func:`rotation_from_adjacency`: row v lists the vertices adjacent to v in
increasing order), and they cross-check each other:

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

from .adjacency import AdjacencyMatrix, rotation_from_adjacency
from .core import RotationMatrix
from .exceptions import ParameterError, RotmapsError, SearchBudgetExceededError

__all__ = [
    "solve_backtracking",
    "solve_matching",
]

DEFAULT_BUDGET = 1_000_000


def solve_backtracking(adjacency: AdjacencyMatrix, budget: int = DEFAULT_BUDGET) -> RotationMatrix:
    """Exhaustive search for a consistent map, deterministic and complete.

    Arcs are visited in lexicographic (v, w) order, the row-major order of
    the row-scan table, and labels tried in ascending order, so the first
    solution found is a fixed function of the input.  ``budget`` (at least 1)
    caps the number of search nodes (one per arc visit); exceeding it raises
    SearchBudgetExceededError, which is an inconclusive outcome, not
    evidence that no labeling exists (one always does).
    """
    if budget < 1:
        raise ParameterError(f"backtracking budget must be at least 1, got {budget}")
    scan = rotation_from_adjacency(adjacency).entries
    n, d = scan.shape
    heads = (scan - 1).ravel().tolist()  # arc k leaves vertex k // d and enters heads[k]
    out_used = [0] * n  # bitmask of labels leaving each vertex
    in_used = [0] * n   # bitmask of labels entering each vertex
    # labels[k]: the label on arc k, or 0 while the search has not reached it;
    # after a backtrack to k the search resumes from labels[k] + 1
    labels = [0] * (n * d)

    pos = 0
    nodes = 1  # entering position 0
    while pos < n * d:
        v, w = pos // d, heads[pos]
        used = out_used[v] | in_used[w]
        label = labels[pos] + 1
        while label <= d and used >> label & 1:
            label += 1
        if label <= d:
            labels[pos] = label
            out_used[v] |= 1 << label
            in_used[w] |= 1 << label
            pos += 1
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceededError(
                    f"backtracking budget of {budget} nodes exhausted", nodes_explored=nodes
                )
        else:
            if pos == 0:  # unreachable for a valid regular adjacency matrix
                raise RotmapsError("search space exhausted without a labeling")
            labels[pos] = 0
            pos -= 1
            bit = 1 << labels[pos]
            out_used[pos // d] &= ~bit
            in_used[heads[pos]] &= ~bit

    entries = np.empty_like(scan)
    entries[np.arange(n).repeat(d), np.array(labels) - 1] = scan.ravel()
    return RotationMatrix(entries)


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


def _check_labels(scan: np.ndarray, entries: np.ndarray) -> None:
    """Each output row, sorted, is its row-scan row, and each column is a permutation."""
    n = scan.shape[0]
    same_arcs = np.array_equal(np.sort(entries, axis=1), scan)
    in_distinct = (np.sort(entries, axis=0) == np.arange(1, n + 1)[:, None]).all()
    if not (same_arcs and in_distinct):
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
    scan = rotation_from_adjacency(adjacency).entries
    n, d = scan.shape
    remaining = (scan - 1).tolist()
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
    _check_labels(scan, entries)
    return RotationMatrix(entries)

