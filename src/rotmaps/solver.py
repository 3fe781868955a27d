"""Consistent labelings for arbitrary regular graphs, two independent ways.

A consistent rotation map is the same thing as assigning each directed arc a
label in 1..d such that labels are pairwise distinct both leaving and
entering every vertex.  Both solvers read the arcs off the row-scan table
(:func:`rotation_from_adjacency`: row v lists the vertices adjacent to v in
increasing order).  That table is made by one scan of the matrix and cached
on it, as a map's return ports are cached on the map, so however many
solvers run on one matrix it is scanned once; the table keeps 8*n*d bytes
beside the n^2 matrix while the matrix lives.  The solvers cross-check
each other:

* an exhaustive backtracking search over arcs in lexicographic order
  (complete but exponential in the worst case, meant for small graphs);
* a polynomial constructor that properly edge-colours the out-side/in-side
  double cover with d labels in one pass over the arcs, by König's
  alternating-path recolouring: an arc with no label free at both ends
  swaps two labels along one alternating path first.  Each of the n·d arcs
  costs O(d) plus the length of its path, deterministic, with no recursion.
  Its tables are label-major, one list per label and side, so a solve
  holds O(d) table lists rather than O(n) and the tables alone do not
  trigger a run of the cyclic garbage collector.
"""

from __future__ import annotations

import numpy as np

from .adjacency import AdjacencyMatrix, rotation_from_adjacency
from .core import RotationMatrix, _adopt, validate
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
    return _adopt(RotationMatrix, entries=entries)  # each row permutes its row-scan row


def _check_labels(scan: np.ndarray, entries: np.ndarray) -> RotationMatrix:
    """The map of ``entries`` if each row, sorted, is its row-scan row and it is consistent.

    :func:`validate` pairs the map by one sort of its n*d edge keys and caches its report.
    """
    if np.array_equal(np.sort(entries, axis=1), scan):
        rot = _adopt(RotationMatrix, entries=entries)  # in range: its rows sort to the scan's
        if validate(rot).is_consistent:
            return rot
    raise RotmapsError("recolouring did not label every arc exactly once")


def solve_matching(adjacency: AdjacencyMatrix) -> RotationMatrix:
    """Polynomial construction: one pass of alternating-path recolouring.

    Arcs are labelled in the row-major order of the row-scan table.  Arc
    (u, w) takes the lowest label free both leaving u and entering w.  When
    there is none, let a be the lowest label free at u and b the lowest free
    at w; the path from w that alternates in-arcs labelled a and out-arcs
    labelled b (König's argument) swaps a and b on every arc, which frees a
    at w, and the arc takes a.  The path cannot reach u, which has no arc
    labelled a, nor come back to w, which has none labelled b, so it ends.
    Rows are labelled in turn, so each tail on the path comes before u and
    has its full row, with an arc labelled b: the path ends entering a
    vertex with no arc labelled a.  The walk is a loop, with no recursion;
    it visits each of the n out-sides and n in-sides at most once, so it
    crosses at most 2n arcs; should the invariants above ever fail, a
    walk past that raises RotmapsError instead of spinning.  The scan
    order is fixed, so the output is a deterministic function of the input.

    The tables are label-major: ``out[c][u]`` is the head of u's arc
    labelled c and ``into[c][w]`` its tail, 2d lists in all, so no
    collection runs for them.  A walk fetches the four lists of its two
    labels once, and each step swaps two cells in two of them.
    """
    scan = rotation_from_adjacency(adjacency).entries
    n, d = scan.shape
    out = [[-1] * n for _ in range(d)]  # out[c][u]: head of u's arc labelled c
    into = [[-1] * n for _ in range(d)]  # into[c][w]: tail of w's arc labelled c
    in_free = [(1 << d) - 1] * n  # bitmask of labels not yet entering each vertex

    for u, heads in enumerate((scan - 1).tolist()):
        # rows before u are complete and rows after it empty, and no path
        # reaches u, so u's free labels and its out-arcs stay here meanwhile
        free_u = (1 << d) - 1  # labels not yet leaving u
        for w in heads:
            in_w = in_free[w]  # a path from w never comes back: only its swap changes this
            free = free_u & in_w or free_u  # the labels free at both ends, else at u
            bit = free & -free  # the label taken, as a bit
            a = bit.bit_length() - 1
            if not in_w & bit:
                b_bit = in_w & -in_w
                b = b_bit.bit_length() - 1
                # swap a and b at each vertex of the path while walking it; inner
                # vertices keep both labels, the two ends trade one for the other
                swap = bit | b_bit
                in_w ^= swap
                in_a, in_b, out_a, out_b = into[a], into[b], out[a], out[b]
                y = w
                for _ in range(n):  # a path meets each of the n in-sides at most once
                    x = in_a[y]
                    in_a[y], in_b[y] = in_b[y], x
                    if x < 0:
                        in_free[y] ^= swap
                        break
                    # x comes before u, so its row is complete and has an arc labelled b
                    y = out_b[x]
                    out_a[x], out_b[x] = y, out_a[x]
                else:
                    raise RotmapsError(f"alternating path from vertex {w + 1} crossed "
                                       f"more than {2 * n} arcs")
            out[a][u] = w
            into[a][w] = u
            free_u ^= bit
            in_free[w] = in_w ^ bit

    entries = np.array(out, dtype=np.int64).T.copy()  # label-major to one row per vertex
    entries += 1
    return _check_labels(scan, entries)
