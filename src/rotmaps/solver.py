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

Each solution permutes the rows of the row-scan table, so it is paired
without a sort: its darts' partners are the scan's, relabelled
(:func:`_check_labels`), and only its column repeats are counted to find
it consistent.
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
    scan = rotation_from_adjacency(adjacency)
    n, d = scan.entries.shape
    heads = (scan.entries - 1).ravel().tolist()  # arc k leaves vertex k // d and enters heads[k]
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

    entries = np.empty_like(scan.entries)
    entries[np.arange(n).repeat(d), np.array(labels) - 1] = scan.entries.ravel()
    return _check_labels(scan, entries)


def _check_labels(scan: RotationMatrix, entries: np.ndarray) -> RotationMatrix:
    """The map of ``entries`` if each row permutes its row in ``scan`` and it is consistent.

    ``scan`` is the row-scan map, whose rows increase.  Arc k of row u in the
    scan sits at column lab[u, k] of ``entries``, so the partner of dart
    (u, lab[u, k]) is (w, lab[w, P[u, k] - 1]), where w and P are the arc's
    head and return port in the scan.  The map is adopted with that
    relabelling as its pairing, and :func:`validate` counts its column repeats.
    """
    lab = np.argsort(entries, axis=1)
    if np.array_equal(np.take_along_axis(entries, lab, axis=1), scan.entries):

        def pairing():
            back = (scan.entries - 1) * lab.shape[1] + scan._ports - 1  # (w, P[u, k] - 1)
            ports = np.empty(lab.shape, dtype=np.int64)
            np.put_along_axis(ports, lab, lab.take(back) + 1, axis=1)
            return ports

        rot = _adopt(RotationMatrix, entries=entries, _pairing=pairing)
        if validate(rot).is_consistent:
            return rot
    raise RotmapsError("the solver did not label every arc exactly once")


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

    The tables are label-major and keyed by each label's bit, 1 << c for
    label c + 1: ``tables[bit]`` is the pair (out, into), where ``out[u]``
    is the head of u's arc with that label and ``into[w]`` its tail, 2d
    lists in all, so no collection runs for them, and no arc turns a bit
    into a label number.  A walk fetches the four lists of its two labels
    once; each step reads one cell of each side, since the other label
    there is the arc it came along, and writes two.
    """
    scan = rotation_from_adjacency(adjacency)
    n, d = scan.entries.shape
    # tables[bit] = (out, into): out[u] is the head of u's arc labelled bit, into[w] its tail
    tables = {1 << c: ([-1] * n, [-1] * n) for c in range(d)}
    in_free = [(1 << d) - 1] * n  # bitmask of labels not yet entering each vertex

    for u, heads in enumerate((scan.entries - 1).tolist()):
        # rows before u are complete and rows after it empty, and no path
        # reaches u, so u's free labels and its out-arcs stay here meanwhile
        free_u = (1 << d) - 1  # labels not yet leaving u
        for w in heads:
            in_w = in_free[w]  # a path from w never comes back: only its swap changes this
            free = free_u & in_w  # the labels free at both ends
            if free:
                bit = free & -free  # the label taken, as a bit
            else:
                bit = free_u & -free_u  # a, the lowest label free at u
                b_bit = in_w & -in_w  # b, the lowest free at w
                # swap a and b at each vertex of the path while walking it; inner
                # vertices keep both labels, the two ends trade one for the other
                swap = bit | b_bit
                in_w ^= swap
                out_a, in_a = tables[bit]
                out_b, in_b = tables[b_bit]
                y, t = w, -1  # t: the tail of the arc labelled b into y, none at w
                for _ in range(n):  # a path meets each of the n in-sides at most once
                    x = in_a[y]
                    in_a[y] = t
                    in_b[y] = x
                    if x < 0:
                        in_free[y] ^= swap
                        break
                    # x comes before u, so its row is complete and has an arc labelled
                    # b; its arc labelled a enters y
                    out_a[x] = z = out_b[x]
                    out_b[x] = y
                    y, t = z, x
                else:
                    raise RotmapsError(f"alternating path from vertex {w + 1} crossed "
                                       f"more than {2 * n} arcs")
            out_c, into_c = tables[bit]
            out_c[u] = w
            into_c[w] = u
            free_u ^= bit
            in_free[w] = in_w ^ bit

    # label-major, in label order, to one row per vertex
    entries = np.array([out for out, _ in tables.values()], dtype=np.int64).T.copy()
    entries += 1
    return _check_labels(scan, entries)
