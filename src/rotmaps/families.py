"""Closed-form consistent rotation maps for standard graph families.

Each generator fixes one orientation convention once and for all, so the
tables it emits are reproducible byte for byte.  Each checks its own
parameter domain, and rejects a table of more than MAX_DARTS darts before
anything is allocated.  Every table is in range by construction, so its map
adopts it without the constructor's checks.  The command line maps family
names to generators.
"""

from __future__ import annotations

import numpy as np

from .core import MAX_DARTS, RotationMatrix, _adopt, _require_darts
from .exceptions import ParameterError

__all__ = [
    "cycle",
    "complete",
    "complete_bipartite",
    "generalized_petersen",
    "k2",
    "hypercube",
]

# Q20 has 2**20 vertices and 20 * 2**20 int64 entries (168 MB), and validating
# it sorts as many keys again; each further dimension more than doubles both.
MAX_HYPERCUBE_DIMENSION = 20


def cycle(n: int) -> RotationMatrix:
    """n-cycle: port 1 walks to the successor, port 2 back to the predecessor."""
    if n < 3:
        raise ParameterError(f"cycle needs n >= 3, got {n}")
    _require_darts(2 * n, f"cycle of {n} vertices")
    table = np.empty((n, 2), dtype=np.int64)  # filled in place and adopted by the map
    succ, pred = table.T
    pred.fill(1)
    np.cumsum(pred, out=pred)  # the vertex ids 1..n
    np.add(pred, 1, out=succ)
    succ[-1] = 1
    pred -= 1
    pred[0] = n
    return _adopt(RotationMatrix, entries=table)


def complete(n: int) -> RotationMatrix:
    """Complete graph: port i of vertex v steps i places around the circle.

    Columns 1 and n-1 coincide with the two cycle columns.
    """
    if n < 3:
        raise ParameterError(f"complete graph needs n >= 3, got {n}")
    _require_darts(n * (n - 1), f"complete graph on {n} vertices")
    v = np.arange(1, n + 1, dtype=np.int64)[:, None]
    i = np.arange(1, n, dtype=np.int64)[None, :]
    table = v - 1 + i  # filled in place and adopted by the map
    table %= n
    table += 1
    return _adopt(RotationMatrix, entries=table)


def complete_bipartite(n: int) -> RotationMatrix:
    """K(n,n) on 2n vertices, left side 1..n, right side n+1..2n.

    Port 1 is the horizontal edge (v to n+v), then ports advance around the
    opposite side; the right side mirrors the same pattern back.
    """
    if n < 2:
        raise ParameterError(f"complete bipartite graph needs n >= 2, got {n}")
    _require_darts(2 * n * n, f"complete bipartite graph K({n},{n})")
    v = np.arange(1, n + 1, dtype=np.int64)[:, None]
    k = np.arange(1, n + 1, dtype=np.int64)[None, :]
    left = n + (v + k - 2) % n + 1
    right = (v + k - 2) % n + 1
    table = np.vstack([left, right])
    return _adopt(RotationMatrix, entries=table)


def generalized_petersen(n: int, s: int) -> RotationMatrix:
    """GP(n, s): outer n-cycle, spokes on port 2, inner cycle stepped by s.

    Cubic on 2n vertices.  Port 1 advances along the own ring (outer by 1,
    inner by s), port 3 goes back; the spoke j <-> n+j carries port 2 at
    both ends.
    """
    if n < 3:
        raise ParameterError(f"generalized Petersen graph needs n >= 3, got {n}")
    max_s = (n - 1) // 2
    if not 1 <= s <= max_s:
        extra = " (2s = n would double the inner edges)" if 2 * s == n else ""
        raise ParameterError(f"inner step s={s} outside 1..{max_s} for n={n}{extra}")
    _require_darts(6 * n, f"generalized Petersen graph GP({n}, {s})")
    j = np.arange(1, n + 1, dtype=np.int64)
    outer = np.column_stack([j % n + 1, n + j, (j - 2) % n + 1])
    inner = np.column_stack([n + (j - 1 + s) % n + 1, j, n + (j - 1 - s) % n + 1])
    table = np.vstack([outer, inner])
    return _adopt(RotationMatrix, entries=table)


def k2() -> RotationMatrix:
    """The single edge on two vertices: the unique 1-regular map."""
    table = np.array([[2], [1]], dtype=np.int64)
    return _adopt(RotationMatrix, entries=table)


def hypercube(m: int) -> RotationMatrix:
    """m-dimensional cube: port t of vertex v flips bit t-1 of v-1.

    This closed form equals the left fold of the box product over m copies
    of the edge, ``cartesian_rotation(...cartesian_rotation(k2(), k2())...,
    k2())``: coordinate m indexes the outermost clouds.  Dimensions above
    MAX_HYPERCUBE_DIMENSION are rejected before anything is allocated.
    """
    if m < 1:
        raise ParameterError(f"hypercube needs dimension >= 1, got {m}")
    if m > MAX_HYPERCUBE_DIMENSION:
        raise ParameterError(
            f"hypercube dimension {m} exceeds the limit of {MAX_HYPERCUBE_DIMENSION}"
        )
    v = np.arange(2**m, dtype=np.int64)[:, None]
    table = v ^ (1 << np.arange(m, dtype=np.int64))  # a fresh table, adopted by the map
    table += 1
    return _adopt(RotationMatrix, entries=table)

