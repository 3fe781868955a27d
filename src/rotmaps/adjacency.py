"""Adjacency-matrix algebra for simple regular graphs.

Covers the round trip between rotation maps and dense adjacency matrices,
the Kronecker-sum Cartesian product, spectra via LAPACK ``eigvalsh``, and
the structural checks on products (vertex count, regularity, edge count,
spectrum additivity).  Matrices are dense, one byte per cell: n^2 bytes,
built in one array with no wider temporaries and adopted without a copy by
AdjacencyMatrix, whose 0/1 check is one max() over the cells.  A matrix of
more than MAX_ADJ_VERTICES vertices is refused before it is built.  A
spectrum takes O(n^3) time and a float64 copy of 8 n^2 bytes, so graphs of
more than MAX_SPECTRUM_VERTICES vertices are refused before it is made.
"""

from __future__ import annotations

import dataclasses
import functools
import numbers

import numpy as np

from .core import RotationMatrix, _adopt, _array, _equal_by, _frozen, _require_valid
from .exceptions import ConvergenceError, MalformedInputError, ParameterError, RegularityError

__all__ = [
    "AdjacencyMatrix",
    "Spectrum",
    "ProductPropertyReport",
    "rotation_from_adjacency",
    "adjacency_from_rotation",
    "cartesian_adjacency",
    "spectrum",
    "product_property_check",
]

# a 256 MB matrix, whose 512 MB canonical .adj text `rotmap solve` and
# `rotmap from-adjacency` read at a peak of 1.33 GiB of address space (VmPeak
# of C160xC100 under a 3 GiB RLIMIT_AS); text in another layout is read after
# two more copies of it
MAX_ADJ_VERTICES = 16_000
# eigvalsh holds two float64 copies, 16 n^2 bytes: `rotmap spectrum` peaks at
# about 1.9 GB of address space at this order
MAX_SPECTRUM_VERTICES = 10_000


@_equal_by("matrix")
@dataclasses.dataclass(frozen=True, eq=False)
class AdjacencyMatrix:
    """Dense symmetric 0/1 adjacency matrix of a simple graph on >= 2 vertices.

    ``matrix`` is read-only uint8, one byte per cell.  Boolean and integer
    input of any width is accepted; each cell must be 0 or 1, which one
    max() over the input read as unsigned checks, with no n x n temporary.
    A read-only, C-contiguous uint8 matrix that owns its data is then
    adopted as it is; any other is copied into one.
    Symmetry and a zero diagonal are enforced at construction; regularity
    is checked on demand by :meth:`degree`.  The constructor checks every
    matrix it is given; :func:`adjacency_from_rotation` and
    :func:`cartesian_adjacency` hand over matrices they have proven well
    formed, fresh and of its dtype, which are frozen and adopted as they
    are, without those checks.
    """

    matrix: np.ndarray
    _dtype = np.uint8

    def __post_init__(self):
        arr = _array(self.matrix, "adjacency matrix")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise MalformedInputError(f"adjacency matrix must be square, got shape {arr.shape}")
        n = arr.shape[0]
        if n < 2:
            raise MalformedInputError(f"adjacency matrix needs at least 2 vertices, got {n}")
        if arr.dtype.kind not in "biu":
            raise MalformedInputError("adjacency entries must be integers")
        if arr.dtype.kind == "i":  # read as unsigned, a negative cell is above 1
            arr = arr.view(arr.dtype.str.replace("i", "u"))
        if arr.max() > 1:
            raise MalformedInputError("adjacency entries must be 0 or 1")
        arr = _frozen(arr, self._dtype)
        if np.any(np.diag(arr) != 0):
            v = int(np.nonzero(np.diag(arr))[0][0]) + 1
            raise MalformedInputError(f"nonzero diagonal at vertex {v} (self-loops not allowed)")
        # tile by tile, so that each tile and its mirror are read row by row
        if not all(np.array_equal(arr[i:i + 512, j:j + 512], arr[j:j + 512, i:i + 512].T)
                   for i in range(0, n, 512) for j in range(i, n, 512)):
            v, w = (int(x) + 1 for x in np.argwhere(arr != arr.T)[0])
            raise MalformedInputError(f"adjacency matrix not symmetric at ({v}, {w})")
        object.__setattr__(self, "matrix", arr)

    @property
    def order(self) -> int:
        return int(self.matrix.shape[0])

    def degree(self) -> int:
        """Common row sum; raises RegularityError when rows disagree."""
        return _common_degree(np.count_nonzero(self.matrix.view(bool), axis=1))

    @functools.cached_property
    def _scan(self) -> RotationMatrix:
        # one flat boolean scan, several times faster than np.nonzero on n x n
        # uint8; the degrees are the gaps between the row starts in its output
        n = self.order
        cells = np.flatnonzero(self.matrix.view(bool))
        d = _common_degree(np.diff(np.searchsorted(cells, np.arange(0, n * n + 1, n))))
        if d < 1:
            raise RegularityError("graph has no edges; a rotation map needs degree at least 1")
        table = np.empty((n, d), dtype=np.int64)  # cells is a view: its table is fresh
        np.remainder(cells, n, out=table.reshape(-1))
        table += 1

        def pairing():
            # the darts come tail by tail, so a stable sort by head lists those
            # entering w by their tails, as row w lists them: the k-th is the
            # partner of dart (w, k), and the sort's output, an involution, gives
            # each dart's partner; a radix sort where the heads fit 16 bits
            ports = np.argsort(table.astype(np.min_scalar_type(n)), axis=None, kind="stable")
            ports %= d
            ports += 1
            return ports.reshape(n, d)

        return _adopt(RotationMatrix, entries=table, _pairing=pairing)

    def edge_count(self) -> int:
        return int(np.count_nonzero(self.matrix)) // 2

    def __repr__(self):
        return f"AdjacencyMatrix(order={self.order})"


def _common_degree(degrees: np.ndarray) -> int:
    """The one value in ``degrees``; raises RegularityError when they differ."""
    if not (degrees == degrees[0]).all():
        raise RegularityError(
            f"graph is not regular: vertex degrees range over {np.unique(degrees).tolist()}"
        )
    return int(degrees[0])


@dataclasses.dataclass(frozen=True, eq=False)
class Spectrum:
    """All eigenvalues of a symmetric matrix, sorted nonincreasing.

    ``tolerance`` records the accuracy target the values were computed to.
    :func:`spectrum` hands over, unchecked (``core._adopt``), a fresh descending copy of
    LAPACK's ascending output, on which the sort and NaN checks here cannot fail.
    """

    values: np.ndarray
    tolerance: float

    def __post_init__(self):
        vals = _array(self.values, "spectrum", np.float64)
        if vals.ndim != 1 or vals.size == 0:
            raise MalformedInputError(f"spectrum must be a nonempty vector, got shape {vals.shape}")
        # NaN fails every comparison, and each value but a lone one is in a difference
        if not (np.diff(vals) <= 0).all() or np.isnan(vals[0]):
            raise MalformedInputError("spectrum values must be sorted nonincreasing, with no NaN")
        if not isinstance(self.tolerance, numbers.Real):
            raise MalformedInputError(f"tolerance must be a real number, got {self.tolerance!r}")
        if not self.tolerance >= 0:  # also false for NaN
            raise MalformedInputError("tolerance must be nonnegative")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return int(self.values.size)

    def __repr__(self):
        return f"Spectrum(size={len(self)}, tolerance={self.tolerance:g})"


def rotation_from_adjacency(adj: AdjacencyMatrix) -> RotationMatrix:
    """Row-scan reading: row v lists the neighbors of v in increasing order.

    Always yields a valid map, but for connected graphs of degree >= 2 never
    a consistent one: every neighbor of vertex 1 lists vertex 1 first, so
    vertex 1 repeats in column 1 (and likewise the last vertex in the last
    column).  Raises RegularityError when the graph is not regular or has no
    edges.

    The map is made by one scan of the matrix, which also finds the degrees,
    and is cached on the matrix as a map's return ports are cached on the
    map: every call on the same matrix, and so both solvers, returns the
    same map, and its validation report is cached on it in turn.  It comes
    paired by one stable sort of its heads, a radix sort in O(n*d) up to
    65 536 vertices, run only when the map is validated or solved.  It
    keeps 8*n*d bytes beside the n^2 matrix for as long as the matrix
    lives, and 8*n*d more for its return ports once they are found.
    """
    return adj._scan


def adjacency_from_rotation(rot: RotationMatrix) -> AdjacencyMatrix:
    """Adjacency matrix of the graph a valid rotation map describes."""
    n, d = rot.entries.shape
    _require_order(n, "adjacency matrix", MAX_ADJ_VERTICES)
    _require_valid(rot)
    arr = np.zeros((n, n), dtype=np.uint8)
    arr[np.repeat(np.arange(n), d), rot.entries.ravel() - 1] = 1
    return _adopt(AdjacencyMatrix, matrix=arr)  # a valid map's matrix, adopted unchecked


def cartesian_adjacency(a1: AdjacencyMatrix, a2: AdjacencyMatrix) -> AdjacencyMatrix:
    """Box-product adjacency as a Kronecker sum, in cloud-compatible vertex order.

    Product vertex (i-1)*|V1| + j stands for vertex j of the first factor
    inside copy i, so consecutive index ranges are copies of the first
    factor, exactly as the rotation-map product lays its clouds out.  In
    that numbering the Kronecker sum reads A2 (x) I + I (x) A1; the swapped
    ordering would enumerate copies of the second factor instead and differ
    by a shuffle relabeling.  Both terms are written into one uint8 array,
    seen as blocks[i, j, i', j'] for the cell of (i, j) and (i', j').
    """
    a1.degree()
    a2.degree()
    n1, n2 = a1.order, a2.order
    _require_order(n1 * n2, "adjacency matrix", MAX_ADJ_VERTICES)
    out = np.zeros((n2 * n1, n2 * n1), dtype=np.uint8)
    blocks = out.reshape(n2, n1, n2, n1)
    copies, cloud = np.arange(n2), np.arange(n1)
    blocks[copies, :, copies, :] = a1.matrix  # I (x) A1: each copy of the first factor
    blocks[:, cloud, :, cloud] = a2.matrix  # A2 (x) I: vertex j of copy i to vertex j of copy i'
    return _adopt(AdjacencyMatrix, matrix=out)  # two disjoint matrices' sum, adopted unchecked


def spectrum(adj: AdjacencyMatrix) -> Spectrum:
    """All eigenvalues of the adjacency matrix, nonincreasing.

    LAPACK's symmetric eigensolver is backward stable, so each eigenvalue is
    accurate to about eps * max|lambda|; that bound is the result's
    ``tolerance``.  Raises ConvergenceError if LAPACK fails to converge, and
    ParameterError, before any copy, above MAX_SPECTRUM_VERTICES vertices.
    """
    _require_order(adj.order, "spectrum", MAX_SPECTRUM_VERTICES)
    try:
        values = np.linalg.eigvalsh(adj.matrix.astype(np.float64))[::-1].copy()
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc
    tolerance = float(np.finfo(np.float64).eps * np.max(np.abs(values)))
    return _adopt(Spectrum, values=values, tolerance=tolerance)


def _require_order(n: int, what: str, limit: int) -> None:
    if n > limit:
        raise ParameterError(f"{what} of {n} vertices is above the limit of {limit}")


@dataclasses.dataclass(frozen=True)
class ProductPropertyReport:
    """Checked guarantees of a box product against its factors.

    Each guarantee is recorded as two figures; :meth:`failures` states the
    four checks on them.
    """

    vertices_expected: int
    vertices_actual: int
    degree_expected: int
    degree_actual: int
    edges_expected: int
    edges_actual: int
    spectrum_deviation: float
    spectrum_tolerance: float

    @property
    def all_hold(self) -> bool:
        return not self.failures()

    def failures(self) -> tuple[str, ...]:
        """Names of the guarantees that fail, in the order they are checked."""
        checks = (
            ("vertex-count", self.vertices_actual == self.vertices_expected),
            ("regularity", self.degree_actual == self.degree_expected),
            ("edge-count", self.edges_actual == self.edges_expected),
            ("spectrum-additivity", self.spectrum_deviation <= self.spectrum_tolerance),
        )
        return tuple(name for name, passed in checks if not passed)


def product_property_check(a1: AdjacencyMatrix, a2: AdjacencyMatrix, *,
                           spectrum_tol: float = 1e-8) -> ProductPropertyReport:
    """Verify the four box-product guarantees on cartesian_adjacency(a1, a2).

    Vertex count |V1|*|V2|, regularity d1+d2, edge count |V1|*|V2|*(d1+d2)/2,
    and additivity of the spectrum: the sorted product spectrum must match
    the sorted multiset {x + y} over factor eigenvalues within
    ``spectrum_tol``, which must be a nonnegative number.  Both hold
    |V1|*|V2| values, and ``spectrum_deviation`` is the largest absolute
    difference between them.
    """
    if not spectrum_tol >= 0:  # also rejects NaN
        raise ParameterError(f"spectrum tolerance must be a nonnegative number, got {spectrum_tol}")
    d1, d2 = a1.degree(), a2.degree()
    _require_order(a1.order * a2.order, "spectrum", MAX_SPECTRUM_VERTICES)  # before the product
    prod = cartesian_adjacency(a1, a2)
    expected = np.sort(np.add.outer(spectrum(a1).values, spectrum(a2).values), axis=None)[::-1]
    return ProductPropertyReport(
        vertices_expected=a1.order * a2.order,
        vertices_actual=prod.order,
        degree_expected=d1 + d2,
        degree_actual=prod.degree(),
        edges_expected=a1.order * a2.order * (d1 + d2) // 2,
        edges_actual=prod.edge_count(),
        spectrum_deviation=float(np.max(np.abs(spectrum(prod).values - expected))),
        spectrum_tolerance=spectrum_tol,
    )
