"""Rotation maps in matrix form, their return ports, and structural checks.

A rotation map records, for every vertex v and every port i in 1..d, which
vertex the i-th edge leaving v enters.  The matrix form keeps only that
endpoint; the full form adds, beside it, the table of ports under which
each edge comes back, so dart (v, i) pairs with (entries[v-1, i-1],
ports[v-1, i-1]).
A map is *consistent* when every vertex receives its d incoming edges under
d pairwise distinct ports, which for a valid map is the same as every column
of the matrix form being a permutation of the vertex set.

All vertex ids and ports are 1-indexed, here and in every file format.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .exceptions import InvalidRotationMapError, MalformedInputError

__all__ = [
    "RotationMatrix",
    "Violation",
    "ValidationReport",
    "validate",
    "is_consistent",
    "to_full_form",
]


@dataclasses.dataclass(frozen=True, eq=False)
class RotationMatrix:
    """Matrix form of a rotation map.

    ``entries[v-1, i-1] == w`` says the i-th edge leaving vertex v enters
    vertex w.  The table is copied and made read-only at construction.
    Construction only enforces shape and value range; use :func:`validate`
    for the structural checks (self-loops, row duplicates, symmetry).
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries)
        if arr.ndim != 2:
            raise MalformedInputError(
                f"rotation table must be two-dimensional, got shape {arr.shape}"
            )
        n, d = arr.shape
        if n < 2:
            raise MalformedInputError(f"a rotation map needs at least 2 vertices, got {n}")
        if d < 1:
            raise MalformedInputError("a rotation map needs degree at least 1")
        if not np.issubdtype(arr.dtype, np.integer):
            raise MalformedInputError("rotation table entries must be integers")
        arr = arr.astype(np.int64)
        lo, hi = int(arr.min()), int(arr.max())
        if lo < 1 or hi > n:
            bad = lo if lo < 1 else hi
            raise MalformedInputError(f"vertex id {bad} outside 1..{n} in rotation table")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def num_vertices(self) -> int:
        return int(self.entries.shape[0])

    @property
    def degree(self) -> int:
        return int(self.entries.shape[1])

    @functools.cached_property
    def _report(self) -> ValidationReport:
        return _check(self.entries)

    def __eq__(self, other):
        if not isinstance(other, RotationMatrix):
            return NotImplemented
        return self.entries.shape == other.entries.shape and bool(
            np.array_equal(self.entries, other.entries)
        )

    def __hash__(self):
        return hash((self.entries.shape, self.entries.tobytes()))

    def __repr__(self):
        return f"RotationMatrix(num_vertices={self.num_vertices}, degree={self.degree})"


@dataclasses.dataclass(frozen=True)
class Violation:
    """One structural defect, located with 1-indexed coordinates.

    kind / location pairs:
      ``self-loop``            (row, column)
      ``duplicate-in-row``     (row, vertex)
      ``asymmetric-incidence`` (row, vertex)
      ``duplicate-in-column``  (column, vertex)
    """

    kind: str
    location: tuple[int, int]
    message: str

    def __str__(self):
        return self.message


MAP_VIOLATION_KINDS = ("self-loop", "duplicate-in-row", "asymmetric-incidence")


@dataclasses.dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`: map validity, consistency, and every defect found."""

    is_valid_map: bool
    is_consistent: bool
    violations: tuple[Violation, ...]


def validate(rot: RotationMatrix) -> ValidationReport:
    """Report every structural defect of a rotation table.

    The map is valid when it describes a simple regular graph: no self-loops,
    no repeated entry within a row, and w appears in row v exactly as often
    as v appears in row w.  It is additionally consistent when every column
    is a permutation of the vertex set, i.e. no vertex repeats in a column.

    The report is computed once per map and cached on it.
    """
    return rot._report


def _check(ent: np.ndarray) -> ValidationReport:
    """Defects found by sorting the dart keys: O(n*d*log(n*d)) time, O(n*d) memory."""
    n, d = ent.shape
    violations: list[Violation] = []

    def repeats(axis: str, index: np.ndarray):
        """Sorted keys index*n + (w-1), one per (row or column, vertex) pair, and their counts."""
        keys, counts = np.unique(index * n + (ent - 1), return_counts=True)
        for key, k in zip(keys[counts > 1].tolist(), counts[counts > 1].tolist()):
            a, w = divmod(key, n)
            kind = f"duplicate-in-{axis}"
            violations.append(
                Violation(kind, (a + 1, w + 1),
                          f"{kind} at {axis} {a + 1}: vertex {w + 1} appears {k} times")
            )
        return keys, counts

    for r, c in zip(*np.nonzero(ent == np.arange(1, n + 1)[:, None])):
        violations.append(
            Violation("self-loop", (int(r) + 1, int(c) + 1),
                      f"self-loop at row {r + 1}, column {c + 1}")
        )

    keys, counts = repeats("row", np.arange(n)[:, None])
    # the reverse pair (w, v) of key v*n + (w-1) has key (w-1)*n + v; absent keys count 0
    rev = keys % n * n + keys // n
    pos = np.minimum(np.searchsorted(keys, rev), keys.size - 1)
    back = np.where(keys[pos] == rev, counts[pos], 0)
    asym = counts > back
    for key, k, b in zip(keys[asym].tolist(), counts[asym].tolist(), back[asym].tolist()):
        v, w = divmod(key, n)
        violations.append(
            Violation(
                "asymmetric-incidence", (v + 1, w + 1),
                f"asymmetric-incidence at row {v + 1}: vertex {w + 1} appears "
                f"{k} times but row {w + 1} lists vertex {v + 1} {b} times",
            )
        )

    repeats("column", np.arange(d))

    is_valid = not any(v.kind in MAP_VIOLATION_KINDS for v in violations)
    return ValidationReport(is_valid_map=is_valid, is_consistent=is_valid and not violations,
                            violations=tuple(violations))


def _require_valid(rot: RotationMatrix) -> ValidationReport:
    """Validate and raise if the table is not a valid rotation map."""
    report = validate(rot)
    if not report.is_valid_map:
        structural = [v for v in report.violations if v.kind in MAP_VIOLATION_KINDS]
        extra = f" (+{len(structural) - 1} more)" if len(structural) > 1 else ""
        raise InvalidRotationMapError(
            f"not a valid rotation map: {structural[0]}{extra}",
            violations=report.violations,
        )
    return report


def is_consistent(rot: RotationMatrix) -> bool:
    """True when every column of the (valid) map is a permutation of the vertex set."""
    return _require_valid(rot).is_consistent


def to_full_form(rot: RotationMatrix) -> np.ndarray:
    """The read-only (n, d) int64 table of return ports: ``ports[v-1, i-1] == j``.

    The partner of dart (v, i) is (w, j) with w = ``rot.entries[v-1, i-1]``:
    row w lists v at port j.  Requires a valid map; there the partner port
    is unique because v appears exactly once in row w, and the pairing is an
    involution on all darts.
    """
    _require_valid(rot)
    ent = rot.entries
    n, d = ent.shape
    # dart (v, i) has key (v-1)*n + (w-1) and its partner (w, j) the reverse
    # key (w-1)*n + (v-1): one sort pairs them in O(n*d) memory
    keys = (np.arange(n)[:, None] * n + (ent - 1)).ravel()
    order = np.argsort(keys)
    partner = order[np.searchsorted(keys[order], (ent - 1) * n + np.arange(n)[:, None])]
    ports = partner % d + 1
    ports.setflags(write=False)
    return ports
