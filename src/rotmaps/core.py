"""Rotation maps in matrix form, their return ports, and structural checks.

A rotation map records, for every vertex v and every port i in 1..d, which
vertex the i-th edge leaving v enters.  The matrix form keeps only that
endpoint; the full form adds, beside it, the table of ports under which
each edge comes back, so dart (v, i) pairs with (entries[v-1, i-1],
ports[v-1, i-1]).
A map is *consistent* when every vertex receives its d incoming edges under
d pairwise distinct ports, which for a valid map is the same as every column
of the matrix form being a permutation of the vertex set.

One sort of the n*d edge keys recognizes a valid map and finds its return
ports (:func:`_pair`), in O(n*d*log(n*d)) time and O(n*d) memory; both are
cached on the map, so each map is paired once.  A table that is not a valid
map has its row keys sorted too, to name its defects (:func:`_check`).

All vertex ids and ports are 1-indexed, here and in every file format.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import itertools

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
    vertex w.  The table is copied and made read-only at construction,
    unless it is an int64 array that owns its data and is read-only
    already: that one is adopted as it is, and must not be made writable
    again.  Construction only enforces shape and value range; use
    :func:`validate` for the structural checks (self-loops, row
    duplicates, symmetry).
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
        if arr.dtype != np.int64 or arr.flags.writeable or not arr.flags.owndata:
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
    def _ports(self) -> np.ndarray | None:
        ports = _pair(self.entries)
        if ports is not None:
            ports.setflags(write=False)
        return ports

    @functools.cached_property
    def _report(self) -> ValidationReport:
        if self._ports is None:
            return _check(self.entries)
        column = _column_repeats(self.entries)
        return ValidationReport(is_valid_map=True, is_consistent=not column,
                                violations=tuple(column))

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


class Violation(collections.namedtuple("Violation", ["kind", "location", "message"])):
    """One structural defect, located with 1-indexed coordinates.

    kind / location pairs:
      ``self-loop``            (row, column)
      ``duplicate-in-row``     (row, vertex)
      ``asymmetric-incidence`` (row, vertex)
      ``duplicate-in-column``  (column, vertex)

    A named tuple, so that a report of many defects is built at the cost of
    tuples: it is immutable and hashable, unpacks into its three fields,
    and equals a plain tuple of them.  ``str`` gives the message.
    """

    __slots__ = ()

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

    One sort of the n*d edge keys recognizes a valid map and pairs its darts,
    and its column repeats are counted in one pass; a table that is not one
    has its row keys sorted too, to name its defects.  Either way this costs
    O(n*d*log(n*d)) time in O(n*d) memory, once: the report is cached on the map.
    """
    return rot._report


def _pair(ent: np.ndarray) -> np.ndarray | None:
    """Return ports of a valid map, found by one sort of edge keys; None if the table is not one.

    Dart v -> w has key 2*(min*n + max) + [v > w], min and max its ends, so
    one O(n*d*log(n*d)) sort in O(n*d) memory puts the two darts of each edge
    side by side, lower end first.  The table is a valid map exactly when the
    sorted keys come in pairs (2k, 2k+1); then the two darts of a pair give
    each other's ports, and no two keys tie.
    """
    n, d = ent.shape
    tails = np.arange(1, n + 1)[:, None]
    keys = np.minimum(ent, tails)
    keys *= n
    keys += np.maximum(ent, tails)
    keys *= 2
    keys += ent < tails
    darts = np.argsort(keys, axis=None)
    keys = keys.ravel()[darts]
    if keys.size % 2 or (keys[::2] % 2).any() or (keys[1::2] != keys[::2] + 1).any():
        return None
    del keys
    ports = np.empty(n * d, dtype=np.int64)
    ports[darts[::2]] = darts[1::2] % d + 1
    ports[darts[1::2]] = darts[::2] % d + 1
    return ports.reshape(n, d)


def _column_repeats(ent: np.ndarray) -> list[Violation]:
    """``duplicate-in-column`` defects, counted over the keys i*n + (w-1) in ascending order."""
    n, d = ent.shape
    keys = ent - 1
    keys += np.arange(d) * n
    counts = np.bincount(keys.ravel(), minlength=n * d)
    del keys
    (rep,) = np.nonzero(counts > 1)
    if not rep.size:  # a consistent map; the stack below costs more than the count
        return []
    found = np.stack([rep // n + 1, rep % n + 1, counts[rep]], axis=1)  # column, vertex, count
    # every message from one %-format of a repeated template, one line each
    messages = ("duplicate-in-column at column %d: vertex %d appears %d times\n" * len(found)
                % tuple(found.ravel().tolist())).splitlines()
    columns, vertices = found[:, 0].tolist(), found[:, 1].tolist()
    return list(map(Violation, itertools.repeat("duplicate-in-column"), zip(columns, vertices),
                    messages))


def _check(ent: np.ndarray) -> ValidationReport:
    """Every defect, found by sorting the row keys: O(n*d*log(n*d)) time, O(n*d) memory.

    Only tables that :func:`_pair` refuses come here, to have their defects named.
    """
    n, d = ent.shape
    violations: list[Violation] = []

    for r, c in zip(*np.nonzero(ent == np.arange(1, n + 1)[:, None])):
        violations.append(
            Violation("self-loop", (int(r) + 1, int(c) + 1),
                      f"self-loop at row {r + 1}, column {c + 1}")
        )

    # sorted keys v*n + (w-1), one per (row, vertex) pair, and their counts
    keys, counts = np.unique(np.arange(n)[:, None] * n + (ent - 1), return_counts=True)
    for key, k in zip(keys[counts > 1].tolist(), counts[counts > 1].tolist()):
        v, w = divmod(key, n)
        violations.append(
            Violation("duplicate-in-row", (v + 1, w + 1),
                      f"duplicate-in-row at row {v + 1}: vertex {w + 1} appears {k} times")
        )

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

    violations += _column_repeats(ent)

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
    involution on all darts.  The ports come from the sort of edge keys that
    validates the map and are cached on it: this call copies nothing.
    """
    _require_valid(rot)
    return rot._ports
