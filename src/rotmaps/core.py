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
cached on the map, so each map is paired once.  That sort alone decides
validity: a table it refuses is sorted once more, by its row keys, only to
find its defects (:func:`_check`).  A report counts its defects at once and
names them on first read: its ``violations`` keep the located defects as
arrays, answer ``len`` and ``bool`` from their counts, and build every
message through one builder (:func:`_violations`) only when iterated or
indexed, so a caller that asks only whether a map is consistent formats none.

All vertex ids and ports are 1-indexed, here and in every file format.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import functools
import itertools

import numpy as np

from .exceptions import InvalidRotationMapError, MalformedInputError, ParameterError

__all__ = [
    "RotationMatrix",
    "Violation",
    "ValidationReport",
    "validate",
    "is_consistent",
    "to_full_form",
]

# the darts of Q20, the largest hypercube: the cap on every generated table,
# and on the n*d that a .rot or .perm header claims
MAX_DARTS = 20 * 2**20


def _require_darts(darts: int, what: str) -> None:
    """Raise ParameterError when a table of ``darts`` darts would exceed MAX_DARTS."""
    if darts > MAX_DARTS:
        raise ParameterError(f"{what} has {darts} darts, above the limit of {MAX_DARTS}")


def _equal_by(*fields: str):
    """Class decorator: ``==`` and ``hash`` by the values of ``fields``, a table last.

    Two tables are equal when their shapes are and ``np.array_equal`` holds,
    and a table is hashed as its shape and bytes; the other fields are
    compared and hashed as they are.
    """
    def decorate(cls):
        def __eq__(self, other):
            if not isinstance(other, cls):
                return NotImplemented
            *mine, a = (getattr(self, name) for name in fields)
            *theirs, b = (getattr(other, name) for name in fields)
            return mine == theirs and a.shape == b.shape and bool(np.array_equal(a, b))

        def __hash__(self):
            *scalars, table = (getattr(self, name) for name in fields)
            return hash((*scalars, table.shape, table.tobytes()))

        cls.__eq__, cls.__hash__ = __eq__, __hash__
        return cls

    return decorate


@_equal_by("entries")
@dataclasses.dataclass(frozen=True, eq=False)
class RotationMatrix:
    """Matrix form of a rotation map.

    ``entries[v-1, i-1] == w`` says the i-th edge leaving vertex v enters
    vertex w.  A read-only, C-contiguous int64 table that owns its data is
    adopted as it is; any other is copied into one (:func:`_frozen`).
    Construction only enforces shape and value range; use
    :func:`validate` for the structural checks (self-loops, row
    duplicates, symmetry).  The constructor checks every table it is
    given; the package's own producers (the generators, the product, the
    row scan and the solvers) hand over tables they have proven well
    formed, fresh and of its dtype, which are frozen and adopted as they
    are, without those checks.
    """

    entries: np.ndarray
    _dtype = np.int64

    def __post_init__(self):
        arr = _array(self.entries, "rotation table")
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
        arr = _frozen(arr, self._dtype)
        lo, hi = int(arr.min()), int(arr.max())
        if lo < 1 or hi > n:
            bad = lo if lo < 1 else hi
            raise MalformedInputError(f"vertex id {bad} outside 1..{n} in rotation table")
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
        valid = self._ports is not None
        defects = _Defects(([] if valid else _check(self.entries)) + _column_repeats(self.entries))
        return ValidationReport(is_valid_map=valid, is_consistent=valid and not defects,
                                violations=defects)

    def __repr__(self):
        return f"RotationMatrix(num_vertices={self.num_vertices}, degree={self.degree})"


class Violation(collections.namedtuple("Violation", ["kind", "location", "message"])):
    """One structural defect, located with 1-indexed coordinates.

    kind / location pairs:
      ``self-loop``            (row, column)
      ``duplicate-in-row``     (row, vertex)
      ``asymmetric-incidence`` (row, vertex)
      ``duplicate-in-column``  (column, vertex)

    A named tuple, so that a report of many defects is named at the cost of
    tuples: it is immutable and hashable, unpacks into its three fields,
    and equals a plain tuple of them.  ``str`` gives the message.  A report
    builds its violations only when they are read (:class:`ValidationReport`).
    """

    __slots__ = ()

    def __str__(self):
        return self.message


@dataclasses.dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`: map validity, consistency, and every defect found.

    ``violations`` is a read-only sequence of :class:`Violation`, map defects
    first.  It is counted when the report is made and named on first read:
    ``len``, ``bool`` and the two verdicts read the counts, index 0 names
    the first defect alone until then, and any other first read builds
    every ``Violation`` once and keeps them.  It equals, hashes and prints
    like the tuple of its items, so two reports with the same verdicts and
    defects are equal whether their violations were read or not, or given
    as a plain tuple.
    """

    is_valid_map: bool
    is_consistent: bool
    violations: collections.abc.Sequence[Violation]


class _Defects(collections.abc.Sequence):
    """The ``violations`` of a report (:class:`ValidationReport`).

    Holds the ``(kind, template, columns)`` groups of :func:`_check` and
    :func:`_column_repeats` until the first read names them.  Index 0 read
    before that names only the first row of the first non-empty group and
    keeps nothing: a refused table reports its first map defect alone.
    """

    __slots__ = ("_groups", "_counts", "_named")

    def __init__(self, groups):
        self._groups = groups
        self._counts = {kind: columns[0].size for kind, _, columns in groups}
        self._named = None

    def _items(self) -> tuple[Violation, ...]:
        if self._named is None:
            self._named = tuple(itertools.chain.from_iterable(
                _violations(kind, template, *columns) for kind, template, columns in self._groups))
            self._groups = None  # the arrays are not needed once named
        return self._named

    def __len__(self):
        return sum(self._counts.values())

    def __getitem__(self, index):
        if index == 0 and self._named is None and len(self):
            kind, template, columns = next(group for group in self._groups if group[2][0].size)
            return _violations(kind, template, *(column[:1] for column in columns))[0]
        return self._items()[index]

    def __iter__(self):
        return iter(self._items())

    def __eq__(self, other):
        if not isinstance(other, (tuple, _Defects)):
            return NotImplemented
        return len(self) == len(other) and self._items() == tuple(other)

    def __hash__(self):
        return hash(self._items())

    def __repr__(self):
        return repr(self._items())


def validate(rot: RotationMatrix) -> ValidationReport:
    """Report every structural defect of a rotation table.

    The map is valid when it describes a simple regular graph: no self-loops,
    no repeated entry within a row, and w appears in row v exactly as often
    as v appears in row w.  It is additionally consistent when every column
    is a permutation of the vertex set, i.e. no vertex repeats in a column.

    One sort of the n*d edge keys recognizes a valid map and pairs its darts,
    and its column repeats are counted in one pass; a table that is not one
    has its row keys sorted too, to find its defects.  Either way this costs
    O(n*d*log(n*d)) time in O(n*d) memory, once: the report is cached on the map.
    The defects are counted here and named only when the report's
    ``violations`` are first iterated or indexed; ``len`` of them, and the
    verdicts, format no message.
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


def _violations(kind: str, template: str, *columns: np.ndarray) -> list[Violation]:
    """One ``kind`` defect per row of ``columns``, located at its first two values.

    Every message comes from one %-format of ``template``, repeated once per
    row, over all the columns' values.
    """
    values = np.stack(columns, axis=1).ravel().tolist()
    messages = ((template + "\n") * len(columns[0]) % tuple(values)).splitlines()
    return list(map(Violation, itertools.repeat(kind),
                    zip(columns[0].tolist(), columns[1].tolist()), messages))


def _column_repeats(ent: np.ndarray) -> list[tuple]:
    """The ``duplicate-in-column`` group, counted over the keys i*n + (w-1) in ascending order."""
    n, d = ent.shape
    keys = ent - 1
    keys += np.arange(d) * n
    counts = np.bincount(keys.ravel(), minlength=n * d)
    del keys
    (rep,) = np.nonzero(counts > 1)
    return [("duplicate-in-column", "duplicate-in-column at column %d: vertex %d appears %d times",
             (rep // n + 1, rep % n + 1, counts[rep]))]


def _check(ent: np.ndarray) -> list[tuple]:
    """The map defect groups of a table :func:`_pair` refuses: self-loops, row repeats, asymmetry.

    Found by sorting the row keys, in O(n*d*log(n*d)) time and O(n*d) memory.
    """
    n, d = ent.shape
    rows, cols = np.nonzero(ent == np.arange(1, n + 1)[:, None])
    # sorted keys v*n + (w-1), one per (row, vertex) pair, and their counts
    keys, counts = np.unique(np.arange(n)[:, None] * n + (ent - 1), return_counts=True)
    # the reverse pair (w, v) of key v*n + (w-1) has key (w-1)*n + v; absent keys count 0
    rev = keys % n * n + keys // n
    pos = np.minimum(np.searchsorted(keys, rev), keys.size - 1)
    back = np.where(keys[pos] == rev, counts[pos], 0)
    v, w = keys // n + 1, keys % n + 1
    rep, asym = counts > 1, counts > back
    return [
        ("self-loop", "self-loop at row %d, column %d", (rows + 1, cols + 1)),
        ("duplicate-in-row", "duplicate-in-row at row %d: vertex %d appears %d times",
         (v[rep], w[rep], counts[rep])),
        ("asymmetric-incidence",
         "asymmetric-incidence at row %d: vertex %d appears %d times "
         "but row %d lists vertex %d %d times",
         (v[asym], w[asym], counts[asym], w[asym], v[asym], back[asym])),
    ]


def _require_valid(rot: RotationMatrix) -> ValidationReport:
    """Validate and raise if the table is not a valid rotation map."""
    report = validate(rot)
    if not report.is_valid_map:  # the map defects come first, and there is at least one
        defects = report.violations
        more = len(defects) - defects._counts["duplicate-in-column"] - 1
        extra = f" (+{more} more)" if more else ""
        raise InvalidRotationMapError(f"not a valid rotation map: {defects[0]}{extra}",
                                      violations=defects)
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


def _array(data, what: str, dtype=None) -> np.ndarray:
    """``np.asarray(data, dtype)``; a ragged or unconvertible ``data`` is a malformed ``what``."""
    try:
        return np.asarray(data, dtype=dtype)
    except (ValueError, TypeError) as exc:
        raise MalformedInputError(f"{what} is not a rectangular array of numbers: {exc}") from None


def _adopt(cls, **fields):
    """A ``cls`` holding ``fields``, made without the checks of its constructor.

    Only for a table the package has built itself and proven well formed,
    on which those checks could not fail.  Each array field must be a fresh
    C-contiguous array of the class's ``_dtype`` that owns its data, as
    :func:`_frozen` would keep; it is made read-only and adopted as it is.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)
    return obj


def _frozen(arr: np.ndarray, dtype) -> np.ndarray:
    """``arr`` itself if it is a read-only, C-contiguous ``dtype`` array that owns its data.

    Any other array is copied into one.  An adopted array must not be made
    writable again: the object that adopts it relies on it never changing.
    """
    if (arr.dtype != dtype or arr.flags.writeable or not arr.flags.c_contiguous
            or not arr.flags.owndata):
        arr = arr.astype(dtype, order="C")
        arr.setflags(write=False)
    return arr
