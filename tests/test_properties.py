"""Property tests of the table core, products, shifts, the matching solver and the file formats.

``reference_validate`` is the row-by-row validity check the vectorized
:func:`rotmaps.validate` replaced; the reports must agree exactly, in kinds,
locations, messages and order.  ``reference_full_form`` is the pairing by a
sort and search of the dart keys, independent of the one sort of edge keys
that pairs the darts in the library; the return ports must be equal.
Likewise ``parse_adj`` must agree with ``reference_adj_rows``, the
cell-by-cell read it used for non-canonical text, on every text, and
``parse_rot``/``parse_perm`` with the line-by-line ``reference_parse_rot``
and ``reference_parse_perm``, in the table or in the error message, also
at the byte pass's limits of token length and range, and
``format_rot``/``format_perm`` with the ``%``-format writer
``reference_format_rows``, and the value slots of ``_slots`` with
``reference_slots``, byte for byte, as must ``format_dot`` and
``format_json`` with ``reference_format_dot`` and ``reference_format_json``,
the per-edge ``%``-format and the ``json.dumps`` exports they replaced.
The references share no code with the byte pass that reads and refuses
.rot and .perm text, so a pass that wrongly refuses good text, or names
the wrong defect, fails these comparisons.  Canonical text, and CRLF .rot
and .perm text, must be read without the step for other layouts.
``solve_matching`` must write the same ``.rot`` text as
``reference_solve_matching``, the per-arc loop it replaced.  The maps the
package builds come paired by their producers: with the sort of
``core._pair`` refused, their ports, reports and shifts must still be
found, and equal those of a copy that the sort pairs.
"""

import dataclasses
import json
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rotmaps.io
from conftest import random_regular_adjacency
from rotmaps import (
    AdjacencyMatrix,
    InconsistentInputWarning,
    MalformedInputError,
    RegularityError,
    RotationMatrix,
    ShiftPermutation,
    ValidationReport,
    Violation,
    adjacency_from_rotation,
    build_shift,
    cartesian_adjacency,
    cartesian_rotation,
    complete,
    complete_bipartite,
    cycle,
    generalized_petersen,
    hypercube,
    is_consistent,
    k2,
    rotation_from_adjacency,
    solve_backtracking,
    solve_matching,
    to_full_form,
    validate,
    verify_unitary,
)
from rotmaps import core
from rotmaps.core import _adopt
from rotmaps.io import (
    _format_rows,
    _slots,
    _unsigned,
    format_adj,
    format_dot,
    format_json,
    format_perm,
    format_rot,
    parse_adj,
    parse_perm,
    parse_rot,
)

PROPERTY = settings(deadline=None, derandomize=True)


def reference_validate(table) -> ValidationReport:
    """Loop over rows, a dense n x n incidence count, then loop over columns."""
    ent = np.asarray(table, dtype=np.int64)
    n, d = ent.shape
    violations = []

    ids = np.arange(1, n + 1)
    for r, c in zip(*np.nonzero(ent == ids[:, None])):
        violations.append(
            Violation("self-loop", (int(r) + 1, int(c) + 1),
                      f"self-loop at row {r + 1}, column {c + 1}")
        )

    for v in range(n):
        vals, counts = np.unique(ent[v], return_counts=True)
        for w, k in zip(vals[counts > 1], counts[counts > 1]):
            violations.append(
                Violation("duplicate-in-row", (v + 1, int(w)),
                          f"duplicate-in-row at row {v + 1}: vertex {w} appears {k} times")
            )

    counts = np.zeros((n, n), dtype=np.int64)
    for v in range(n):
        np.add.at(counts[v], ent[v] - 1, 1)
    for v, w in zip(*np.nonzero(counts > counts.T)):
        violations.append(
            Violation(
                "asymmetric-incidence", (int(v) + 1, int(w) + 1),
                f"asymmetric-incidence at row {v + 1}: vertex {w + 1} appears "
                f"{counts[v, w]} times but row {w + 1} lists vertex {v + 1} "
                f"{counts[w, v]} times",
            )
        )

    for i in range(d):
        vals, cnt = np.unique(ent[:, i], return_counts=True)
        for w, k in zip(vals[cnt > 1], cnt[cnt > 1]):
            violations.append(
                Violation("duplicate-in-column", (i + 1, int(w)),
                          f"duplicate-in-column at column {i + 1}: vertex {w} appears {k} times")
            )

    structural = ("self-loop", "duplicate-in-row", "asymmetric-incidence")
    is_valid = not any(v.kind in structural for v in violations)
    return ValidationReport(
        is_valid_map=is_valid,
        is_consistent=is_valid and not violations,
        violations=tuple(violations),
    )


@st.composite
def tables(draw):
    """Any in-range table: n in 2..9, d in 1..5; almost never a valid map."""
    n = draw(st.integers(2, 9))
    d = draw(st.integers(1, 5))
    row = st.lists(st.integers(1, n), min_size=d, max_size=d)
    return draw(st.lists(row, min_size=n, max_size=n))


@st.composite
def regular_graphs(draw):
    """A seeded random regular graph: n in 2..9, d in 1..5."""
    n = draw(st.integers(2, 9))
    d = draw(st.integers(1, min(5, n - 1)).filter(lambda d: n * d % 2 == 0))
    return random_regular_adjacency(n, d, draw(st.integers(0, 2**16)))


@st.composite
def valid_maps(draw):
    """A random regular graph read row by row, then each row's ports shuffled.

    Always a valid map; consistent or not at random.
    """
    adj = draw(regular_graphs())
    n, d = adj.order, adj.degree()
    rows = rotation_from_adjacency(adj).entries
    perms = draw(st.lists(st.permutations(range(d)), min_size=n, max_size=n))
    return RotationMatrix(rows[np.arange(n)[:, None], np.array(perms)])


@PROPERTY
@given(tables())
def test_validate_matches_reference_on_random_tables(table):
    assert validate(RotationMatrix(table)) == reference_validate(table)


@PROPERTY
@given(valid_maps())
def test_validate_matches_reference_on_valid_maps(rot):
    report = validate(rot)
    assert report.is_valid_map
    assert report == reference_validate(rot.entries)


@PROPERTY
@given(valid_maps())
def test_full_form_is_an_involution(rot):
    ports = to_full_form(rot)
    n, d = rot.entries.shape
    assert not ports.flags.writeable
    w, j = rot.entries - 1, ports - 1
    assert np.array_equal(rot.entries[w, j], np.repeat(np.arange(1, n + 1), d).reshape(n, d))
    assert np.array_equal(ports[w, j], np.tile(np.arange(1, d + 1), (n, 1)))


def reference_full_form(rot):
    """Return ports by one sort of the dart keys and a search for each reverse key.

    Dart (v, i) has key (v-1)*n + (w-1) and its partner (w, j) the reverse
    key (w-1)*n + (v-1).
    """
    ent = rot.entries
    n, d = ent.shape
    keys = (np.arange(n)[:, None] * n + (ent - 1)).ravel()
    order = np.argsort(keys)
    partner = order[np.searchsorted(keys[order], (ent - 1) * n + np.arange(n)[:, None])]
    return partner % d + 1


@st.composite
def consistent_maps(draw):
    """A solved random regular graph, its columns permuted and its vertices relabelled.

    Always consistent: permuting columns keeps each one a permutation, and
    relabelling conjugates each column by the same permutation.
    """
    rot = solve_matching(draw(regular_graphs()))
    n, d = rot.entries.shape
    columns = np.array(draw(st.permutations(range(d))))
    label = np.array(draw(st.permutations(range(1, n + 1))))
    table = np.empty_like(rot.entries)
    table[label - 1] = label[rot.entries[:, columns] - 1]
    return RotationMatrix(table)


@PROPERTY
@given(valid_maps())
def test_full_form_matches_reference_on_valid_maps(rot):
    assert np.array_equal(to_full_form(rot), reference_full_form(rot))


@PROPERTY
@given(consistent_maps())
def test_full_form_matches_reference_on_consistent_maps(rot):
    assert validate(rot) == reference_validate(rot.entries)
    assert is_consistent(rot)
    assert np.array_equal(to_full_form(rot), reference_full_form(rot))


REFUSED_TABLES = {
    # every column is a permutation and every in-degree 2, but 1 -> 2 has no 2 -> 1
    "c5-steps-1-and-2": [[(v + 1) % 5 + 1, (v + 2) % 5 + 1] for v in range(5)],
    # the column swaps 1 and 2 and fixes 3, a self-loop
    "involution-with-fixed-point": [[2], [1], [3]],
    # both columns are the 3-cycle 1 -> 2 -> 3 -> 1, so every row repeats
    "row-duplicate-of-permutations": [[2, 2], [3, 3], [1, 1]],
    # no row repeats, but vertex 2 is entered twice and vertex 4 never
    "in-degree-not-d": [[2], [1], [2], [3]],
    # row 1 repeats vertex 3, yet each pair of sorted edge keys differs by 1:
    # one of the pairs starts on an odd key
    "row-duplicate-keys-one-apart": [[3, 3], [1, 3], [1, 2]],
}


@pytest.mark.parametrize("table", REFUSED_TABLES.values(), ids=REFUSED_TABLES)
def test_pairing_refuses_invalid_tables(table):
    assert core._pair(np.array(table)) is None
    report = validate(RotationMatrix(table))
    assert not report.is_valid_map
    assert report == reference_validate(table)


@st.composite
def nearly_valid_tables(draw):
    """A valid map with one entry changed to another vertex, so never a valid map itself."""
    table = draw(valid_maps()).entries.copy()
    n, d = table.shape
    v, i = draw(st.integers(0, n - 1)), draw(st.integers(0, d - 1))
    w = draw(st.integers(1, n - 1))
    table[v, i] = w + (w >= table[v, i])
    return table


@PROPERTY
@given(nearly_valid_tables())
def test_validate_matches_reference_one_entry_from_a_valid_map(table):
    report = validate(RotationMatrix(table))
    assert not report.is_valid_map
    assert report == reference_validate(table)


@PROPERTY
@given(tables())
def test_rot_round_trip_any_table(table):
    rot = RotationMatrix(table)
    text = format_rot(rot)
    assert parse_rot(text, require_valid_map=False) == rot
    assert format_rot(parse_rot(text, require_valid_map=False)) == text


@PROPERTY
@given(valid_maps())
def test_rot_and_perm_round_trip(rot):
    text = format_rot(rot)
    assert parse_rot(text) == rot
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InconsistentInputWarning)
        shift = build_shift(rot)
    perm = format_perm(shift)
    parsed = parse_perm(perm)
    assert np.array_equal(parsed.images, shift.images)
    assert parsed == shift and hash(parsed) == hash(shift)
    assert format_perm(parsed) == perm


@PROPERTY
@given(regular_graphs())
def test_row_scan_matches_two_dimensional_nonzero(adj):
    # the flat boolean scan must list each row's neighbours as np.nonzero does
    mat = adj.matrix.astype(np.int64)
    expected = np.nonzero(mat)[1].reshape(adj.order, -1) + 1
    assert np.array_equal(rotation_from_adjacency(adj).entries, expected)


@PROPERTY
@given(regular_graphs())
def test_solve_matching_recovers_the_graph(adj):
    rot = solve_matching(adj)
    assert is_consistent(rot)
    assert adjacency_from_rotation(rot) == adj
    assert solve_matching(adj) == rot


@PROPERTY
@given(regular_graphs())
def test_solve_backtracking_recovers_the_graph(adj):
    # the default budget of 10^6 nodes is over 250 times the most that any of
    # 3 000 sampled graphs of this strategy needed (3 754 nodes)
    rot = solve_backtracking(adj)
    assert is_consistent(rot)
    assert adjacency_from_rotation(rot) == adj
    assert solve_backtracking(adj) == rot


def reference_solve_matching(adjacency):
    """The per-arc recolouring loop, one bitmask list per side, verbatim from before
    the solver kept each row's free labels and out-row in locals."""
    scan = rotation_from_adjacency(adjacency).entries
    n, d = scan.shape
    out = [[-1] * d for _ in range(n)]  # out[u][c]: head of u's arc labelled c
    into = [[-1] * d for _ in range(n)]  # into[w][c]: tail of w's arc labelled c
    out_free = [(1 << d) - 1] * n  # bitmask of labels not yet leaving each vertex
    in_free = [(1 << d) - 1] * n   # bitmask of labels not yet entering each vertex

    for k, w in enumerate((scan - 1).ravel().tolist()):
        u = k // d
        free = out_free[u] & in_free[w]
        if free:
            a = (free & -free).bit_length() - 1
        else:
            a = (out_free[u] & -out_free[u]).bit_length() - 1
            b = (in_free[w] & -in_free[w]).bit_length() - 1
            # swap a and b at each vertex of the path while walking it; inner
            # vertices keep both labels, the two ends trade one for the other
            swap = 1 << a | 1 << b
            in_free[w] ^= swap
            y = w
            while True:
                row = into[y]
                x = row[a]
                row[a], row[b] = row[b], row[a]
                if x < 0:
                    in_free[y] ^= swap
                    break
                row = out[x]
                y = row[b]
                row[a], row[b] = row[b], row[a]
                if y < 0:
                    out_free[x] ^= swap
                    break
        out[u][a] = w
        into[w][a] = u
        out_free[u] &= ~(1 << a)
        in_free[w] &= ~(1 << a)

    return RotationMatrix(np.array(out, dtype=np.int64) + 1)


def relabelled(rot, seed):
    """The same graph with its vertices renamed by a seeded random permutation."""
    name = np.random.default_rng(seed).permutation(rot.num_vertices) + 1
    table = np.empty_like(rot.entries)
    table[name - 1] = name[rot.entries - 1]
    return RotationMatrix(table)


@PROPERTY
@given(regular_graphs())
def test_solve_matching_matches_reference(adj):
    assert format_rot(solve_matching(adj)) == format_rot(reference_solve_matching(adj))


@pytest.mark.parametrize("rot", [
    relabelled(cartesian_rotation(cycle(30), cycle(20)), seed=3020),
    relabelled(hypercube(8), seed=8),
    relabelled(complete(40), seed=40),
    complete_bipartite(12),
    relabelled(cartesian_rotation(cartesian_rotation(complete(3), cycle(3)), cycle(50)), seed=450),
    relabelled(generalized_petersen(50, 3), seed=503),
], ids=["C30xC20", "Q8", "K40", "K12,12", "K3xC3xC50", "GP50,3"])
def test_solve_matching_matches_reference_on_relabelled_graphs(rot):
    adj = adjacency_from_rotation(rot)
    assert format_rot(solve_matching(adj)) == format_rot(reference_solve_matching(adj))


@st.composite
def symmetric_matrices(draw):
    """Any simple graph on 2..9 vertices: regular, irregular or edgeless."""
    n = draw(st.integers(2, 9))
    upper = np.triu(np.array(draw(st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n)),
                             dtype=np.uint8).reshape(n, n), 1)
    return AdjacencyMatrix(upper + upper.T)


@PROPERTY
@given(symmetric_matrices())
def test_row_scan_agrees_with_degree(adj):
    # the scan takes its degrees from its own output, not from degree()
    try:
        d = adj.degree()
    except RegularityError as exc:
        with pytest.raises(RegularityError, match=re.escape(str(exc))):
            rotation_from_adjacency(adj)
        return
    if d == 0:
        with pytest.raises(RegularityError, match="graph has no edges"):
            rotation_from_adjacency(adj)
    else:
        expected = np.nonzero(adj.matrix)[1].reshape(adj.order, d) + 1
        assert np.array_equal(rotation_from_adjacency(adj).entries, expected)


def box_product_edges(a1, a2):
    """Vertex pairs of the box product, vertex (g, h) numbered (h-1)*|V_1| + g.

    (g, h) ~ (g', h) iff g ~ g', and (g, h) ~ (g, h') iff h ~ h'.
    """
    n1, n2 = a1.order, a2.order
    edges = set()
    for h in range(1, n2 + 1):
        for g in range(1, n1 + 1):
            for g2 in range(1, n1 + 1):
                if a1.matrix[g - 1, g2 - 1]:
                    edges.add(((h - 1) * n1 + g, (h - 1) * n1 + g2))
            for h2 in range(1, n2 + 1):
                if a2.matrix[h - 1, h2 - 1]:
                    edges.add(((h - 1) * n1 + g, (h2 - 1) * n1 + g))
    return edges


@PROPERTY
@given(regular_graphs(), regular_graphs())
def test_product_of_solved_maps_is_the_consistent_box_product(a1, a2):
    prod = cartesian_rotation(solve_matching(a1), solve_matching(a2))
    assert is_consistent(prod)
    pairs = {(v + 1, int(w)) for v, row in enumerate(prod.entries) for w in row}
    assert pairs == box_product_edges(a1, a2)
    rows, cols = np.nonzero(cartesian_adjacency(a1, a2).matrix)
    assert set(zip((rows + 1).tolist(), (cols + 1).tolist())) == box_product_edges(a1, a2)


@PROPERTY
@given(valid_maps(), valid_maps())
def test_product_of_valid_maps_is_valid(r1, r2):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InconsistentInputWarning)
        prod = cartesian_rotation(r1, r2)
    assert validate(prod).is_valid_map


@PROPERTY
@given(valid_maps())
def test_shift_is_an_involutive_permutation(rot):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InconsistentInputWarning)
        shift = build_shift(rot)
    assert verify_unitary(shift)
    images = shift.images
    assert np.array_equal(images[images - 1], np.arange(1, images.size + 1))


# The tables the package builds itself reach their type through core._adopt,
# without the constructor's checks.  Each must be handed over as a table the
# type adopts as it is: read-only, C-contiguous, owning its data and of the
# class's dtype; and the public constructor must take it unchanged.  A map
# must come with its pairing, whose ports must be those the sort finds.
ADOPTERS = [module for name, module in sorted(sys.modules.items())
            if name.startswith("rotmaps.") and getattr(module, "_adopt", None) is _adopt]


def adopted(make):
    """``make()``, after checking that it and every table adopted on the way were adopted as is."""
    handed = []

    def spy(cls, **fields):
        obj = _adopt(cls, **fields)
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                assert getattr(obj, name) is value, f"{cls.__name__}.{name} was copied"
                handed.append(value)
        if cls is RotationMatrix:
            ports = fields["_pairing"]()
            assert ports.dtype == np.int64 and ports.flags.c_contiguous
            assert np.array_equal(ports, core._pair(obj.entries.copy()))
        return obj

    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("ignore", InconsistentInputWarning)
        for module in ADOPTERS:
            patch.setattr(module, "_adopt", spy)
        obj = make()
    *_, table = (getattr(obj, field.name) for field in dataclasses.fields(obj))
    assert handed and table is handed[-1]
    flags = table.flags
    assert not flags.writeable and flags.c_contiguous and flags.owndata
    assert table.dtype == type(obj)._dtype
    again = type(obj)(**{field.name: getattr(obj, field.name) for field in dataclasses.fields(obj)})
    assert again == obj
    return obj


@PROPERTY
@given(regular_graphs())
def test_tables_built_from_a_graph_are_adopted_as_checked(adj):
    scan = adopted(lambda: rotation_from_adjacency(adj))
    for solve in (solve_matching, solve_backtracking):
        rot = adopted(lambda: solve(adj))
        assert adopted(lambda: adjacency_from_rotation(rot)) == adj
        shift = adopted(lambda: build_shift(rot))
        assert adopted(lambda: parse_perm(format_perm(shift))) == shift
    adopted(lambda: build_shift(scan))
    adopted(lambda: cartesian_adjacency(adj, adj))


FAMILIES = {
    "C3": lambda: cycle(3), "C7": lambda: cycle(7), "K3": lambda: complete(3),
    "K6": lambda: complete(6), "K2,2": lambda: complete_bipartite(2),
    "K3,3": lambda: complete_bipartite(3), "GP(5,2)": lambda: generalized_petersen(5, 2),
    "GP(7,3)": lambda: generalized_petersen(7, 3), "K2": k2, "Q1": lambda: hypercube(1),
    "Q4": lambda: hypercube(4),
}
FACTORS = {name: FAMILIES[name] for name in ("K2", "C7", "K3,3")}


@pytest.mark.parametrize("second", FACTORS.values(), ids=FACTORS)
@pytest.mark.parametrize("first", FAMILIES.values(), ids=FAMILIES)
def test_tables_built_from_families_are_adopted_as_checked(first, second):
    r1, r2 = adopted(first), adopted(second)
    prod = adopted(lambda: cartesian_rotation(r1, r2))
    a1, a2 = (adopted(lambda: adjacency_from_rotation(r)) for r in (r1, r2))
    assert adopted(lambda: cartesian_adjacency(a1, a2)) == adopted(
        lambda: adjacency_from_rotation(prod))
    shift = adopted(lambda: build_shift(prod))
    assert adopted(lambda: parse_perm(format_perm(shift))) == shift


def sort_ran(*args):
    raise AssertionError("a map the package built was sorted")


def assert_paired_as_sorted(rot):
    """Ports, report and shift of ``rot`` found without the sort, equal to a sorted copy's."""
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("ignore", InconsistentInputWarning)
        patch.setattr(core, "_pair", sort_ran)
        ports, report, shift = to_full_form(rot), validate(rot), build_shift(rot)
        copy = RotationMatrix(rot.entries.copy())
        patch.undo()
        assert np.array_equal(ports, to_full_form(copy))
        assert report == validate(copy)
        assert shift == build_shift(copy)


@PROPERTY
@given(regular_graphs())
def test_maps_built_from_a_graph_come_paired(adj):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_pair", sort_ran)
        maps = rotation_from_adjacency(adj), solve_matching(adj), solve_backtracking(adj)
    for rot in maps:
        assert_paired_as_sorted(rot)


@pytest.mark.parametrize("second", FACTORS.values(), ids=FACTORS)
@pytest.mark.parametrize("first", FAMILIES.values(), ids=FAMILIES)
def test_maps_built_from_families_come_paired(first, second):
    r1, r2 = first(), second()
    for rot in (r1, r2, cartesian_rotation(r1, r2)):
        assert_paired_as_sorted(rot)


def fallback_ran(*args):
    raise AssertionError("a fallback reader ran")


@PROPERTY
@given(regular_graphs())
def test_adj_round_trip(adj):
    text = format_adj(adj)
    with pytest.MonkeyPatch.context() as patched:  # canonical text is read in one byte pass
        patched.setattr(rotmaps.io, "_ascii", fallback_ran)
        assert parse_adj(text) == adj
        assert format_adj(parse_adj(text)) == text


@st.composite
def adj_texts(draw):
    """The layout and .adj text of a random 0/1 matrix, canonical or in another layout.

    The matrix is symmetric with a zero diagonal or, at random, any 0/1
    matrix; the layouts are CRLF, padded tokens, no final newline and one
    byte replaced, inserted or deleted.
    """
    n = draw(st.integers(1, 6))
    cells = np.array(draw(st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n)))
    cells = cells.reshape(n, n)
    if draw(st.booleans()):
        cells = np.triu(cells, 1) + np.triu(cells, 1).T
    rows = [",".join(map(str, row)) for row in cells]
    layout = draw(st.sampled_from(["canonical", "crlf", "padded", "no-final-newline", "corrupt"]))
    if layout == "crlf":
        return layout, "\r\n".join(rows) + "\r\n"
    if layout == "padded":
        return layout, "".join(" " + row.replace(",", " ,\t") + " \n" for row in rows)
    text = "\n".join(rows) + ("\n" if layout != "no-final-newline" else "")
    if layout == "corrupt":
        at = draw(st.integers(0, len(text)))
        byte = draw(st.sampled_from(["", "0", "1", "2", ",", "\n", " ", "\r", "/", "a", "\u00e9"]))
        cut = draw(st.sampled_from([0, 1]))
        text = text[:at] + byte + text[at + cut:]
    return layout, text


def reference_adj_rows(text: str) -> np.ndarray:
    """Cell-by-cell read of any .adj text, naming the first malformed row."""
    lines = text.splitlines()
    if not lines:
        raise MalformedInputError("empty adjacency file")
    n = len(lines)
    rows = []
    for number, line in enumerate(lines, start=1):
        parts = line.split(",")
        if len(parts) != n:
            raise MalformedInputError(
                f"row {number}: expected {n} comma-separated entries, got {len(parts)}"
            )
        row = []
        for token in parts:
            token = token.strip()
            if token not in ("0", "1"):
                raise MalformedInputError(f"row {number}: entry {token!r} is not 0 or 1")
            row.append(int(token))
        rows.append(np.array(row, dtype=np.uint8))  # one byte per cell, not a list of ints
    return np.array(rows)


def outcome(parse, text):
    try:
        return parse(text).matrix.tolist()
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


@PROPERTY
@given(adj_texts())
def test_parse_adj_agrees_with_cell_by_cell_read(layout_and_text):
    layout, text = layout_and_text
    reference = outcome(lambda t: AdjacencyMatrix(reference_adj_rows(t)), text)
    assert outcome(parse_adj, text) == reference
    if layout == "canonical":  # read in one byte pass
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(rotmaps.io, "_ascii", fallback_ran)
            assert outcome(parse_adj, text) == reference


@PROPERTY
@given(regular_graphs(), st.data())
def test_parse_adj_agrees_with_cell_by_cell_read_on_one_changed_byte(adj, data):
    # the byte pass reads each cell and its separator as one uint16 pair, so
    # any change to either byte must send the text on to the slower readers
    text = format_adj(adj)
    at = data.draw(st.integers(0, len(text) - 1))
    byte = data.draw(st.sampled_from(["0", "1", "2", "/", ",", "\n", "\r", " "])
                     | st.integers(0x80, 0xFF).map(chr))
    text = text[:at] + byte + text[at + 1:]
    reference = outcome(lambda t: AdjacencyMatrix(reference_adj_rows(t)), text)
    assert outcome(parse_adj, text) == reference


def reference_int(token, what):
    """``token`` as an int when it is a run of 1 to 18 ASCII digits."""
    if not re.fullmatch(r"[0-9]+", token) or len(token) > 18:
        quoted = repr(token) if len(token) <= 80 else f"{token[:80]!r}..."
        raise MalformedInputError(f"{what}: {quoted} is not a run of 1 to 18 ASCII digits")
    return int(token)


def reference_header(lines, kind, form):
    """The two positive header values of a .rot or .perm file."""
    if not lines:
        raise MalformedInputError(f"empty {kind} file")
    header = lines[0].split()
    if len(header) != 2:
        raise MalformedInputError(f"header must be '{form}', got {lines[0]!r}")
    n = reference_int(header[0], "header vertex count")
    d = reference_int(header[1], "header degree")
    if n < 1 or d < 1:
        raise MalformedInputError(f"header values must be positive, got {n} {d}")
    return n, d


def reference_parse_rot(text, require_valid_map=True):
    """Line by line with ``splitlines``, ``split`` and ``reference_int``."""
    lines = text.splitlines()
    n, d = reference_header(lines, "rotation", "n d")
    if len(lines) - 1 != n:
        raise MalformedInputError(f"expected {n} rows after the header, got {len(lines) - 1}")
    rows = []
    for number, line in enumerate(lines[1:], start=1):
        parts = line.split()
        if len(parts) != d:
            raise MalformedInputError(f"row {number}: expected {d} entries, got {len(parts)}")
        rows.append([reference_int(p, f"row {number}") for p in parts])
    rot = RotationMatrix(np.array(rows, dtype=np.int64))
    if require_valid_map:
        report = reference_validate(rot.entries)
        if not report.is_valid_map:
            first = next(v for v in report.violations if v.kind != "duplicate-in-column")
            raise MalformedInputError(f"file does not describe a valid rotation map: {first}")
    return rot


def reference_parse_perm(text):
    """Line by line with ``splitlines``, ``split``, ``reference_int``; then the involution check."""
    lines = text.splitlines()
    n, d = reference_header(lines, "permutation", "N d")
    if len(lines) - 1 != n * d:
        raise MalformedInputError(f"expected {n * d} dart lines, got {len(lines) - 1}")
    images = [0] * (n * d)
    for number, line in enumerate(lines[1:], start=1):
        parts = line.split()
        if len(parts) != 4:
            raise MalformedInputError(f"line {number}: expected 'v i w j', got {line!r}")
        v, i, w, j = (reference_int(p, f"line {number}") for p in parts)
        if not (1 <= v <= n and 1 <= i <= d and 1 <= w <= n and 1 <= j <= d):
            raise MalformedInputError(f"line {number}: dart out of range: {line!r}")
        if images[(v - 1) * d + i - 1]:
            raise MalformedInputError(f"line {number}: dart ({v}, {i}) listed twice")
        images[(v - 1) * d + i - 1] = (w - 1) * d + j
    if any(images[k - 1] != src for src, k in enumerate(images, start=1)):
        raise MalformedInputError("dart pairs do not form an involutive permutation")
    return n, d, images


MUTATIONS = [
    "canonical", "crlf", "tab", "comma", "double-space", "no-final-newline",
    "tab-separated", "padded", "padded-no-final-newline",
    "unterminated-extra-row", "trailing-blank-line", "blank-row", "repeated-row", "header-split",
    "header-only", "changed-token", "leading-zeros", "plus", "underscore", "non-ascii-digit",
    "19-digits", "lone-cr", "corrupt", "vt", "ff", "file-separator", "unit-separator", "nel",
    "line-separator", "nbsp", "ideographic-space", "lone-surrogate", "count-and-token",
    "token-after-duplicate",
]
# each line end or separator these mutations put in, outside ASCII too
OTHER_WHITESPACE = {"vt": "\v", "ff": "\f", "file-separator": "\x1c", "nel": "\x85",
                    "line-separator": "\u2028", "unit-separator": "\x1f", "nbsp": "\xa0",
                    "ideographic-space": "\u3000"}


@st.composite
def table_texts(draw, mutation):
    """The kind, "rot" or "perm", and the text of a random table or valid map after one mutation.

    The text is the .rot text of a table or the .perm text of a map.  The
    table or map is small, or large enough for vertex ids of several
    digits: a seeded table of up to 300 rows, or the product of a valid map
    and a cycle.  The mutations are what a hand-edited or foreign file can
    carry: CRLF or a lone CR, other whitespace in one place or in the
    whole layout (tabs between all tokens, padded lines), missing, blank or
    extra lines, leading zeros (refused past 18 digits), tokens that ``int``
    accepts but the format does not (``+7``, ``1_0``, a non-ASCII digit,
    19 digits), changed values and stray bytes.  Other line ends (VT, FF,
    ``\x1c``, NEL, U+2028) and separators (``\x1f``, NBSP, U+3000) replace
    one or all of the canonical ones; a lone surrogate goes into a token.  A
    row gets both a token too many and a bad token, and a .perm bad token
    comes after a line that repeats an earlier line's dart.
    """
    wide = draw(st.booleans())
    kind = "rot" if draw(st.booleans()) else "perm"
    if kind == "rot":
        if wide:
            n, d = draw(st.integers(10, 300)), draw(st.integers(1, 12))
            table = np.random.default_rng(draw(st.integers(0, 2**16))).integers(1, n + 1, (n, d))
        else:
            table = draw(tables())
        text = format_rot(RotationMatrix(table))
    else:
        rot = draw(valid_maps())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InconsistentInputWarning)
            if wide:
                rot = cartesian_rotation(rot, cycle(draw(st.integers(3, 60))))
            text = format_perm(build_shift(rot))
    return kind, mutated(draw, mutation, text)


def mutated(draw, mutation, text):
    """``text`` after ``mutation``."""
    tokens = [m.start() for m in re.finditer(r"\d+", text)]
    at = tokens[draw(st.integers(0, len(tokens) - 1))]
    spaces = [k for k, c in enumerate(text) if c == " "]
    space = spaces[draw(st.integers(0, len(spaces) - 1))]
    if mutation == "crlf":
        return text.replace("\n", "\r\n")
    if mutation in ("tab", "comma", "double-space"):
        separator = {"tab": "\t", "comma": ",", "double-space": "  "}[mutation]
        return text[:space] + separator + text[space + 1:]
    if mutation == "no-final-newline":
        return text[:-1]
    if mutation == "tab-separated":
        return text.replace(" ", "\t")
    if mutation in ("padded", "padded-no-final-newline"):
        pad = draw(st.sampled_from([" ", "\t", "  ", " \t"]))
        lines = text.splitlines()
        text = "".join(pad + line.replace(" ", pad + " ") + pad + "\n" for line in lines)
        return text[:-1] if mutation == "padded-no-final-newline" else text
    if mutation == "unterminated-extra-row":
        return text + text.split("\n")[1]
    if mutation == "trailing-blank-line":
        return text + "\n"
    if mutation in ("blank-row", "repeated-row"):
        lines = text.split("\n")
        row = draw(st.integers(1, len(lines) - 2))
        lines[row] = "" if mutation == "blank-row" else lines[draw(st.integers(1, len(lines) - 2))]
        return "\n".join(lines)
    if mutation == "header-split":
        return text.replace(" ", "\n", 1)
    if mutation in ("leading-zeros", "plus", "underscore"):
        prefix = {"leading-zeros": "0" * draw(st.integers(1, 20)), "plus": "+", "underscore": "1_"}
        return text[:at] + prefix[mutation] + text[at:]
    if mutation == "non-ascii-digit":
        return text[:at] + "\u0663" + text[at + 1:]  # ARABIC-INDIC DIGIT THREE, an int() digit
    if mutation in ("changed-token", "19-digits"):
        if mutation == "changed-token":
            value = draw(st.integers(0, 999))
        else:
            value = draw(st.integers(10**18, 2**63 - 1) | st.integers(2**63, 10**19 - 1))
        end = re.match(r"\d+", text[at:]).end() + at
        return text[:at] + str(value) + text[end:]
    if mutation in OTHER_WHITESPACE:
        line_end = mutation in ("vt", "ff", "file-separator", "nel", "line-separator")
        canonical = "\n" if line_end else " "
        if draw(st.booleans()):
            return text.replace(canonical, OTHER_WHITESPACE[mutation])
        k = draw(st.sampled_from([k for k, c in enumerate(text) if c == canonical]))
        return text[:k] + OTHER_WHITESPACE[mutation] + text[k + 1:]
    if mutation == "lone-surrogate":
        return text[:at] + "\ud800" + text[at + draw(st.sampled_from([0, 1])):]
    if mutation in ("count-and-token", "token-after-duplicate"):
        lines = text.split("\n")  # the header, the rows and "" after the final newline
        first, later = sorted(draw(st.lists(st.integers(1, len(lines) - 2), min_size=2,
                                            max_size=2, unique=True)))
        if mutation == "count-and-token":
            lines[later] += " x"
        else:
            lines[later] = lines[first]
            lines[-2] = lines[-2].replace(" ", "y ", 1)  # on the last row, perhaps the repeat
        return "\n".join(lines)
    if mutation == "lone-cr":
        k = draw(st.integers(0, len(text)))
        return text[:k] + "\r" + text[k:]
    if mutation == "header-only":
        return text[:text.index("\n") + 1]
    if mutation == "corrupt":
        k = draw(st.integers(0, len(text)))
        byte = draw(st.sampled_from(["", "0", "9", " ", "\n", "\r", "\t", "-", "x", "\u0663"]))
        return text[:k] + byte + text[k + draw(st.sampled_from([0, 1])):]
    return text


def read_outcome(parse, text):
    try:
        result = parse(text)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    if isinstance(result, RotationMatrix):
        return result.entries.tolist()
    if isinstance(result, ShiftPermutation):
        return result.num_vertices, result.degree, result.images.tolist()
    return result


def assert_readers_agree(text):
    """Both readers give the outcome on ``text`` that the line-by-line references give."""
    for parse, reference in [
        (parse_rot, reference_parse_rot),
        (lambda t: parse_rot(t, require_valid_map=False),
         lambda t: reference_parse_rot(t, require_valid_map=False)),
        (parse_perm, reference_parse_perm),
    ]:
        assert read_outcome(parse, text) == read_outcome(reference, text)


@pytest.mark.parametrize("mutation", MUTATIONS)
@settings(PROPERTY, max_examples=40)
@given(data=st.data())
def test_rot_and_perm_readers_agree_with_line_by_line_reference(mutation, data):
    kind, text = data.draw(table_texts(mutation))
    assert_readers_agree(text)
    if mutation in ("canonical", "crlf"):  # read with no step for other layouts
        own = {"rot": lambda t: parse_rot(t, require_valid_map=False), "perm": parse_perm}[kind]
        expected = read_outcome(own, text)
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(rotmaps.io, "_lines", fallback_ran)
            assert read_outcome(own, text) == expected


C5_TEXTS = {"rot": format_rot(cycle(5)), "perm": format_perm(build_shift(cycle(5)))}


# The byte pass builds values in uint32 up to 9 digits and in uint64 up to
# 18, and refuses longer tokens; its uint8 token lengths wrap past 255 (a
# token of 274 digits has length 18 modulo 256).
@pytest.mark.parametrize("digits", [9, 10, 18, 19, 255, 256, 274])
@pytest.mark.parametrize("value", ["zero-padded", "large"])
@pytest.mark.parametrize("kind", ["rot", "perm"])
def test_readers_agree_at_token_lengths(kind, value, digits):
    text = C5_TEXTS[kind]
    first = re.search(r"(?<=\n)\d+", text)  # the first token after the header
    token = first[0].zfill(digits) if value == "zero-padded" else "1" + first[0].zfill(digits - 1)
    assert_readers_agree(text[:first.start()] + token + text[first.end():])


@pytest.mark.parametrize("kind", ["rot", "perm"])
def test_readers_agree_on_a_zero_padded_header(kind):
    text = C5_TEXTS[kind]
    header, body = text.split("\n", 1)
    assert_readers_agree(" ".join(t.zfill(12) for t in header.split()) + "\n" + body)


# A 0 wraps above every bound in the unsigned range test of parse_perm.
@pytest.mark.parametrize("column", range(4))
@pytest.mark.parametrize("value", ["0", "bound + 1", "n + 1"])
def test_perm_readers_agree_on_a_dart_out_of_range(column, value):
    n, d = 5, 2
    bound = (n, d, n, d)[column]
    header, first, rest = C5_TEXTS["perm"].split("\n", 2)
    dart = first.split()
    dart[column] = str({"0": 0, "bound + 1": bound + 1, "n + 1": n + 1}[value])
    assert_readers_agree("\n".join([header, " ".join(dart), rest]))


def reference_format_rows(header, table):
    """The %-format writer that the byte-level one replaced."""
    rows, width = table.shape
    line = " ".join(["%d"] * width) + "\n"
    return f"{header}\n" + line * rows % tuple(table.ravel().tolist())


def reference_format_rot(rot):
    return reference_format_rows(f"{rot.num_vertices} {rot.degree}", rot.entries)


def reference_format_perm(shift):
    d = shift.degree
    src, dst = np.arange(shift.size), shift.images - 1
    darts = np.stack([src // d + 1, src % d + 1, dst // d + 1, dst % d + 1], axis=1)
    return reference_format_rows(f"{shift.num_vertices} {d}", darts)


def reference_format_dot(rot):
    """The DOT export that ``%``-formatted a tuple of four Python ints per edge."""
    n, d = rot.entries.shape
    darts = np.stack([np.repeat(np.arange(1, n + 1), d), rot.entries.ravel(),
                      np.tile(np.arange(1, d + 1), n), to_full_form(rot).ravel()], axis=1)
    edges = darts[darts[:, 0] < darts[:, 1]]
    lines = '  %d -- %d [label="%d|%d"];\n' * len(edges) % tuple(edges.ravel().tolist())
    return "graph G {\n" + lines + "}\n"


def reference_format_json(rot):
    """The JSON export that ran ``json.dumps`` over the table as nested lists."""
    payload = {"n": rot.num_vertices, "d": rot.degree, "rot": rot.entries.tolist()}
    return json.dumps(payload, separators=(",", ":")) + "\n"


def first_difference(text, expected):
    """None, or the first line where two texts differ, with both versions of it.

    The writer tests compare through this: pytest's diff of two long texts
    is quadratic, and hypothesis shrinking would redo it at every step.
    """
    if text == expected:
        return None
    lines, wanted = text.split("\n"), expected.split("\n")
    k = next((k for k, (a, b) in enumerate(zip(lines, wanted)) if a != b),
             min(len(lines), len(wanted)))
    return k, lines[k:k + 1], wanted[k:k + 1]


@st.composite
def wide_shapes(draw):
    """n near a power of ten or anywhere in 2..3000, d in 1..13, and a seeded generator."""
    n = draw(st.sampled_from([2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001]) | st.integers(2, 3000))
    d = draw(st.integers(1, 13))
    return n, d, np.random.default_rng(draw(st.integers(0, 2**16)))


@PROPERTY
@given(wide_shapes())
def test_format_rot_matches_reference(shape):
    n, d, rng = shape
    rot = RotationMatrix(rng.integers(1, n + 1, (n, d)))
    assert first_difference(format_rot(rot), reference_format_rot(rot)) is None


# Darts of 1000 vertices and 100 ports, or of 10 vertices and 10**5 ports, do
# not fit one 8-byte word; their ports have 3 and 6 digits.
@PROPERTY
@given(wide_shapes())
@example((1000, 100, np.random.default_rng(1000)))
@example((10, 10**5, np.random.default_rng(10)))
def test_format_perm_matches_reference(shape):
    n, d, rng = shape
    shift = ShiftPermutation(num_vertices=n, degree=d, images=rng.integers(1, n * d + 1, n * d))
    assert first_difference(format_perm(shift), reference_format_perm(shift)) is None


@PROPERTY
@given(valid_maps())
def test_exports_match_reference(rot):
    assert first_difference(format_dot(rot), reference_format_dot(rot)) is None
    assert first_difference(format_json(rot), reference_format_json(rot)) is None


def reference_slots(values, end):
    """Each value's text and ``end``, right-aligned after NUL padding in 8 bytes per 8 places."""
    width = 8 * (len(str(max(values))) // 8 + 1)
    return b"".join(f"{v}{end}".encode("ascii").rjust(width, b"\0") for v in values)


@PROPERTY
@given(st.lists(st.integers(1, 2**63 - 1) | st.integers(1, 10**5), min_size=1, max_size=20))
def test_slots_match_reference_up_to_int64_max(values):
    slots = _slots(np.array(values, dtype=_unsigned(max(values))), ord(" "))
    assert slots.tobytes() == reference_slots(values, " ")


# Each value's slot grows from 8 to 16 bytes past 7 digits and to 24 past 15.
@pytest.mark.parametrize("top,width", [
    (9, 8), (10, 8), (10**7 - 1, 8), (10**7, 16), (10**15 - 1, 16), (10**15, 24), (2**63 - 1, 24),
])
def test_slots_match_reference_where_a_slot_grows(top, width):
    edges = [1, 9, 10, 10**7 - 1, 10**7, 10**15 - 1, 10**15]
    values = [v for v in edges if v < top] + [top - 1, top]
    slots = _slots(np.array(values, dtype=_unsigned(top)), ord("\n"))
    assert slots.shape == (len(values), width)
    assert slots.tobytes() == reference_slots(values, "\n")


# The writer formats the values 0..top once; every caller's top is at most
# its number of cells.
@pytest.mark.parametrize("top,cells", [
    (9, 10), (9, 9), (10, 11), (10, 10), (99, 100), (99, 99), (100, 101), (100, 100),
])
@pytest.mark.parametrize("rows", ["one row", "one column"])
def test_format_rows_matches_reference_where_top_meets_the_cell_count(top, cells, rows):
    table = np.random.default_rng(top * cells).integers(1, top + 1, cells)
    table[cells // 2] = top
    table = table.reshape((1, -1) if rows == "one row" else (-1, 1))
    assert first_difference(_format_rows("h", table), reference_format_rows("h", table)) is None


# format_perm writes "v i " in one 8-byte word per dart when
# len(str(n)) + len(str(d)) + 2 <= 8, and else as the value slots of v and
# of i: C99999 and Q13 take the one-word layout, C100000 and Q14 the
# two-slot one, and the rows of K150 hold ports of 1, 2 and 3 digits.
@pytest.mark.parametrize("rot", [
    cycle(9), cycle(10), cycle(99), cycle(100), cycle(999), cycle(1000), cycle(99999),
    cycle(10**5), RotationMatrix([[2], [1]]), hypercube(12), hypercube(13), hypercube(14),
    complete(150),
], ids=["C9", "C10", "C99", "C100", "C999", "C1000", "C99999", "C100000", "K2", "Q12", "Q13",
        "Q14", "K150"])
def test_format_rot_and_perm_match_reference_at_digit_boundaries(rot):
    assert first_difference(format_rot(rot), reference_format_rot(rot)) is None
    shift = build_shift(rot)
    assert first_difference(format_perm(shift), reference_format_perm(shift)) is None
    assert first_difference(format_dot(rot), reference_format_dot(rot)) is None
    assert first_difference(format_json(rot), reference_format_json(rot)) is None
