"""Core rotation-map checks: validation, consistency, the return-port table."""

import pickle
import tracemalloc

import numpy as np
import pytest

from conftest import CORPUS, CORPUS_IDS
from rotmaps import (
    InconsistentInputWarning,
    InvalidRotationMapError,
    MalformedInputError,
    RotationMatrix,
    ValidationReport,
    Violation,
    build_shift,
    cartesian_rotation,
    complete,
    cycle,
    hypercube,
    is_consistent,
    to_full_form,
    validate,
    verify_unitary,
)

# the consistent map of the 3-cycle; every dart pairing is pinned below
TRIANGLE = [[2, 3], [3, 1], [1, 2]]
# ascending-neighbor reading of the 3-cycle: valid but inconsistent
ROW_SCAN_TRIANGLE = [[2, 3], [1, 3], [1, 2]]
K2_MAP = [[2], [1]]
C5 = [[2, 5], [3, 1], [4, 2], [5, 3], [1, 4]]
# five map defects (a self-loop, a row repeat, three asymmetries), then three column repeats
FOUR = [[1, 2], [1, 1], [4, 2], [3, 1]]

TRIANGLE_PAIRS = {
    (1, 1): (2, 2),
    (1, 2): (3, 1),
    (2, 1): (3, 2),
    (2, 2): (1, 1),
    (3, 1): (1, 2),
    (3, 2): (2, 1),
}


class TestConstruction:
    def test_copies_and_freezes(self):
        src = np.array(TRIANGLE)
        rot = RotationMatrix(src)
        src[0, 0] = 3
        assert rot.entries[0, 0] == 2
        with pytest.raises(ValueError):
            rot.entries[0, 0] = 3

    def test_read_only_owned_int64_table_adopted(self):
        src = np.array(TRIANGLE, dtype=np.int64)
        src.setflags(write=False)
        assert RotationMatrix(src).entries is src

    @pytest.mark.parametrize("make", [
        lambda a: a,  # writable
        lambda a: a.astype(np.int32),  # another dtype
        lambda a: a[::-1][::-1],  # a view, which owns no data
        lambda a: np.asfortranarray(a),  # owned, but not C-contiguous
    ], ids=["writable", "int32", "view", "fortran"])
    def test_other_tables_copied(self, make):
        src = np.array(TRIANGLE, dtype=np.int64)
        table = make(src)
        table.setflags(write=table is src)
        rot = RotationMatrix(table)
        assert rot.entries is not table and rot.entries.dtype == np.int64
        assert rot.entries.flags.c_contiguous
        src[0, 0] = 3
        assert rot.entries.tolist() == TRIANGLE

    def test_dimensions(self):
        rot = RotationMatrix(TRIANGLE)
        assert rot.num_vertices == 3
        assert rot.degree == 2
        assert rot.entries[1].tolist() == [3, 1]

    def test_equality_and_hash(self):
        assert RotationMatrix(TRIANGLE) == RotationMatrix(TRIANGLE)
        assert RotationMatrix(TRIANGLE) != RotationMatrix(ROW_SCAN_TRIANGLE)
        assert hash(RotationMatrix(TRIANGLE)) == hash(RotationMatrix(TRIANGLE))

    def test_equality_with_another_type_is_left_to_it(self):
        rot = RotationMatrix(TRIANGLE)
        assert rot.__eq__("x") is NotImplemented
        assert rot != "x" and not rot == TRIANGLE

    def test_repr_names_the_shape(self):
        assert repr(RotationMatrix(TRIANGLE)) == "RotationMatrix(num_vertices=3, degree=2)"

    @pytest.mark.parametrize("bad", [
        [2, 1],                        # 1-d
        [[2.0], [1.0]],                # floats
        [[2, 3], [3, 1]],              # value 3 on 2 vertices
        [[0], [1]],                    # value below 1
        [[2]],                         # single vertex
        [[], []],                      # degree 0
        [[2, 3], [1]],                 # ragged
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(MalformedInputError):
            RotationMatrix(bad)


class TestValidate:
    def test_triangle_valid_and_consistent(self):
        report = validate(RotationMatrix(TRIANGLE))
        assert report.is_valid_map
        assert report.is_consistent
        assert report.violations == ()

    def test_k2_valid_and_consistent(self):
        report = validate(RotationMatrix(K2_MAP))
        assert report.is_valid_map and report.is_consistent

    def test_row_scan_triangle_inconsistent(self):
        report = validate(RotationMatrix(ROW_SCAN_TRIANGLE))
        assert report.is_valid_map
        assert not report.is_consistent
        kinds = {v.kind for v in report.violations}
        assert kinds == {"duplicate-in-column"}
        # column 1 of the reading is [2, 1, 1]
        column = [v for v in report.violations if v.kind == "duplicate-in-column"]
        assert any(v.location == (1, 1) for v in column)

    def test_self_loops_reported(self):
        report = validate(RotationMatrix([[1], [2]]))
        assert not report.is_valid_map
        assert not report.is_consistent
        loops = {v.location for v in report.violations if v.kind == "self-loop"}
        assert loops == {(1, 1), (2, 1)}

    def test_duplicate_in_row_reported(self):
        report = validate(RotationMatrix([[2, 2], [1, 1]]))
        assert not report.is_valid_map
        assert {v.kind for v in report.violations} >= {"duplicate-in-row"}
        row = [v for v in report.violations if v.kind == "duplicate-in-row"]
        assert any(v.location == (1, 2) for v in row)

    def test_asymmetric_incidence_reported(self):
        report = validate(RotationMatrix([[2], [1], [2], [3]]))
        assert not report.is_valid_map
        locs = {v.location for v in report.violations if v.kind == "asymmetric-incidence"}
        assert locs == {(3, 2), (4, 3)}

    def test_pure(self):
        rot = RotationMatrix(ROW_SCAN_TRIANGLE)
        assert validate(rot) == validate(rot)

    def test_matching_map_consistent(self):
        # degree 1 (a perfect matching) is allowed and consistent
        report = validate(RotationMatrix([[2], [1], [4], [3]]))
        assert report.is_valid_map and report.is_consistent


class TestReportViolations:
    """A report's violations: a sequence counted at once and named on first read."""

    @pytest.fixture
    def unnamed(self, monkeypatch):
        from rotmaps import core

        def refuse(*args):
            raise AssertionError("a defect was named")

        monkeypatch.setattr(core, "_violations", refuse)

    def test_counts_and_verdicts_name_nothing(self, unnamed):
        report = validate(RotationMatrix(ROW_SCAN_TRIANGLE))
        assert report.is_valid_map and not report.is_consistent
        # column 1 repeats vertex 1, column 2 vertex 3
        assert len(report.violations) == 2 and report.violations

    def test_consumers_of_an_inconsistent_map_name_nothing(self, unnamed):
        rot = RotationMatrix(ROW_SCAN_TRIANGLE)
        assert not is_consistent(rot)
        with pytest.warns(InconsistentInputWarning):
            build_shift(rot)
        with pytest.warns(InconsistentInputWarning):
            cartesian_rotation(rot, cycle(4))
        with pytest.warns(InconsistentInputWarning):
            cartesian_rotation(cycle(4), rot)

    def test_equal_to_the_tuple_of_its_items_both_ways(self):
        violations = validate(RotationMatrix(FOUR)).violations
        items = tuple(violations)
        assert len(items) == 8
        assert violations == items and items == violations
        assert not violations != items and not items != violations
        assert hash(violations) == hash(items)
        assert violations != items[:-1] and items[:-1] != violations
        assert violations != list(items)

    def test_unread_reports_equal(self):
        # neither sequence has been read before the comparison names both
        first, second = validate(RotationMatrix(FOUR)), validate(RotationMatrix(FOUR))
        assert first.violations == second.violations
        assert first == ValidationReport(False, False, tuple(second.violations))
        assert hash(first) == hash(ValidationReport(False, False, tuple(first.violations)))

    def test_repr_indices_and_slices(self):
        violations = validate(RotationMatrix(FOUR)).violations
        items = tuple(violations)
        assert repr(violations) == repr(items)
        assert violations[0] == Violation("self-loop", (1, 1), "self-loop at row 1, column 1")
        assert violations[-1] == items[-1] and violations[-1].kind == "duplicate-in-column"
        assert violations[-8] == items[0]
        assert violations[1:4] == items[1:4] and violations[::-1] == items[::-1]
        with pytest.raises(IndexError):
            violations[8]

    def test_empty(self):
        report = validate(RotationMatrix(TRIANGLE))
        assert not report.violations and len(report.violations) == 0
        assert report.violations == () and repr(report.violations) == "()"
        assert list(report.violations) == []

    def test_two_iterations_give_equal_items(self):
        violations = validate(RotationMatrix(FOUR)).violations
        assert list(violations) == list(violations)
        assert [v.kind for v in violations] == (
            ["self-loop", "duplicate-in-row"] + ["asymmetric-incidence"] * 3
            + ["duplicate-in-column"] * 3)

    def test_error_holds_a_tuple_and_counts_the_map_defects(self):
        rot = RotationMatrix(FOUR)
        with pytest.raises(InvalidRotationMapError) as caught:
            to_full_form(rot)
        assert type(caught.value.violations) is tuple
        assert caught.value.violations == validate(rot).violations
        assert str(caught.value) == "not a valid rotation map: self-loop at row 1, column 1 (+4 more)"

    def test_refused_file_names_its_first_defect_alone(self, monkeypatch):
        from rotmaps import core
        from rotmaps.io import parse_rot

        # the row-scan reading of K4 (column repeats) with a self-loop in row 1
        text = "4 3\n1 3 4\n1 3 4\n1 2 4\n1 2 3\n"
        rows, name = [], core._violations

        def counted(kind, template, *columns):
            rows.append(len(columns[0]))
            return name(kind, template, *columns)

        monkeypatch.setattr(core, "_violations", counted)
        with pytest.raises(MalformedInputError) as caught:
            parse_rot(text)
        assert sum(rows) == 1
        assert str(caught.value) == (
            "file does not describe a valid rotation map: self-loop at row 1, column 1")


class TestViolation:
    LOOP = Violation("self-loop", (2, 1), "self-loop at row 2, column 1")

    def test_fields_by_position_and_keyword(self):
        v = Violation(kind="self-loop", location=(2, 1), message="self-loop at row 2, column 1")
        assert v == self.LOOP
        assert v.kind == "self-loop" and v.location == (2, 1)
        assert v.message == "self-loop at row 2, column 1"

    def test_str_is_the_message_and_repr_names_the_fields(self):
        assert str(self.LOOP) == "self-loop at row 2, column 1"
        assert repr(self.LOOP) == ("Violation(kind='self-loop', location=(2, 1), "
                                   "message='self-loop at row 2, column 1')")

    @pytest.mark.parametrize("name", ["kind", "location", "message", "extra"])
    def test_immutable(self, name):
        with pytest.raises(AttributeError):
            setattr(self.LOOP, name, None)

    def test_hash_and_pickle(self):
        copy = Violation(*self.LOOP)
        assert copy == self.LOOP and hash(copy) == hash(self.LOOP)
        assert pickle.loads(pickle.dumps(self.LOOP)) == self.LOOP
        assert type(pickle.loads(pickle.dumps(self.LOOP))) is Violation

    def test_a_tuple_of_its_fields(self):
        kind, location, message = self.LOOP
        assert kind == "self-loop"
        assert self.LOOP == ("self-loop", (2, 1), "self-loop at row 2, column 1")


class TestConsistency:
    def test_c5_consistent(self):
        assert is_consistent(RotationMatrix(C5))

    def test_row_scan_triangle(self):
        assert not is_consistent(RotationMatrix(ROW_SCAN_TRIANGLE))

    def test_requires_valid_map(self):
        with pytest.raises(InvalidRotationMapError):
            is_consistent(RotationMatrix([[2, 2], [1, 1]]))

    def test_column_permutation_equivalence(self):
        # consistent <=> each column sorted is 1..n <=> distinct incoming ports everywhere
        for rot in (RotationMatrix(TRIANGLE), RotationMatrix(ROW_SCAN_TRIANGLE)):
            n = rot.num_vertices
            by_columns = all(
                sorted(rot.entries[:, i].tolist()) == list(range(1, n + 1))
                for i in range(rot.degree)
            )
            by_ports = all(
                len(set(np.nonzero(rot.entries == w)[1])) == rot.degree for w in range(1, n + 1)
            )
            assert is_consistent(rot) == by_columns == by_ports


class TestFullForm:
    def test_triangle_pairs(self):
        rot = RotationMatrix(TRIANGLE)
        ports = to_full_form(rot)
        for (v, i), partner in TRIANGLE_PAIRS.items():
            assert (rot.entries[v - 1, i - 1], ports[v - 1, i - 1]) == partner

    def test_k2(self):
        assert to_full_form(RotationMatrix(K2_MAP)).tolist() == [[1], [1]]

    def test_c5_first_dart(self):
        # row 2 of the 5-cycle map is [3, 1]; vertex 1 sits at port 2
        assert to_full_form(RotationMatrix(C5))[0, 0] == 2

    def test_requires_valid_map(self):
        with pytest.raises(InvalidRotationMapError):
            to_full_form(RotationMatrix([[1], [2]]))

    @pytest.mark.parametrize("make", [lambda: cycle(5),
                                      lambda: cartesian_rotation(cycle(3), hypercube(2))])
    def test_pickled_before_and_after_pairing(self, make):
        # a map is pickled without its producer's pairing; the copy is paired by the sort
        rot = make()
        for _ in range(2):
            copy = pickle.loads(pickle.dumps(rot))
            assert copy == rot
            assert np.array_equal(to_full_form(copy), to_full_form(rot))

    @pytest.mark.parametrize("name,rot", CORPUS, ids=CORPUS_IDS)
    def test_involution_and_round_trip(self, name, rot):
        ports = to_full_form(rot)
        n, d = rot.entries.shape
        assert ports.shape == (n, d) and ports.dtype == np.int64
        assert not ports.flags.writeable
        w, j = rot.entries - 1, ports - 1
        # the partner (w, j) of dart (v, i) has (v, i) as its partner
        assert (rot.entries[w, j] == np.arange(1, n + 1)[:, None]).all()
        assert (ports[w, j] == np.arange(1, d + 1)).all()


class TestScale:
    def test_torus_of_100k_vertices_in_linear_memory(self):
        # an n x n incidence array alone would take 80 GB here
        rot = cartesian_rotation(cycle(400), cycle(250))
        tracemalloc.start()
        try:
            report = validate(rot)
            shift = build_shift(rot)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.is_consistent and not report.violations
        assert verify_unitary(shift)
        assert peak < 200 * 2**20

    def test_full_form_of_dense_map_in_linear_memory(self):
        # K400 has 400*399 darts; a per-dart copy of the partner row would take 0.5 GB
        rot = complete(400)
        validate(rot)
        tracemalloc.start()
        try:
            ports = to_full_form(rot)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # dart (1, 1) enters vertex 2, whose last port steps back to vertex 1
        assert (rot.entries[0, 0], ports[0, 0]) == (2, 399)
        assert peak < 50 * 2**20

    def test_validate_and_shift_peak_in_tables(self):
        # a fresh 100 000-vertex torus: pairing its darts holds a few int64
        # tables at a time, and the shift reads the cached ports
        rot = cartesian_rotation(cycle(400), cycle(250))
        table = rot.entries.nbytes

        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(lambda: validate(rot)) < 7 * table
        assert peak(lambda: build_shift(rot)) < 4 * table

    def test_each_map_checked_once(self, monkeypatch):
        # a valid map is paired once and never searched; an invalid table is
        # refused by the pairing, then searched once to name its defects
        from rotmaps import core
        from rotmaps.io import format_rot, parse_rot

        paired, checked = [], []
        pair, check = core._pair, core._check
        monkeypatch.setattr(core, "_pair", lambda ent: paired.append(ent.shape) or pair(ent))
        monkeypatch.setattr(core, "_check", lambda ent: checked.append(ent.shape) or check(ent))
        rot = parse_rot(format_rot(cycle(7)))
        assert validate(rot) is validate(rot)
        build_shift(rot)
        assert to_full_form(rot) is to_full_form(rot)
        assert paired == [(7, 2)]
        assert checked == []

        bad = RotationMatrix([[2, 2], [1, 1]])
        assert validate(bad) is validate(bad)
        with pytest.raises(InvalidRotationMapError):
            to_full_form(bad)
        assert paired == [(7, 2), (2, 2)]
        assert checked == [(2, 2)]
