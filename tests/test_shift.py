"""Dart shift permutations: involution and the unitarity check."""

import tracemalloc

import numpy as np
import pytest

from conftest import CORPUS, random_regular_adjacency
from rotmaps import (
    InconsistentInputWarning,
    InvalidRotationMapError,
    MalformedInputError,
    RotationMatrix,
    ShiftPermutation,
    build_shift,
    cartesian_rotation,
    cycle,
    solve_matching,
    validate,
    verify_unitary,
)

TRIANGLE = RotationMatrix([[2, 3], [3, 1], [1, 2]])


def is_graphical(shift):
    """No dart maps to a dart of its own vertex, as any map of a simple graph guarantees."""
    return (np.arange(shift.size) // shift.degree != (shift.images - 1) // shift.degree).all()


class TestBuildShift:
    def test_triangle_images(self):
        # darts of the 3-cycle map pair up as (1,1)<->(2,2), (1,2)<->(3,1), (2,1)<->(3,2)
        shift = build_shift(TRIANGLE)
        assert shift.size == 6
        assert shift.images.tolist() == [4, 5, 6, 1, 2, 3]
        # dart index 4 is dart (2, 2)
        assert divmod(int(shift.images[0]) - 1, shift.degree) == (1, 1)

    def test_k2(self):
        shift = build_shift(RotationMatrix([[2], [1]]))
        assert shift.images.tolist() == [2, 1]

    def test_torus_is_96_dart_involution(self):
        shift = build_shift(cartesian_rotation(cycle(6), cycle(4)))
        assert shift.size == 24 * 4 == 96
        assert verify_unitary(shift)
        assert is_graphical(shift)

    def test_invalid_map_rejected(self):
        with pytest.raises(InvalidRotationMapError):
            build_shift(RotationMatrix([[1], [2]]))

    def test_inconsistent_map_warns(self):
        row_scan_triangle = RotationMatrix([[2, 3], [1, 3], [1, 2]])
        with pytest.warns(InconsistentInputWarning):
            shift = build_shift(row_scan_triangle)
        assert verify_unitary(shift)

    @pytest.mark.parametrize("name,rot", CORPUS[::4], ids=[n for n, _ in CORPUS[::4]])
    def test_corpus_involutions(self, name, rot):
        shift = build_shift(rot)
        assert shift.size == rot.num_vertices * rot.degree
        assert verify_unitary(shift)
        assert is_graphical(shift)

    def test_builds_one_table_in_place(self):
        # the images are filled in place and adopted by the permutation;
        # the return ports are cached on the validated map
        rot = cartesian_rotation(cycle(400), cycle(250))
        validate(rot)
        tracemalloc.start()
        try:
            shift = build_shift(rot)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * shift.images.nbytes

    def test_cubic_60_vertex_graph_has_180_darts(self):
        adj = random_regular_adjacency(60, 3, seed=6003)
        shift = build_shift(solve_matching(adj))
        assert shift.size == 180
        assert verify_unitary(shift)


class TestShiftPermutation:
    def test_identity_is_unitary_but_not_graphical(self):
        identity = ShiftPermutation(num_vertices=3, degree=2, images=np.arange(1, 7))
        assert verify_unitary(identity)
        assert not is_graphical(identity)

    def test_non_bijection_fails(self):
        collide = ShiftPermutation(num_vertices=3, degree=2,
                                   images=np.array([2, 2, 3, 4, 5, 6]))
        assert not verify_unitary(collide)

    def test_non_involution_fails(self):
        # a 3-cycle on darts is a bijection but not an involution
        three_cycle = ShiftPermutation(num_vertices=3, degree=2,
                                       images=np.array([2, 3, 1, 4, 5, 6]))
        assert not verify_unitary(three_cycle)

    def test_out_of_range_images_rejected(self):
        with pytest.raises(MalformedInputError):
            ShiftPermutation(num_vertices=2, degree=1, images=np.array([3, 1]))

    def test_writable_images_copied(self):
        images = np.array([2, 1, 4, 3])
        shift = ShiftPermutation(num_vertices=2, degree=2, images=images)
        images[0] = 1
        assert shift.images.tolist() == [2, 1, 4, 3]
        assert not shift.images.flags.writeable

    def test_read_only_owned_int64_images_adopted(self):
        images = np.array([2, 1, 4, 3], dtype=np.int64)
        images.setflags(write=False)
        assert ShiftPermutation(num_vertices=2, degree=2, images=images).images is images

    def test_equality_and_hash(self):
        shift = ShiftPermutation(num_vertices=2, degree=2, images=np.array([2, 1, 4, 3]))
        same = ShiftPermutation(num_vertices=2, degree=2, images=[2, 1, 4, 3])
        assert shift == same and hash(shift) == hash(same)
        assert shift != ShiftPermutation(num_vertices=2, degree=2, images=np.array([2, 1, 3, 4]))
        assert shift != ShiftPermutation(num_vertices=4, degree=1, images=np.array([2, 1, 4, 3]))

    @pytest.mark.parametrize("n,d", [(0, 1), (1, 0), (-1, 2)])
    def test_nonpositive_shape_rejected(self, n, d):
        with pytest.raises(MalformedInputError, match="need positive vertex count and degree"):
            ShiftPermutation(num_vertices=n, degree=d, images=np.ones(max(n * d, 0)))

    @pytest.mark.parametrize("n,d,images", [(2.5, 2, [2, 1, 4, 3, 5]), (None, 1, [1]),
                                            (2, "2", [2, 1, 4, 3])],
                             ids=["float-count", "none-count", "str-degree"])
    def test_non_integer_shape_rejected(self, n, d, images):
        with pytest.raises(MalformedInputError, match="vertex count and degree must be integers"):
            ShiftPermutation(num_vertices=n, degree=d, images=images)

    def test_non_integer_images_rejected(self):
        with pytest.raises(MalformedInputError, match="dart images must be integers"):
            ShiftPermutation(num_vertices=2, degree=1, images=np.array([2.0, 1.0]))

    def test_wrong_length_rejected(self):
        with pytest.raises(MalformedInputError):
            ShiftPermutation(num_vertices=2, degree=2, images=np.array([1, 2]))
        with pytest.raises(MalformedInputError):
            ShiftPermutation(num_vertices=2, degree=1, images=[[1], [2, 3]])  # ragged
