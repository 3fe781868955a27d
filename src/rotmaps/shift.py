"""Shift permutations on darts.

A rotation map on N vertices of degree d induces a permutation of the N*d
darts, pairing each dart with its partner.  Stored as a permutation it takes
N*d integers; its 0/1 matrix (never materialized here) is unitary and
self-inverse, which is what a coined-walk move step needs.  Dart (v, i) has
index (v-1)*d + i, 1-indexed.
"""

from __future__ import annotations

import dataclasses
import operator
import warnings

import numpy as np

from .core import (RotationMatrix, _adopt, _array, _equal_by, _frozen, _require_valid,
                   to_full_form)
from .exceptions import InconsistentInputWarning, MalformedInputError

__all__ = [
    "ShiftPermutation",
    "build_shift",
    "verify_unitary",
]


@_equal_by("num_vertices", "degree", "images")
@dataclasses.dataclass(frozen=True, eq=False)
class ShiftPermutation:
    """Candidate permutation on the N*d darts of a degree-d graph on N vertices.

    ``images[k-1]`` is the image of dart index k.  A read-only int64 array
    of images that is C-contiguous and owns its data is adopted as it is;
    any other is copied into one.  Construction only checks
    shapes and value ranges; bijectivity and involutivity are checked by
    :func:`verify_unitary`, so defective tables can be represented and
    rejected there.  Permutations are equal when their vertex counts,
    degrees and images are.  The constructor checks every array it is
    given; :func:`build_shift` and the ``.perm`` reader hand over images
    they have proven in range, fresh and int64, which are frozen and
    adopted as they are, without those checks.
    """

    num_vertices: int
    degree: int
    images: np.ndarray
    _dtype = np.int64

    def __post_init__(self):
        try:
            n, d = operator.index(self.num_vertices), operator.index(self.degree)
        except TypeError:
            raise MalformedInputError(f"vertex count and degree must be integers, got "
                                      f"{self.num_vertices!r}, {self.degree!r}") from None
        if n < 1 or d < 1:
            raise MalformedInputError(f"need positive vertex count and degree, got {n}, {d}")
        object.__setattr__(self, "num_vertices", n)
        object.__setattr__(self, "degree", d)
        imgs = _array(self.images, "dart images")
        size = n * d
        if imgs.ndim != 1 or imgs.size != size:
            raise MalformedInputError(f"need {size} dart images, got shape {imgs.shape}")
        if not np.issubdtype(imgs.dtype, np.integer):
            raise MalformedInputError("dart images must be integers")
        imgs = _frozen(imgs, self._dtype)
        if imgs.min() < 1 or imgs.max() > size:
            raise MalformedInputError(f"dart image outside 1..{size}")
        object.__setattr__(self, "images", imgs)

    @property
    def size(self) -> int:
        return self.num_vertices * self.degree


def build_shift(rot: RotationMatrix) -> ShiftPermutation:
    """Shift permutation of a valid rotation map: each dart moves to its partner.

    Warns on a valid-but-inconsistent map: the permutation is still an
    involution, but walk operators built downstream expect consistency.
    """
    report = _require_valid(rot)
    if not report.is_consistent:
        warnings.warn(
            "rotation map is not consistent; the shift is still an involutive "
            "permutation, but walk constructions expect a consistent map",
            InconsistentInputWarning,
            stacklevel=2,
        )
    images = rot.entries.ravel() - 1  # a fresh array, filled in place and adopted
    images *= rot.degree
    images += to_full_form(rot).ravel()
    return _adopt(ShiftPermutation, num_vertices=rot.num_vertices, degree=rot.degree,
                  images=images)  # each dart's partner, in 1..N*d


def verify_unitary(shift: ShiftPermutation) -> bool:
    """True when the stored images form an involutive permutation.

    Exactly then the corresponding 0/1 matrix on dart space is unitary and
    its own inverse.  One test covers both: the constructor keeps every
    image in 1..N*d, so ``imgs[imgs - 1]`` is defined, and a map that is its
    own inverse is a bijection.
    """
    imgs = shift.images
    return bool(np.array_equal(imgs[imgs - 1], np.arange(1, shift.size + 1)))
