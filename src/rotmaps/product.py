"""Box products of rotation maps, assembled cloud by cloud.

The product of maps G and H keeps |V_H| shifted copies of G (the *clouds*)
and routes the remaining ports between clouds following H's map: port
d_G + k sends vertex j of cloud i to vertex j of cloud H[i][k].  When both
factor maps are consistent the assembled product map is consistent too:
every G-column restricted to a cloud is a shifted permutation, and every
bridge column permutes whole clouds because the matching H-column is a
permutation.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from .core import RotationMatrix, _require_valid
from .exceptions import InconsistentInputWarning, MalformedInputError, ParameterError

__all__ = [
    "CloudPartition",
    "BlockLayout",
    "cloud_partition",
    "product_blocks",
    "assemble",
    "cartesian_rotation",
]


@dataclasses.dataclass(frozen=True)
class CloudPartition:
    """Consecutive ranges of product vertices: cloud i holds the i-th copy of the inner factor."""

    cloud_size: int
    cloud_count: int

    def __post_init__(self):
        if self.cloud_size < 2 or self.cloud_count < 2:
            raise ParameterError(
                f"cloud partition needs both sizes >= 2, got cloud_size={self.cloud_size}, "
                f"cloud_count={self.cloud_count}"
            )

    @property
    def num_vertices(self) -> int:
        return self.cloud_size * self.cloud_count

    @property
    def clouds(self) -> tuple[range, ...]:
        return tuple(self.vertices(i) for i in range(1, self.cloud_count + 1))

    def vertices(self, i: int) -> range:
        """Vertex ids of cloud i (1-indexed, inclusive range)."""
        if not 1 <= i <= self.cloud_count:
            raise ParameterError(f"cloud {i} outside 1..{self.cloud_count}")
        return range((i - 1) * self.cloud_size + 1, i * self.cloud_size + 1)

    def cloud_of(self, vertex: int) -> int:
        if not 1 <= vertex <= self.num_vertices:
            raise ParameterError(f"vertex {vertex} outside 1..{self.num_vertices}")
        return (vertex - 1) // self.cloud_size + 1


def cloud_partition(inner_size: int, cloud_count: int) -> CloudPartition:
    """Partition inner_size * cloud_count product vertices into consecutive clouds."""
    return CloudPartition(cloud_size=inner_size, cloud_count=cloud_count)


@dataclasses.dataclass(frozen=True, eq=False)
class BlockLayout:
    """Per-cloud blocks of a product map.

    ``local_blocks[i]`` holds the in-cloud copy of the inner factor's map for
    cloud i+1; ``bridge_blocks[i]`` holds the columns routing cloud i+1 to
    other clouds.  Stacking local|bridge horizontally and the clouds
    vertically yields the full product table.
    """

    local_blocks: tuple[np.ndarray, ...]
    bridge_blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        local = tuple(np.asarray(b).astype(np.int64) for b in self.local_blocks)
        bridge = tuple(np.asarray(b).astype(np.int64) for b in self.bridge_blocks)
        if len(local) != len(bridge):
            raise MalformedInputError(
                f"need one bridge block per local block, got {len(local)} and {len(bridge)}"
            )
        if len(local) < 2:
            raise MalformedInputError("block layout needs at least 2 clouds")
        shapes_local = {b.shape for b in local}
        shapes_bridge = {b.shape for b in bridge}
        if len(shapes_local) != 1 or len(shapes_bridge) != 1:
            raise MalformedInputError(
                f"ragged blocks: local shapes {sorted(shapes_local)}, bridge shapes {sorted(shapes_bridge)}"
            )
        (ls,) = shapes_local
        (bs,) = shapes_bridge
        if len(ls) != 2 or len(bs) != 2 or ls[0] != bs[0]:
            raise MalformedInputError(
                f"blocks must be 2-d with matching row counts, got local {ls} vs bridge {bs}"
            )
        for b in local + bridge:
            b.setflags(write=False)
        object.__setattr__(self, "local_blocks", local)
        object.__setattr__(self, "bridge_blocks", bridge)


def product_blocks(inner: RotationMatrix, outer: RotationMatrix) -> BlockLayout:
    """Blocks of the product map of two valid factor maps.

    Local block i is the inner map shifted by (i-1)*|V_inner|; bridge block i
    column k sends vertex j of cloud i to vertex j of cloud outer[i][k].
    """
    _require_valid(inner)
    _require_valid(outer)
    vg, vh = inner.num_vertices, outer.num_vertices
    local = inner.entries[None] + (np.arange(vh) * vg)[:, None, None]
    bridge = np.arange(1, vg + 1)[None, :, None] + (outer.entries[:, None, :] - 1) * vg
    return BlockLayout(local_blocks=tuple(local), bridge_blocks=tuple(bridge))


def assemble(layout: BlockLayout) -> RotationMatrix:
    """Concatenate a block layout into one product rotation table."""
    local, bridge = np.vstack(layout.local_blocks), np.vstack(layout.bridge_blocks)
    return RotationMatrix(np.hstack([local, bridge]))


def cartesian_rotation(inner: RotationMatrix, outer: RotationMatrix) -> RotationMatrix:
    """Product rotation map; consistent whenever both factors are.

    Ports 1..d_inner stay inside each cloud, ports d_inner+1..d_inner+d_outer
    bridge between clouds.  Valid-but-inconsistent factors are accepted with
    a warning: the result is still a valid map, but its consistency is no
    longer guaranteed.
    """
    rep_inner = _require_valid(inner)
    rep_outer = _require_valid(outer)
    if not (rep_inner.is_consistent and rep_outer.is_consistent):
        bad = []
        if not rep_inner.is_consistent:
            bad.append("inner")
        if not rep_outer.is_consistent:
            bad.append("outer")
        warnings.warn(
            f"inconsistent factor map(s): {', '.join(bad)}; "
            "the product is a valid map but may not be consistent",
            InconsistentInputWarning,
            stacklevel=2,
        )
    return assemble(product_blocks(inner, outer))
