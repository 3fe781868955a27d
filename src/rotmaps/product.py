"""Box products of rotation maps by addition and table look-ups.

The product of G (the inner factor) and H (the outer factor) lays out
|V_H| consecutive *clouds* of |V_G| vertices: vertex j of cloud c is
(c-1)*|V_G| + j.  Two rules give its table:

- ports 1..d_G add the cloud offset to G's table: port i sends vertex j
  of cloud c to vertex G[j][i] of the same cloud;
- ports d_G+1..d_G+d_H look up H's table and keep the in-cloud index:
  port d_G + k sends vertex j of cloud c to vertex j of cloud H[c][k].

When both factor maps are consistent the product map is consistent too:
every G-column restricted to a cloud is a shifted permutation, and every
bridge column permutes whole clouds because the matching H-column is a
permutation.

The same two rules pair the product's darts from its factors' return
ports, which validating the factors has cached: a port i <= d_G comes back
under G's return port, and a bridge port d_G + k under d_G plus H's.  The
product is adopted with that pairing, run only if its ports are asked for,
so a product is never sorted.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import RotationMatrix, _adopt, _require_darts, _require_valid
from .exceptions import InconsistentInputWarning

__all__ = ["cartesian_rotation"]


def _require_product_darts(vg: int, dg: int, vh: int, dh: int) -> None:
    """Refuse a product of more than MAX_DARTS darts from its factors' sizes alone."""
    _require_darts(vg * vh * (dg + dh), f"product of {vh} clouds of {vg} vertices")


def cartesian_rotation(inner: RotationMatrix, outer: RotationMatrix) -> RotationMatrix:
    """Product rotation map; consistent whenever both factors are.

    Ports 1..d_inner stay inside each cloud, ports d_inner+1..d_inner+d_outer
    bridge between clouds.  Valid-but-inconsistent factors are accepted with
    a warning: the result is still a valid map, but its consistency is no
    longer guaranteed.  Costs O(n*d) for the n*d entries of the product; a
    product of more than MAX_DARTS darts is rejected before it is built.
    """
    vg, vh, dg = inner.num_vertices, outer.num_vertices, inner.degree
    _require_product_darts(vg, dg, vh, outer.degree)
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
    # filled in place by the two rules through a view with axes (cloud,
    # in-cloud vertex, port), then adopted by the map
    table = np.empty((vg * vh, dg + outer.degree), dtype=np.int64)
    clouds = table.reshape(vh, vg, -1)
    np.add(inner.entries[None], vg * np.arange(vh)[:, None, None], out=clouds[..., :dg])
    np.add(np.arange(1, vg + 1)[None, :, None], vg * (outer.entries[:, None, :] - 1),
           out=clouds[..., dg:])

    def pairing():
        ports = np.empty_like(table)
        clouds = ports.reshape(vh, vg, -1)
        clouds[..., :dg] = inner._ports
        np.add(outer._ports[:, None, :], dg, out=clouds[..., dg:])
        return ports

    return _adopt(RotationMatrix, entries=table, _pairing=pairing)
