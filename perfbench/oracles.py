"""Output checks that use numpy only, never the rotmaps code they check.

Tables are 1-indexed ``n x d`` integer arrays in the matrix form rotmaps
documents: row v, column i holds the endpoint of the i-th edge leaving v.
"""

from __future__ import annotations

import json

import numpy as np


class Mismatch(Exception):
    """An output differs from what the oracle expects."""


def require(ok, what: str) -> None:
    if not ok:
        raise Mismatch(what)


# ---- expected tables, from the documented conventions ----------------------

def cycle_table(n: int) -> np.ndarray:
    """Port 1 to the successor, port 2 to the predecessor."""
    v = np.arange(n)
    return np.column_stack([(v + 1) % n, (v - 1) % n]) + 1


def product_table(inner: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """Box product laid out cloud by cloud: vertex c*|inner| + j is vertex j of copy c."""
    ni, no = len(inner), len(outer)
    clouds = np.arange(no)[:, None, None] * ni
    local = (inner[None, :, :] + clouds).reshape(ni * no, -1)
    bridge = ((outer[:, None, :] - 1) * ni + np.arange(1, ni + 1)[None, :, None]).reshape(ni * no, -1)
    return np.hstack([local, bridge])


def hypercube_table(m: int) -> np.ndarray:
    """Port t flips coordinate t."""
    x = np.arange(1 << m)[:, None]
    return (x ^ (1 << np.arange(m))[None, :]) + 1


def adjacency_of(table: np.ndarray) -> np.ndarray:
    n = len(table)
    mat = np.zeros((n, n), dtype=np.int64)
    mat[np.arange(n)[:, None], table - 1] = 1
    return mat


def row_scan_table(mat: np.ndarray) -> np.ndarray:
    """Row v lists the neighbours of v in increasing order."""
    rows, cols = np.nonzero(mat)
    return cols.reshape(len(mat), -1) + 1


def column_duplicates(table: np.ndarray) -> int:
    """Number of (column, vertex) pairs where the vertex repeats in the column."""
    s = np.sort(table, axis=0)
    repeat = s[1:] == s[:-1]
    starts = repeat & ~np.vstack([np.zeros((1, table.shape[1]), bool), repeat[:-1]])
    return int(starts.sum())


# ---- expected texts ---------------------------------------------------------

def rot_text(table: np.ndarray) -> str:
    n, d = table.shape
    return f"{n} {d}\n" + "".join(" ".join(map(str, row)) + "\n" for row in table.tolist())


def adj_text(mat: np.ndarray) -> str:
    n = len(mat)
    buf = np.full((n, 2 * n), ord(","), dtype=np.uint8)
    buf[:, 0::2] = mat + ord("0")
    buf[:, -1] = ord("\n")
    return buf.tobytes().decode()


def json_text(table: np.ndarray) -> str:
    n, d = table.shape
    return json.dumps({"n": n, "d": d, "rot": table.tolist()}, separators=(",", ":")) + "\n"


# ---- properties -------------------------------------------------------------

def check_table(table: np.ndarray, expected: np.ndarray, what: str) -> None:
    require(table.shape == expected.shape and np.array_equal(table, expected),
            f"{what}: table differs from the expected one")


def check_consistent(table: np.ndarray, what: str) -> None:
    n = len(table)
    require(np.array_equal(np.sort(table, axis=0),
                           np.broadcast_to(np.arange(1, n + 1)[:, None], table.shape)),
            f"{what}: a column is not a permutation of the vertices")


def check_same_graph(table: np.ndarray, mat: np.ndarray, what: str) -> None:
    n = len(mat)
    require(table.shape[0] == n and np.array_equal(np.sort(table, axis=1), row_scan_table(mat)),
            f"{what}: map describes another graph")


def check_shift(table: np.ndarray, images: np.ndarray, what: str) -> None:
    """Dart k = (v, i) goes to its partner (w, j): ent[v-1, i-1] == w and ent[w-1, j-1] == v."""
    n, d = table.shape
    k = np.arange(n * d)
    require(images.shape == k.shape, f"{what}: {images.size} dart images for {k.size} darts")
    img = images - 1
    v, i, w, j = k // d, k % d, img // d, img % d
    require(np.array_equal(table[v, i], w + 1) and np.array_equal(table[w, j], v + 1),
            f"{what}: a dart is not paired with its partner")
    require(np.array_equal(img[img], k), f"{what}: the shift is not an involution")


def perm_images(text: str, n: int, d: int) -> np.ndarray:
    """Read a .perm text whose dart lines must list every dart in index order."""
    head, _, body = text.partition("\n")
    require(head == f"{n} {d}", f".perm header {head!r}")
    cols = np.array(body.split(), dtype=np.int64).reshape(-1, 4)
    k = np.arange(n * d)
    require(np.array_equal(cols[:, 0], k // d + 1) and np.array_equal(cols[:, 1], k % d + 1),
            ".perm dart lines out of order")
    return (cols[:, 2] - 1) * d + cols[:, 3]


def check_spectrum(values: np.ndarray, mat: np.ndarray, tol: float, what: str) -> None:
    ref = np.linalg.eigvalsh(mat.astype(np.float64))[::-1]
    require(values.shape == ref.shape and float(np.max(np.abs(values - ref))) <= tol,
            f"{what}: eigenvalues differ from eigvalsh by more than {tol:g}")
