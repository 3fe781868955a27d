"""Shared test fixtures: the family corpus and seeded random regular graphs."""

import random
import tracemalloc

import numpy as np
import pytest

from rotmaps import (
    AdjacencyMatrix,
    complete,
    complete_bipartite,
    cycle,
    generalized_petersen,
    hypercube,
)


def corpus_members():
    """Every family instance the suites sweep over: 40 named rotation maps."""
    members = []
    for n in range(3, 13):
        members.append((f"cycle-{n}", cycle(n)))
    for n in range(3, 9):
        members.append((f"complete-{n}", complete(n)))
    for n in range(2, 7):
        members.append((f"bipartite-{n}", complete_bipartite(n)))
    for n in range(3, 10):
        for s in range(1, (n - 1) // 2 + 1):
            members.append((f"gp-{n}-{s}", generalized_petersen(n, s)))
    for m in range(1, 4):
        members.append((f"hypercube-{m}", hypercube(m)))
    return members


CORPUS = corpus_members()
CORPUS_IDS = [name for name, _ in CORPUS]


@pytest.fixture(scope="session")
def corpus():
    return CORPUS


def random_regular_adjacency(n, d, seed):
    """Pairing model with rejection: reshuffle stubs until the pairing is a simple graph."""
    if (n * d) % 2 != 0:
        raise ValueError("n * d must be even")
    if not 1 <= d < n:
        raise ValueError("need 1 <= d < n")
    rng = random.Random(seed)
    stubs = [v for v in range(1, n + 1) for _ in range(d)]
    for _ in range(100_000):
        rng.shuffle(stubs)
        arcs = set()  # both directions of each edge paired so far
        for a, b in zip(stubs[::2], stubs[1::2]):
            if a == b or (a, b) in arcs:
                break
            arcs.update(((a, b), (b, a)))
        else:
            tails, heads = np.array(list(arcs)).T
            mat = np.zeros((n, n), dtype=np.int64)
            mat[tails - 1, heads - 1] = 1
            return AdjacencyMatrix(mat)
    raise RuntimeError(f"no simple pairing found for n={n}, d={d}, seed={seed}")


def traced_peak(call):
    """Peak bytes tracemalloc sees while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


def is_connected(adj):
    """Breadth-first reachability from vertex 1."""
    n = adj.order
    seen = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for v in frontier:
            for w in np.nonzero(adj.matrix[v - 1])[0] + 1:
                w = int(w)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen) == n
