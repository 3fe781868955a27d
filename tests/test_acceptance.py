"""End-to-end acceptance suite: one test per exit criterion.

Each test prints a single ``criterion N (...): PASS`` line when it holds
(visible with ``pytest -v -s`` or on failure).  Tolerances are pinned here:
exact integer equality for tables and counts, 1e-8 for spectra computed by
LAPACK ``eigvalsh``.  Everything is seeded and deterministic.
"""

import numpy as np

from conftest import CORPUS, is_connected, random_regular_adjacency
from rotmaps import (
    RotationMatrix,
    adjacency_from_rotation,
    build_shift,
    cartesian_adjacency,
    cartesian_rotation,
    complete,
    complete_bipartite,
    cycle,
    generalized_petersen,
    is_consistent,
    k2,
    rotation_from_adjacency,
    solve_backtracking,
    solve_matching,
    spectrum,
    validate,
    verify_unitary,
)
from rotmaps.io import format_rot

SPECTRUM_TOL = 1e-8

PINNED_FILES = {
    "cycle(5)": (cycle, (5,), "5 2\n2 5\n3 1\n4 2\n5 3\n1 4\n"),
    "complete(5)": (complete, (5,),
                    "5 4\n2 3 4 5\n3 4 5 1\n4 5 1 2\n5 1 2 3\n1 2 3 4\n"),
    "complete_bipartite(3)": (complete_bipartite, (3,),
                              "6 3\n4 5 6\n5 6 4\n6 4 5\n1 2 3\n2 3 1\n3 1 2\n"),
    "generalized_petersen(7,3)": (
        generalized_petersen, (7, 3),
        "14 3\n2 8 7\n3 9 1\n4 10 2\n5 11 3\n6 12 4\n7 13 5\n1 14 6\n"
        "11 1 12\n12 2 13\n13 3 14\n14 4 8\n8 5 9\n9 6 10\n10 7 11\n"),
    "cycle(4)": (cycle, (4,), "4 2\n2 4\n3 1\n4 2\n1 3\n"),
    "cycle(6)": (cycle, (6,), "6 2\n2 6\n3 1\n4 2\n5 3\n6 4\n1 5\n"),
}

TORUS_TABLE = [
    [2, 6, 7, 19], [3, 1, 8, 20], [4, 2, 9, 21], [5, 3, 10, 22],
    [6, 4, 11, 23], [1, 5, 12, 24],
    [8, 12, 13, 1], [9, 7, 14, 2], [10, 8, 15, 3], [11, 9, 16, 4],
    [12, 10, 17, 5], [7, 11, 18, 6],
    [14, 18, 19, 7], [15, 13, 20, 8], [16, 14, 21, 9], [17, 15, 22, 10],
    [18, 16, 23, 11], [13, 17, 24, 12],
    [20, 24, 1, 13], [21, 19, 2, 14], [22, 20, 3, 15], [23, 21, 4, 16],
    [24, 22, 5, 17], [19, 23, 6, 18],
]


def seeded_pairs(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        i, j = rng.integers(0, len(CORPUS), 2)
        yield CORPUS[int(i)], CORPUS[int(j)]


def random_graph_configs(seed, count):
    rng = np.random.default_rng(seed)
    configs = []
    while len(configs) < count:
        d = int(rng.choice([3, 4, 5]))
        n = int(rng.integers(6, 25))
        if n > d and (n * d) % 2 == 0:
            configs.append((n, d, seed + len(configs) + 1))
    return configs


def test_criterion_1_pinned_family_files():
    for label, (maker, args, expected) in PINNED_FILES.items():
        assert format_rot(maker(*args)) == expected, label
    print("criterion 1 (pinned family tables, byte-exact): PASS")


def test_criterion_2_torus_reconstruction():
    torus = cartesian_rotation(cycle(6), cycle(4))
    assert torus.entries.tolist() == TORUS_TABLE
    assert is_consistent(torus)
    # the lone corrected entry: the bridge formula forces row 23 port 4 = 17;
    # with 16 there instead, 16 repeats in column 4
    flawed = [row[:] for row in TORUS_TABLE]
    flawed[22][3] = 16
    report = validate(RotationMatrix(flawed))
    assert not report.is_consistent
    assert any(v.kind == "duplicate-in-column" and v.location == (4, 16)
               for v in report.violations)
    print("criterion 2 (torus reconstruction with corrected entry): PASS")


def test_criterion_3_consistency_preservation():
    failures = []
    for (name_g, rot_g), (name_h, rot_h) in seeded_pairs(300, 100):
        if not is_consistent(cartesian_rotation(rot_g, rot_h)):
            failures.append((name_g, name_h))
    assert failures == []
    print("criterion 3 (consistency preserved on 100 seeded pairs): PASS")


def test_criterion_4_adjacency_commutation():
    for (name_g, rot_g), (name_h, rot_h) in seeded_pairs(400, 25):
        via_rotation = adjacency_from_rotation(cartesian_rotation(rot_g, rot_h))
        via_kronecker = cartesian_adjacency(
            adjacency_from_rotation(rot_g), adjacency_from_rotation(rot_h)
        )
        assert via_rotation == via_kronecker, (name_g, name_h)
    print("criterion 4 (adjacency commutation on 25 seeded pairs): PASS")


def test_criterion_5_product_structure_suite():
    for (name_g, rot_g), (name_h, rot_h) in seeded_pairs(500, 10):
        a1 = adjacency_from_rotation(rot_g)
        a2 = adjacency_from_rotation(rot_h)
        d1, d2 = a1.degree(), a2.degree()
        prod = cartesian_adjacency(a1, a2)
        assert prod.order == a1.order * a2.order, (name_g, name_h)
        assert prod.degree() == d1 + d2, (name_g, name_h)
        assert prod.edge_count() == a1.order * a2.order * (d1 + d2) // 2, (name_g, name_h)
        expected = np.sort(
            (spectrum(a1).values[:, None] + spectrum(a2).values[None, :]).ravel()
        )[::-1]
        actual = spectrum(prod).values
        assert np.max(np.abs(actual - expected)) <= SPECTRUM_TOL, (name_g, name_h)
    print("criterion 5 (vertex/degree/edge counts and additive spectra on 10 pairs): PASS")


def test_criterion_6_row_scan_never_consistent_for_degree_2_plus():
    checked = 0
    for name, rot in CORPUS:
        adj = adjacency_from_rotation(rot)
        reading = rotation_from_adjacency(adj)
        if rot.degree >= 2:
            assert is_connected(adj), name
            assert not is_consistent(reading), name
            checked += 1
        else:
            # the documented degree-1 exception: a single edge reads consistent
            assert is_consistent(reading), name
    assert checked >= 35
    print("criterion 6 (row-scan reading inconsistent on all connected d>=2 graphs): PASS")


def test_criterion_7_involution_and_round_trip():
    from rotmaps import to_full_form

    for name, rot in CORPUS:
        ports = to_full_form(rot)
        assert not ports.flags.writeable, name
        n, d = rot.entries.shape
        w, j = rot.entries - 1, ports - 1
        # the partner (w, j) of dart (v, i) has (v, i) as its partner
        assert (rot.entries[w, j] == np.arange(1, n + 1)[:, None]).all(), name
        assert (ports[w, j] == np.arange(1, d + 1)).all(), name
        adj = adjacency_from_rotation(rot)
        assert adjacency_from_rotation(rotation_from_adjacency(adj)) == adj, name
    print("criterion 7 (dart involution and adjacency round trip on the corpus): PASS")


def test_criterion_8_solver_soundness():
    inputs = [(name, adjacency_from_rotation(rot)) for name, rot in CORPUS]
    for n, d, seed in random_graph_configs(800, 20):
        inputs.append((f"random-{n}-{d}-{seed}", random_regular_adjacency(n, d, seed)))
    for name, adj in inputs:
        solvers = [solve_matching] + [solve_backtracking] * (adj.order <= 12)
        for solve in solvers:
            rot = solve(adj)
            assert is_consistent(rot), name
            assert adjacency_from_rotation(rot) == adj, name
    print("criterion 8 (matching solver sound everywhere; backtracker agrees to 12 vertices): PASS")


def test_criterion_9_shift_permutations():
    for name, rot in CORPUS:
        shift = build_shift(rot)
        assert shift.size == rot.num_vertices * rot.degree, name
        assert verify_unitary(shift), name
    buckyball_sized = random_regular_adjacency(60, 3, seed=900)
    shift = build_shift(solve_matching(buckyball_sized))
    assert shift.size == 180
    assert verify_unitary(shift)
    print("criterion 9 (involutive shifts of size N*d; 60-vertex cubic graph gives 180 darts): PASS")


def test_criterion_10_petersen_step_1_is_prism():
    k2_adj = adjacency_from_rotation(k2())
    for n in range(3, 9):
        gp_spec = spectrum(adjacency_from_rotation(generalized_petersen(n, 1)))
        prism_spec = spectrum(cartesian_adjacency(adjacency_from_rotation(cycle(n)), k2_adj))
        assert np.max(np.abs(gp_spec.values - prism_spec.values)) <= SPECTRUM_TOL, n
    print("criterion 10 (GP(n,1) spectra match ring-times-edge products, n=3..8): PASS")
