"""The four workloads: seeded inputs, one pipeline per item, oracles, limit probes.

Each workload function returns a :class:`Workload` whose items are run in passes and
whose probes are run once after the passes.  An item's ``run`` calls the
public rotmaps API through ``tracer.call`` (or the CLI as a subprocess) and
returns its outputs; ``check`` compares them with :mod:`oracles`, outside
the timed region.
"""

from __future__ import annotations

import dataclasses
import re
import subprocess
import sys
from pathlib import Path
from typing import Callable

import networkx as nx
import numpy as np

import rotmaps
from rotmaps import io as rio

import oracles as orc
from oracles import require


class Limit(Exception):
    """A probe ended the way a known defect makes it end (for the CLI: a wrong exit code)."""


@dataclasses.dataclass(eq=False)
class Op:
    label: str
    darts: int
    run: Callable
    check: Callable


@dataclasses.dataclass
class Workload:
    items: list
    probes: list
    warmup: list  # run during set-up, outcome ignored


def internal(replay, name, fn, args, result):
    """Replay the public calls that ``fn`` makes internally, on the same inputs.

    Mirrors the code of the rotmaps functions the workloads call, so that a
    traced run can move the time of those inner calls to their own layer.
    """
    if name == "io.parse_rot":
        replay("core.validate", rotmaps.validate, result)
    elif name == "io.parse_perm":
        replay("shift.verify_unitary", rotmaps.verify_unitary, result)
    elif name == "product.cartesian_rotation":  # validated once itself, once in product_blocks
        for factor in args + args:
            replay("core.validate", rotmaps.validate, factor)
    elif name == "shift.build_shift":
        replay("core.validate", rotmaps.validate, args[0])
        replay("core.to_full_form", rotmaps.to_full_form, args[0])
    elif name in ("core.to_full_form", "core.is_consistent", "adjacency.adjacency_from_rotation"):
        replay("core.validate", rotmaps.validate, args[0])
    elif name == "families.build" and fn is rotmaps.hypercube:
        rot = rotmaps.k2()
        for _ in range(args[0] - 1):
            rot = replay("product.cartesian_rotation", rotmaps.cartesian_rotation, rot, rotmaps.k2())
    elif name == "adjacency.product_property_check":
        a1, a2 = args
        prod = replay("adjacency.cartesian_adjacency", rotmaps.cartesian_adjacency, a1, a2)
        for adj in (a1, a2, prod):
            replay("adjacency.spectrum", rotmaps.spectrum, adj)


def random_regular(n: int, d: int, seed: int) -> np.ndarray:
    g = nx.random_regular_graph(d, n, seed=seed)
    return nx.to_numpy_array(g, nodelist=range(n), dtype=np.int64)


def seeds(rng, k: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31, size=k)]


# ---- torus-shift: the O(n·d) table pipeline ---------------------------------

def table_pipeline(tr, rot):
    """format_rot → parse_rot → validate → build_shift → format_perm → parse_perm."""
    text = tr.call("io.format_rot", rio.format_rot, rot)
    parsed = tr.call("io.parse_rot", rio.parse_rot, text)
    report = tr.call("core.validate", rotmaps.validate, parsed)
    shift = tr.call("shift.build_shift", rotmaps.build_shift, parsed)
    perm = tr.call("io.format_perm", rio.format_perm, shift)
    back = tr.call("io.parse_perm", rio.parse_perm, perm)
    tr.count("io.bytes", 2 * len(text) + 2 * len(perm))
    tr.count("core.violations", len(report.violations))
    return rot, text, parsed, report, shift, perm, back


def check_table_pipeline(out, expected: np.ndarray) -> None:
    rot, text, parsed, report, shift, perm, back = out
    n, d = expected.shape
    orc.check_table(rot.entries, expected, "generated map")
    require(text == orc.rot_text(expected), "format_rot: text differs")
    orc.check_table(parsed.entries, expected, "parse_rot")
    require(report.is_valid_map and report.is_consistent and not report.violations,
            "validate: a consistent map was reported with violations")
    orc.check_shift(expected, shift.images, "build_shift")
    orc.check_shift(expected, orc.perm_images(perm, n, d), "format_perm")
    require(np.array_equal(back.images, shift.images), "parse_perm: images differ")


def torus_op(a: int, b: int) -> Op:
    def run(tr):
        inner = tr.call("families.build", rotmaps.cycle, a)
        outer = tr.call("families.build", rotmaps.cycle, b)
        rot = tr.call("product.cartesian_rotation", rotmaps.cartesian_rotation, inner, outer)
        return table_pipeline(tr, rot)

    def check(out):
        check_table_pipeline(out, orc.product_table(orc.cycle_table(a), orc.cycle_table(b)))

    return Op(f"C{a}xC{b}", a * b * 4, run, check)


def hypercube_op(m: int) -> Op:
    def run(tr):
        return table_pipeline(tr, tr.call("families.build", rotmaps.hypercube, m))

    return Op(f"Q{m}", (1 << m) * m, run, lambda out: check_table_pipeline(out, orc.hypercube_table(m)))


def torus_shift(seed, tr, workdir):
    items = [torus_op(50, 50), torus_op(100, 50), torus_op(100, 100), hypercube_op(12)]
    return Workload(items, probes=[torus_op(400, 250)], warmup=[torus_op(5, 4)])


# ---- adjacency-solve: dense input to a consistent map -----------------------

def solve_pipeline(tr, adj, mat):
    """Row-scan map and its violations, then the matching solver and its checks."""
    n = len(mat)
    scan = tr.call("adjacency.rotation_from_adjacency", rotmaps.rotation_from_adjacency, adj)
    report = tr.call("core.validate", rotmaps.validate, scan)
    rot = tr.call("solver.solve_matching", rotmaps.solve_matching, adj)
    consistent = tr.call("core.is_consistent", rotmaps.is_consistent, rot)
    back = tr.call("adjacency.adjacency_from_rotation", rotmaps.adjacency_from_rotation, rot)
    shift = tr.call("shift.build_shift", rotmaps.build_shift, rot)
    text = tr.call("io.format_rot", rio.format_rot, rot)
    tr.count("adjacency.dense_cells", 2 * n * n)
    tr.count("core.violations", len(report.violations))
    tr.count("io.bytes", len(text))
    return scan, report, rot, consistent, back, shift, text


def check_solve_pipeline(out, mat):
    scan, report, rot, consistent, back, shift, text = out
    expected_scan = orc.row_scan_table(mat)
    orc.check_table(scan.entries, expected_scan, "rotation_from_adjacency")
    require(report.is_valid_map and not report.is_consistent
            and len(report.violations) == orc.column_duplicates(expected_scan),
            "validate: wrong verdict or violation count on the row-scan map")
    orc.check_same_graph(rot.entries, mat, "solve_matching")
    orc.check_consistent(rot.entries, "solve_matching")
    require(consistent is True, "is_consistent: a consistent map was rejected")
    require(np.array_equal(back.matrix, mat), "adjacency_from_rotation: another graph")
    orc.check_shift(rot.entries, shift.images, "build_shift")
    require(text == orc.rot_text(rot.entries), "format_rot: text differs")


def adjacency_op(n: int, d: int, seed: int, tr) -> Op:
    mat = random_regular(n, d, seed)
    text = tr.call("io.format_adj", rio.format_adj, rotmaps.AdjacencyMatrix(mat))

    def run(tr):
        adj = tr.call("io.parse_adj", rio.parse_adj, text)
        tr.count("io.bytes", len(text))
        tr.count("adjacency.dense_cells", n * n)
        return adj, solve_pipeline(tr, adj, mat)

    def check(out):
        adj, rest = out
        require(text == orc.adj_text(mat), "format_adj: text differs")
        require(np.array_equal(adj.matrix, mat), "parse_adj: matrix differs")
        check_solve_pipeline(rest, mat)

    return Op(f"rr{n}d{d}", n * d, run, check)


def backtrack_op(graphs, tr) -> Op:
    """Both solvers on a few small graphs, as one item: each alone takes milliseconds."""
    mats = [random_regular(n, d, seed) for n, d, seed in graphs]
    texts = [tr.call("io.format_adj", rio.format_adj, rotmaps.AdjacencyMatrix(m)) for m in mats]

    def run(tr):
        out = []
        for text, mat in zip(texts, mats):
            adj = tr.call("io.parse_adj", rio.parse_adj, text)
            tr.count("io.bytes", len(text))
            tr.count("adjacency.dense_cells", mat.size)
            out.append((tr.call("solver.solve_backtracking", rotmaps.solve_backtracking, adj),
                        tr.call("solver.solve_matching", rotmaps.solve_matching, adj)))
        return out

    def check(out):
        for mat, solved in zip(mats, out):
            for rot, what in zip(solved, ("solve_backtracking", "solve_matching")):
                orc.check_same_graph(rot.entries, mat, what)
                orc.check_consistent(rot.entries, what)

    label = "bt" + "-".join(str(n) for n, _, _ in graphs)
    return Op(label, sum(n * d for n, d, _ in graphs), run, check)


def dense_probe(label: str, make) -> Op:
    """The solve pipeline from an in-memory matrix, built when the probe runs."""
    def run(tr):
        mat = make()
        return mat, solve_pipeline(tr, rotmaps.AdjacencyMatrix(mat), mat)

    return Op(label, 0, run, lambda out: check_solve_pipeline(out[1], out[0]))


def torus_adjacency(a: int, b: int) -> np.ndarray:
    return orc.adjacency_of(orc.product_table(orc.cycle_table(a), orc.cycle_table(b)))


def adjacency_solve(seed, tr, workdir):
    rng = np.random.default_rng(seed)
    sizes = [(n, d) for n in (250, 500, 750) for d in (3, 4, 6)]
    items = [adjacency_op(n, d, s, tr) for (n, d), s in zip(sizes, seeds(rng, len(sizes)))]
    small = ((10, 3), (12, 3), (16, 3))
    items.append(backtrack_op([(n, d, s) for (n, d), s in zip(small, seeds(rng, len(small)))], tr))
    probe_seed = seeds(rng, 1)[0]
    probes = [dense_probe("rr2000d4", lambda: random_regular(2000, 4, probe_seed)),
              dense_probe("C60xC50-adj", lambda: torus_adjacency(60, 50))]
    return Workload(items, probes, warmup=[adjacency_op(12, 3, 0, tr)])


# ---- spectral-check: the dense eigensolver ---------------------------------

def gp_adjacency(n: int, s: int) -> np.ndarray:
    mat = np.zeros((2 * n, 2 * n), dtype=np.int64)
    j = np.arange(n)
    mat[j, (j + 1) % n] = mat[j, n + j] = mat[n + j, n + (j + s) % n] = 1
    return mat | mat.T


FACTORS = {
    "C8": (rotmaps.cycle, (8,), lambda: orc.adjacency_of(orc.cycle_table(8))),
    "C10": (rotmaps.cycle, (10,), lambda: orc.adjacency_of(orc.cycle_table(10))),
    "C12": (rotmaps.cycle, (12,), lambda: orc.adjacency_of(orc.cycle_table(12))),
    "C15": (rotmaps.cycle, (15,), lambda: orc.adjacency_of(orc.cycle_table(15))),
    "C24": (rotmaps.cycle, (24,), lambda: orc.adjacency_of(orc.cycle_table(24))),
    "GP7-3": (rotmaps.generalized_petersen, (7, 3), lambda: gp_adjacency(7, 3)),
    "K5": (rotmaps.complete, (5,), lambda: 1 - np.eye(5, dtype=np.int64)),
    "Q3": (rotmaps.hypercube, (3,), lambda: orc.adjacency_of(orc.hypercube_table(3))),
}


def product_check_op(f1: str, f2: str) -> Op:
    m1, m2 = FACTORS[f1][2](), FACTORS[f2][2]()
    n1, n2 = len(m1), len(m2)
    degree = int(m1[0].sum() + m2[0].sum())

    def run(tr):
        adjs = []
        for name in (f1, f2):
            maker, params, _ = FACTORS[name]
            rot = tr.call("families.build", maker, *params)
            adjs.append(tr.call("adjacency.adjacency_from_rotation", rotmaps.adjacency_from_rotation, rot))
        tr.count("adjacency.dense_cells", 2 * (n1 * n1 + n2 * n2 + (n1 * n2) ** 2))
        return adjs, tr.call("adjacency.product_property_check", rotmaps.product_property_check, *adjs)

    def check(out):
        (a1, a2), report = out
        require(np.array_equal(a1.matrix, m1) and np.array_equal(a2.matrix, m2),
                "factor adjacency differs")
        require((report.vertices_actual, report.degree_actual, report.edges_actual)
                == (n1 * n2, degree, n1 * n2 * degree // 2) and report.all_hold,
                f"product_property_check: {report.failures()}")

    return Op(f"{f1}x{f2}", n1 * n2 * degree, run, check)


def spectrum_op(label: str, mat: np.ndarray) -> Op:
    adj = rotmaps.AdjacencyMatrix(mat)
    n = len(mat)

    def run(tr):
        tr.count("adjacency.dense_cells", n * n)
        return tr.call("adjacency.spectrum", rotmaps.spectrum, adj)

    def check(spec):
        orc.check_spectrum(spec.values, mat, 1e-8, "spectrum")

    return Op(label, n * int(mat[0].sum()), run, check)


def spectral_check(seed, tr, workdir):
    rng = np.random.default_rng(seed)
    items = [product_check_op(*pair) for pair in
             (("C12", "C10"), ("GP7-3", "C8"), ("K5", "C24"), ("Q3", "C15"))]
    items += [spectrum_op(f"rr120d4-{k}", random_regular(120, 4, s))
              for k, s in enumerate(seeds(rng, 2))]
    return Workload(items, probes=[], warmup=[spectrum_op("C8", orc.adjacency_of(orc.cycle_table(8)))])


# ---- cli-small: every subcommand as a subprocess ----------------------------

def cli(*args):
    return subprocess.run([sys.executable, "-m", "rotmaps.cli", *map(str, args)],
                          capture_output=True, text=True, timeout=120)


def cli_op(sub: str, args, darts: int, check, output: Path | None = None, before=None) -> Op:
    def run(tr):
        if before is not None:
            before()
        with tr.span(f"cli.{sub}"):
            proc = cli(sub, *args)
        file_text = None
        if output is not None and output.exists():
            file_text = output.read_text()
            output.unlink()
        return proc.returncode, proc.stdout, proc.stderr, file_text

    label = " ".join([sub, *(str(a) if not isinstance(a, Path) else a.name for a in args)])
    return Op(label, darts, run, check)


def expect(code: int, stdout: str | None = None, *, file: str | None = None, stderr: str | None = None,
           extra=None):
    def check(out):
        got_code, got_out, got_err, got_file = out
        require(got_code == code, f"exit {got_code}, expected {code}: {got_err.strip()[-200:]}")
        if stdout is not None:
            require(got_out == stdout, "stdout differs")
        if file is not None:
            require(got_file == file, "output file differs")
        if stderr is not None:
            require(got_err == stderr, f"stderr differs: {got_err[-200:]!r}")
        if extra is not None:
            extra(got_out)

    return check


def rot_from_text(text: str) -> np.ndarray:
    head, _, body = text.partition("\n")
    n, d = map(int, head.split())
    return np.array(body.split(), dtype=np.int64).reshape(n, d)


def check_solved(mat):
    def extra(stdout):
        table = rot_from_text(stdout)
        orc.check_same_graph(table, mat, "solve")
        orc.check_consistent(table, "solve")

    return extra


def check_verify_violations(count: int):
    def extra(stdout):
        require(stdout.count("\n  duplicate-in-column") == count, "verify: wrong violation list")

    return extra


def check_spectrum_lines(mat):
    def extra(stdout):
        lines = stdout.splitlines()
        require(lines[:2] == [f"order {len(mat)}", f"degree {int(mat[0].sum())}"], "spectrum header")
        orc.check_spectrum(np.array(lines[2:], dtype=np.float64), mat, 1e-8, "cli spectrum")

    return extra


DOT_EDGE = re.compile(r'  (\d+) -- (\d+) \[label="(\d+)\|(\d+)"\];')


def check_dot(table):
    def extra(stdout):
        edges = np.array(DOT_EDGE.findall(stdout), dtype=np.int64).reshape(-1, 4)
        require(len(edges) == table.size // 2, "dot: wrong edge count")
        v, w, i, j = edges.T
        require(np.all(v < w) and np.array_equal(table[v - 1, i - 1], w)
                and np.array_equal(table[w - 1, j - 1], v), "dot: edge labels do not match the map")

    return extra


def write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def cli_small(seed, tr, workdir: Path):
    rng = np.random.default_rng(seed)
    s_graph, s_small, s_spec = seeds(rng, 3)
    c12, c10 = orc.cycle_table(12), orc.cycle_table(10)
    torus = orc.product_table(c12, c10)
    g = random_regular(120, 4, s_graph)
    small = random_regular(12, 3, s_small)
    spec = random_regular(20, 3, s_spec)
    scan = orc.row_scan_table(g)
    files = {
        "c12.rot": orc.rot_text(c12),
        "c10.rot": orc.rot_text(c10),
        "torus.rot": orc.rot_text(torus),
        "scan.rot": orc.rot_text(scan),
        "bad.rot": "4 2\n1 3\n1 4\n2 4\n2 3\n",  # row 1 lists vertex 1: not a valid map
        "g.adj": orc.adj_text(g),
        "small.adj": orc.adj_text(small),
        "spec.adj": orc.adj_text(spec),
        "c4.adj": orc.adj_text(orc.adjacency_of(orc.cycle_table(4))),
        "c5.adj": orc.adj_text(orc.adjacency_of(orc.cycle_table(5))),
    }
    p = {name: write(workdir / name, text) for name, text in files.items()}
    torus_rot = rotmaps.RotationMatrix(torus)
    in_process = {  # the library's own output for the same inputs, compared byte for byte
        "matching": rio.format_rot(rotmaps.solve_matching(rotmaps.AdjacencyMatrix(g))),
        "backtrack": rio.format_rot(rotmaps.solve_backtracking(rotmaps.AdjacencyMatrix(small))),
        "shift": rio.format_perm(rotmaps.build_shift(torus_rot)),
        "dot": rio.format_dot(torus_rot),
    }
    h4 = workdir / "h4.rot"
    dt = torus.size
    items = [
        cli_op("generate", ["--family", "cycle", "--n", 12], 24, expect(0, orc.rot_text(c12))),
        cli_op("generate", ["--family", "hypercube", "--m", 4, "-o", h4], 64,
               expect(0, "", file=orc.rot_text(orc.hypercube_table(4))), output=h4),
        cli_op("product", [p["c12.rot"], p["c10.rot"]], dt,
               expect(0, orc.rot_text(torus), stderr="10 clouds of 12\n")),
        cli_op("verify", [p["torus.rot"]], dt, expect(0, "valid map: yes\nconsistent: yes\n")),
        cli_op("verify", [p["scan.rot"]], scan.size,
               expect(1, extra=check_verify_violations(orc.column_duplicates(scan)))),
        cli_op("verify", [p["bad.rot"]], 8,
               expect(2, extra=lambda out: require(out.startswith("valid map: no\n"), "verify bad"))),
        cli_op("from-adjacency", [p["g.adj"]], scan.size, expect(0, orc.rot_text(scan))),
        cli_op("solve", [p["g.adj"], "--method", "matching"], int(g.sum()),
               expect(0, in_process["matching"], extra=check_solved(g))),
        cli_op("solve", [p["small.adj"], "--method", "backtrack"], int(small.sum()),
               expect(0, in_process["backtrack"], extra=check_solved(small))),
        cli_op("shift", [p["torus.rot"]], dt,
               expect(0, in_process["shift"], extra=lambda out: orc.check_shift(
                   torus, orc.perm_images(out, *torus.shape), "cli shift"))),
        cli_op("spectrum", [p["spec.adj"]], int(spec.sum()), expect(0, extra=check_spectrum_lines(spec))),
        cli_op("spectrum", [p["c4.adj"], p["c5.adj"]], 80, expect(0, extra=check_product_lines)),
        cli_op("export", [p["torus.rot"], "--format", "json"], dt, expect(0, orc.json_text(torus))),
        cli_op("export", [p["torus.rot"], "--format", "dot"], dt,
               expect(0, in_process["dot"], extra=check_dot(torus))),
    ]
    big = workdir / "c3000.adj"
    probe = cli_op("solve", [big], 6000, check_documented_exit(orc.cycle_table(3000)),
                   before=lambda: write(big, orc.adj_text(orc.adjacency_of(orc.cycle_table(3000)))))
    return Workload(items, probes=[probe], warmup=[cli_op("generate", ["--family", "k2"], 2, expect(0))])


def check_product_lines(stdout: str) -> None:
    lines = stdout.splitlines()
    require(lines[:3] == ["vertices: 20 (expected 20) PASS", "regularity: 4 (expected 4) PASS",
                          "edges: 40 (expected 40) PASS"], "spectrum: product check lines")
    require(len(lines) == 4 and lines[3].startswith("spectrum additivity: max deviation ")
            and lines[3].endswith(" (tolerance 1e-08) PASS"), "spectrum: additivity line")


def check_documented_exit(table):
    """Exit 0 with a consistent map of the graph, or exit 2 with a one-line error."""
    mat = orc.adjacency_of(table)

    def check(out):
        code, stdout, stderr, _ = out
        if code == 0:
            check_solved(mat)(stdout)
        elif code == 2:
            require(stderr.count("\n") == 1 and "Traceback" not in stderr,
                    "exit 2 without a one-line error")
        else:
            last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
            raise Limit(f"exit {code}: {last[:120]}")

    return check


WORKLOADS = {
    "torus-shift": torus_shift,
    "adjacency-solve": adjacency_solve,
    "spectral-check": spectral_check,
    "cli-small": cli_small,
}
