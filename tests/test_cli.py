"""Command-line behavior: flag grammar, exit codes, and byte-exact outputs."""

import random
import re
import tracemalloc

import numpy as np
import pytest

import rotmaps.adjacency
import rotmaps.io
from rotmaps import (
    RotationMatrix,
    adjacency_from_rotation,
    build_shift,
    cartesian_rotation,
    complete,
    complete_bipartite,
    cycle,
    generalized_petersen,
    hypercube,
    is_consistent,
    k2,
)
from rotmaps.cli import main
from rotmaps.families import MAX_DARTS, MAX_HYPERCUBE_DIMENSION
from rotmaps.io import MAX_ADJ_VERTICES, format_adj, format_perm, format_rot, parse_rot

C5_FILE = "5 2\n2 5\n3 1\n4 2\n5 3\n1 4\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestGenerate:
    def test_cycle_to_stdout(self, capsys):
        assert main(["generate", "--family", "cycle", "--n", "5"]) == 0
        assert capsys.readouterr().out == C5_FILE

    def test_gp_to_file(self, tmp_path):
        out = tmp_path / "gp.rot"
        assert main(["generate", "--family", "gp", "--n", "7", "--s", "3",
                     "-o", str(out)]) == 0
        assert out.read_text() == format_rot(generalized_petersen(7, 3))

    def test_gp_domain_violation(self, capsys):
        assert main(["generate", "--family", "gp", "--n", "4", "--s", "2"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "s=2" in err

    def test_missing_parameter(self, capsys):
        assert main(["generate", "--family", "cycle"]) == 2
        assert "needs n" in capsys.readouterr().err

    def test_unknown_family_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["generate", "--family", "moebius"])
        assert info.value.code == 2

    def test_hypercube(self, capsys):
        assert main(["generate", "--family", "hypercube", "--m", "2"]) == 0
        assert capsys.readouterr().out == "4 2\n2 3\n1 4\n4 1\n3 2\n"

    def test_hypercube_15(self, tmp_path):
        # 32 768 vertices: validating the Q14 factor must not need an n x n array
        out = tmp_path / "q15.rot"
        tracemalloc.start()
        try:
            code = main(["generate", "--family", "hypercube", "--m", "15", "-o", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 200 * 2**20
        lines = out.read_text().splitlines()
        assert lines[0] == "32768 15" and len(lines) == 32769

    @pytest.mark.parametrize("options,rot", [
        (["cycle", "--n", "7"], cycle(7)),
        (["complete", "--n", "6"], complete(6)),
        (["complete-bipartite", "--n", "4"], complete_bipartite(4)),
        (["gp", "--n", "9", "--s", "2"], generalized_petersen(9, 2)),
        (["generalized-petersen", "--n", "9", "--s", "2"], generalized_petersen(9, 2)),
        (["k2"], k2()),
        (["k2", "--n", "5", "--m", "3"], k2()),  # options a family does not read are ignored
        (["hypercube", "--m", "3"], hypercube(3)),
    ], ids=["cycle", "complete", "complete-bipartite", "gp", "generalized-petersen", "k2",
            "k2-extra-options", "hypercube"])
    def test_family_matches_its_generator(self, capsys, options, rot):
        assert main(["generate", "--family", *options]) == 0
        assert capsys.readouterr().out == format_rot(rot)

    @pytest.mark.parametrize("options,message", [
        (["cycle"], "family cycle needs n"),
        (["complete", "--s", "2"], "family complete needs n"),
        (["complete-bipartite", "--m", "2"], "family complete-bipartite needs n"),
        (["gp", "--n", "7"], "generalized Petersen graphs need both n and s"),
        (["generalized-petersen", "--s", "3"], "generalized Petersen graphs need both n and s"),
        (["hypercube", "--n", "3"], "hypercubes need a dimension"),
    ], ids=["cycle", "complete", "complete-bipartite", "gp", "generalized-petersen",
            "hypercube"])
    def test_missing_parameter_message(self, capsys, options, message):
        assert main(["generate", "--family", *options]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_too_many_darts_is_one_error_line(self, capsys):
        # K_100000 would take 74.5 GiB; it is refused before any allocation
        assert main(["generate", "--family", "complete", "--n", "100000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: complete graph on 100000 vertices has 9999900000 darts, "
                                f"above the limit of {MAX_DARTS}\n")

    def test_hypercube_above_ceiling_is_one_error_line(self, capsys):
        assert main(["generate", "--family", "hypercube", "--m", "40"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert f"limit of {MAX_HYPERCUBE_DIMENSION}" in lines[0]
        assert "MemoryError" not in captured.err


class TestProduct:
    def test_torus(self, tmp_path, capsys):
        c6 = write(tmp_path, "c6.rot", format_rot(cycle(6)))
        c4 = write(tmp_path, "c4.rot", format_rot(cycle(4)))
        out = tmp_path / "torus.rot"
        assert main(["product", c6, c4, "-o", str(out)]) == 0
        assert "4 clouds of 6" in capsys.readouterr().err
        lines = out.read_text().splitlines()
        assert lines[0] == "24 4"
        assert lines[23] == "24 22 5 17"

    def test_k2_by_k2(self, tmp_path, capsys):
        k2_file = write(tmp_path, "k2.rot", "2 1\n2\n1\n")
        assert main(["product", k2_file, k2_file]) == 0
        assert capsys.readouterr().out == "4 2\n2 3\n1 4\n4 1\n3 2\n"

    def test_inconsistent_input_warns_but_succeeds(self, tmp_path, capsys):
        scan = write(tmp_path, "scan.rot", "3 2\n2 3\n1 3\n1 2\n")
        c3 = write(tmp_path, "c3.rot", format_rot(cycle(3)))
        assert main(["product", scan, c3]) == 0
        assert "warning:" in capsys.readouterr().err

    def test_malformed_header(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.rot", "nonsense\n")
        c4 = write(tmp_path, "c4.rot", format_rot(cycle(4)))
        assert main(["product", bad, c4]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        c4 = write(tmp_path, "c4.rot", format_rot(cycle(4)))
        assert main(["product", str(tmp_path / "absent.rot"), c4]) == 2

    def test_product_past_max_darts_refused_from_the_headers(self, tmp_path, capsys, monkeypatch):
        # 4096 * 4096 * (2 + 2) darts is above MAX_DARTS; each body is one
        # malformed row, and neither is read
        def unread(*args):
            raise AssertionError("a body was read")

        monkeypatch.setattr(rotmaps.io, "_scan", unread)
        inner = write(tmp_path, "inner.rot", "4096 2\n2 x\n")
        outer = write(tmp_path, "outer.rot", "4096\t2\r\n+1\r\n")
        assert main(["product", inner, outer]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: product of 4096 clouds of 4096 vertices has 67108864 "
                                f"darts, above the limit of {MAX_DARTS}\n")


class TestVerify:
    def test_consistent_map(self, tmp_path, capsys):
        path = write(tmp_path, "k33.rot", format_rot(complete_bipartite(3)))
        assert main(["verify", path]) == 0
        out = capsys.readouterr().out
        assert "valid map: yes" in out and "consistent: yes" in out

    def test_valid_but_inconsistent(self, tmp_path, capsys):
        path = write(tmp_path, "scan.rot", "3 2\n2 3\n1 3\n1 2\n")
        assert main(["verify", path]) == 1
        out = capsys.readouterr().out
        assert "consistent: no" in out
        assert "duplicate-in-column at column 1" in out

    def test_self_loop_is_malformed(self, tmp_path, capsys):
        path = write(tmp_path, "loop.rot", "2 1\n1\n2\n")
        assert main(["verify", path]) == 2
        out = capsys.readouterr().out
        assert "valid map: no" in out
        assert "self-loop" in out

    def test_invalid_map_report_in_full(self, tmp_path, capsys):
        # map defects first (self-loops, row repeats, asymmetry), then column repeats
        path = write(tmp_path, "four.rot", "4 2\n1 2\n1 1\n4 2\n3 1\n")
        assert main(["verify", path]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "valid map: no",
            "consistent: no",
            "violations:",
            "  self-loop at row 1, column 1",
            "  duplicate-in-row at row 2: vertex 1 appears 2 times",
            "  asymmetric-incidence at row 2: vertex 1 appears 2 times"
            " but row 1 lists vertex 2 1 times",
            "  asymmetric-incidence at row 3: vertex 2 appears 1 times"
            " but row 2 lists vertex 3 0 times",
            "  asymmetric-incidence at row 4: vertex 1 appears 1 times"
            " but row 1 lists vertex 4 0 times",
            "  duplicate-in-column at column 1: vertex 1 appears 2 times",
            "  duplicate-in-column at column 2: vertex 1 appears 2 times",
            "  duplicate-in-column at column 2: vertex 2 appears 2 times",
        ]

    def test_each_defect_named_once(self, tmp_path, capsys, monkeypatch):
        from rotmaps import core

        named, name = [], core._violations

        def counting(kind, template, *columns):
            named.extend([kind] * len(columns[0]))
            return name(kind, template, *columns)

        monkeypatch.setattr(core, "_violations", counting)
        path = write(tmp_path, "four.rot", "4 2\n1 2\n1 1\n4 2\n3 1\n")
        assert main(["verify", path]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert named == [line.split()[0] for line in lines[3:]]
        assert len(named) == 8

    def test_entry_beyond_int64_is_one_error_line(self, tmp_path, capsys):
        path = write(tmp_path, "big.rot", "2 1\n99999999999999999999999\n1\n")
        assert main(["verify", path]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: row 1:")
        assert "OverflowError" not in err

    @pytest.mark.parametrize("command,name,text", [
        ("verify", "token.rot", "2 1\n" + "x" * 10**6 + "\n1\n"),
        ("solve", "token.adj", "x" * 10**6 + "\n"),
    ], ids=["rot", "adj"])
    def test_megabyte_token_is_one_short_error_line(self, tmp_path, capsys, command, name, text):
        assert main([command, write(tmp_path, name, text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: row 1:")
        assert len(captured.err.encode()) < 200

    @pytest.mark.parametrize("command", ["verify", "shift"])
    def test_header_above_max_darts_is_one_error_line(self, tmp_path, capsys, command):
        path = write(tmp_path, "over.rot", f"{MAX_DARTS // 2 + 1} 2\n2\n1\n")
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: rotation file of {MAX_DARTS // 2 + 1} vertices and degree 2 "
                                f"has {MAX_DARTS + 2} darts, above the limit of {MAX_DARTS}\n")


class TestAdjacencyCommands:
    def test_from_adjacency(self, tmp_path, capsys):
        adj = write(tmp_path, "k3.adj", "0,1,1\n1,0,1\n1,1,0\n")
        assert main(["from-adjacency", adj]) == 0
        assert capsys.readouterr().out == "3 2\n2 3\n1 3\n1 2\n"

    @pytest.mark.parametrize("method", ["matching", "backtrack"])
    def test_solve_then_verify(self, tmp_path, capsys, method):
        adj = write(tmp_path, "c4.adj", format_adj(adjacency_from_rotation(cycle(4))))
        out = tmp_path / "solved.rot"
        assert main(["solve", adj, "--method", method, "-o", str(out)]) == 0
        assert main(["verify", str(out)]) == 0

    def test_solve_c3000(self, tmp_path):
        # deep alternating paths: the matching solver must not recurse
        adj = adjacency_from_rotation(cycle(3000))
        path = write(tmp_path, "c3000.adj", format_adj(adj))
        out = tmp_path / "solved.rot"
        assert main(["solve", path, "-o", str(out)]) == 0
        rot = parse_rot(out.read_text())
        assert is_consistent(rot)
        assert adjacency_from_rotation(rot) == adj

    @pytest.mark.parametrize("command", ["solve", "from-adjacency", "spectrum"])
    def test_adj_past_the_vertex_limit_is_one_error_line(self, tmp_path, capsys, command):
        # a sparse file: its size is that of MAX_ADJ_VERTICES + 1 vertices, but
        # no data is written, and none may be read
        size = 2 * (MAX_ADJ_VERTICES + 1) ** 2
        path = tmp_path / "big.adj"
        with open(path, "wb") as f:
            f.truncate(size)
        tracemalloc.start()
        try:
            code = main([command, str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 1e6
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: .adj text of {size} bytes is above the limit of "
            f"{2 * MAX_ADJ_VERTICES**2 + MAX_ADJ_VERTICES} bytes ({MAX_ADJ_VERTICES} vertices)"]

    def test_solve_budget_exhaustion(self, tmp_path, capsys):
        adj = write(tmp_path, "k4.adj", format_adj(adjacency_from_rotation(cycle(4))))
        assert main(["solve", adj, "--method", "backtrack", "--budget", "2"]) == 1
        assert "inconclusive" in capsys.readouterr().err

    def test_solve_budget_below_one_is_one_error_line(self, tmp_path, capsys):
        adj = write(tmp_path, "c4.adj", format_adj(adjacency_from_rotation(cycle(4))))
        assert main(["solve", adj, "--method", "backtrack", "--budget", "-5"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:") and "budget" in err

    @pytest.mark.parametrize("error", [RecursionError, MemoryError])
    def test_unexpected_error_is_one_line(self, tmp_path, capsys, monkeypatch, error):
        def crash(args):
            raise error("deep trouble")

        monkeypatch.setattr("rotmaps.cli.cmd_solve", crash)
        adj = write(tmp_path, "c4.adj", format_adj(adjacency_from_rotation(cycle(4))))
        assert main(["solve", adj]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {error.__name__}: deep trouble"]
        assert "Traceback" not in err

    def test_memory_error_in_the_writers_gather_is_one_line(self, tmp_path, capsys, monkeypatch):
        take = np.take

        def gather(*args, **kwargs):  # the writer's gather is the one take along an axis
            if "axis" in kwargs:
                raise MemoryError("no room for the text")
            return take(*args, **kwargs)

        monkeypatch.setattr(np, "take", gather)
        rot = write(tmp_path, "c5.rot", C5_FILE)
        assert main(["shift", rot]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: MemoryError: no room for the text"]

    def test_interrupt_propagates(self, tmp_path, monkeypatch):
        def interrupt(args):
            raise KeyboardInterrupt

        monkeypatch.setattr("rotmaps.cli.cmd_solve", interrupt)
        adj = write(tmp_path, "c4.adj", format_adj(adjacency_from_rotation(cycle(4))))
        with pytest.raises(KeyboardInterrupt):
            main(["solve", adj])

    def test_spectrum_single(self, tmp_path, capsys):
        adj = write(tmp_path, "c4.adj", format_adj(adjacency_from_rotation(cycle(4))))
        assert main(["spectrum", adj]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "order 4"
        assert lines[1] == "degree 2"
        assert [round(float(x), 6) for x in lines[2:]] == [2.0, 0.0, 0.0, -2.0]

    def test_spectrum_pair(self, tmp_path, capsys):
        c6 = write(tmp_path, "c6.adj", format_adj(adjacency_from_rotation(cycle(6))))
        c4 = write(tmp_path, "c4.adj", format_adj(adjacency_from_rotation(cycle(4))))
        assert main(["spectrum", c6, c4]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4 and "FAIL" not in out
        assert "vertices: 24" in out
        assert "regularity: 4" in out
        assert "edges: 48" in out

    def test_spectrum_pair_failing_report(self, tmp_path, capsys, monkeypatch):
        fabricated = rotmaps.adjacency.ProductPropertyReport(
            vertices_expected=6, vertices_actual=5,
            degree_expected=3, degree_actual=3,
            edges_expected=9, edges_actual=9,
            spectrum_deviation=1.0, spectrum_tolerance=1e-8,
        )
        monkeypatch.setattr("rotmaps.cli.product_property_check",
                            lambda a1, a2, spectrum_tol: fabricated)
        k2_adj = write(tmp_path, "k2.adj", "0,1\n1,0\n")
        k3_adj = write(tmp_path, "k3.adj", "0,1,1\n1,0,1\n1,1,0\n")
        assert main(["spectrum", k2_adj, k3_adj]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "vertices: 5 (expected 6) FAIL",
            "regularity: 3 (expected 3) PASS",
            "edges: 9 (expected 9) PASS",
            "spectrum additivity: max deviation 1.000e+00 (tolerance 1e-08) FAIL",
        ]

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_spectrum_bad_tolerance_is_one_error_line(self, tmp_path, capsys, tol):
        c6 = write(tmp_path, "c6.adj", format_adj(adjacency_from_rotation(cycle(6))))
        c4 = write(tmp_path, "c4.adj", format_adj(adjacency_from_rotation(cycle(4))))
        assert main(["spectrum", c6, c4, "--spectrum-tol", tol]) == 2
        captured = capsys.readouterr()
        assert "FAIL" not in captured.out
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")
        assert "tolerance" in captured.err

    @pytest.mark.parametrize("factors", [(13,), (4, 4)])
    def test_spectrum_past_its_limit_is_one_error_line(self, tmp_path, capsys, monkeypatch,
                                                       factors):
        monkeypatch.setattr(rotmaps.adjacency, "MAX_SPECTRUM_VERTICES", 12)
        paths = [write(tmp_path, f"c{n}-{k}.adj", format_adj(adjacency_from_rotation(cycle(n))))
                 for k, n in enumerate(factors)]
        assert main(["spectrum", *paths]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        order = 13 if len(factors) == 1 else 16
        assert captured.err.splitlines() == [
            f"error: spectrum of {order} vertices is above the limit of 12"]

    def test_spectrum_non_regular(self, tmp_path, capsys):
        adj = write(tmp_path, "path.adj", "0,1,0\n1,0,1\n0,1,0\n")
        assert main(["spectrum", adj]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")


class TestShiftAndExport:
    def test_shift(self, tmp_path, capsys):
        c3 = write(tmp_path, "c3.rot", format_rot(cycle(3)))
        assert main(["shift", c3]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "3 2"
        assert len(lines) == 7
        assert lines[1] == "1 1 2 2"

    def test_shift_of_product_has_96_darts(self, tmp_path, capsys):
        c6 = write(tmp_path, "c6.rot", format_rot(cycle(6)))
        c4 = write(tmp_path, "c4.rot", format_rot(cycle(4)))
        torus = tmp_path / "torus.rot"
        assert main(["product", c6, c4, "-o", str(torus)]) == 0
        perm = tmp_path / "torus.perm"
        assert main(["shift", str(torus), "-o", str(perm)]) == 0
        lines = perm.read_text().splitlines()
        assert lines[0] == "24 4"
        assert len(lines) == 97

    def test_shift_of_inconsistent_map_names_no_defect(self, tmp_path, capsys, monkeypatch):
        from rotmaps import core

        def refuse(*args):
            raise AssertionError("a defect was named")

        monkeypatch.setattr(core, "_violations", refuse)
        # C6 x C4 with the ports of each row rotated by its row number: valid, inconsistent
        table = cartesian_rotation(cycle(6), cycle(4)).entries
        rotated = [row[v % 4:] + row[:v % 4] for v, row in enumerate(table.tolist())]
        path = write(tmp_path, "rotated.rot", format_rot(RotationMatrix(rotated)))
        assert main(["shift", path]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 97
        assert captured.err.startswith("warning: rotation map is not consistent")

    def test_export_dot(self, tmp_path, capsys):
        c3 = write(tmp_path, "c3.rot", format_rot(cycle(3)))
        assert main(["export", c3, "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.count(" -- ") == 3
        assert 'label="1|2"' in out

    def test_export_json(self, tmp_path, capsys):
        c3 = write(tmp_path, "c3.rot", format_rot(cycle(3)))
        assert main(["export", c3, "--format", "json"]) == 0
        assert capsys.readouterr().out == '{"n":3,"d":2,"rot":[[2,3],[3,1],[1,2]]}\n'


class TestNonUtf8Input:
    @pytest.mark.parametrize("command", [
        ["verify", "{bad}"],
        ["product", "{bad}", "{good}"],
        ["product", "{good}", "{bad}"],
        ["shift", "{bad}"],
        ["export", "{bad}", "--format", "json"],
        ["from-adjacency", "{bad}"],
        ["solve", "{bad}"],
        ["spectrum", "{bad}"],
        ["spectrum", "{good_adj}", "{bad}"],
    ], ids=lambda argv: "-".join(a.strip("{}") for a in argv if not a.startswith("-")))
    def test_byte_ff_is_one_error_line(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff")
        paths = {"bad": str(bad), "good": write(tmp_path, "c5.rot", C5_FILE),
                 "good_adj": write(tmp_path, "k3.adj", "0,1,1\n1,0,1\n1,1,0\n")}
        assert main([a.format(**paths) for a in command]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {bad}: byte 0 is not UTF-8 text"]
        assert "UnicodeDecodeError" not in captured.err

    def test_message_names_the_byte_offset(self, tmp_path, capsys):
        path = tmp_path / "c5.rot"
        path.write_bytes(C5_FILE.encode().replace(b"3 1", b"3 \xe9"))
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: byte 10 is not UTF-8 text\n"


C5_BY_C4 = cartesian_rotation(cycle(5), cycle(4))
CONTRACT_FILES = {
    "rot": format_rot(C5_BY_C4),
    "adj": format_adj(adjacency_from_rotation(C5_BY_C4)),
    "perm": format_perm(build_shift(C5_BY_C4)),
}
# what a hand-edited or foreign file may carry: digits, separators, CR, tab,
# signs, an underscore, a letter, NUL, and two bytes that are not UTF-8 alone
EDIT_BYTES = b"0123456789 ,\n\r\t+-_x\x00\xe9\xff"
# every subcommand that reads a file, with the mutated file in each place
FILE_COMMANDS = [
    ["verify", "{bad}"],
    ["product", "{bad}", "{good}"],
    ["product", "{good}", "{bad}"],
    ["shift", "{bad}"],
    ["export", "{bad}", "--format", "dot"],
    ["export", "{bad}", "--format", "json"],
    ["from-adjacency", "{bad}"],
    ["solve", "{bad}"],
    ["solve", "{bad}", "--method", "backtrack"],
    ["spectrum", "{bad}"],
    ["spectrum", "{good_adj}", "{bad}"],
]


@pytest.mark.parametrize("kind", CONTRACT_FILES)
def test_mutated_files_exit_cleanly(tmp_path, capsys, kind):
    # Each of 25 files gets 1 to 4 seeded edits, each replacing, inserting or
    # deleting one byte, and goes through every subcommand.  An exit of 2
    # is one error line with nothing on stdout, from a RotmapsError or an
    # OSError, not one the last-resort handler names by its type, except
    # where verify reports a table that is not a valid map.
    bad = tmp_path / f"bad.{kind}"
    paths = {"bad": str(bad), "good": write(tmp_path, "c5.rot", C5_FILE),
             "good_adj": write(tmp_path, "k3.adj", "0,1,1\n1,0,1\n1,1,0\n")}
    rng = random.Random(kind)
    for _ in range(25):
        data = bytearray(CONTRACT_FILES[kind].encode())
        for _ in range(rng.randint(1, 4)):
            at = rng.randrange(len(data) + 1)
            data[at:at + rng.randint(0, 1)] = rng.choice([b"", bytes([rng.choice(EDIT_BYTES)])])
        bad.write_bytes(data)
        for command in FILE_COMMANDS:
            code = main([a.format(**paths) for a in command])
            out, err = capsys.readouterr()
            case = (bytes(data), command, out[:200], err)
            assert code in (0, 1, 2) and "Traceback" not in err, case
            if code == 2 and command[0] == "verify" and out.startswith("valid map: no\n"):
                assert err == "", case
            elif code == 2:
                assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: "), case
                assert not re.match(r"error: \w+(Error|Exception): ", err), case
