"""Command-line front door: ``rotmap`` with one subcommand per operation.

Exit codes are uniform across subcommands: 0 success, 1 property failure
(an inconsistent map under ``verify``, a failed product check, an exhausted
search budget), 2 malformed input or parameters, or any other error.  Data
goes to ``--output`` or stdout; diagnostics and one-line errors go to stderr.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from . import families
from . import io as formats
from .adjacency import product_property_check, rotation_from_adjacency, spectrum
from .core import validate
from .exceptions import (
    MalformedInputError,
    ParameterError,
    RotmapsError,
    SearchBudgetExceededError,
)
from .product import _require_product_darts, cartesian_rotation
from .shift import build_shift
from .solver import DEFAULT_BUDGET, solve_backtracking, solve_matching

__all__ = ["main", "build_parser"]


def _emit(output: Path | None, text: str) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        output.write_text(text)


def _named(path: Path, read, *args, **kwargs):
    """``read(*args, **kwargs)``, whose error for bytes that are not UTF-8 text names ``path``."""
    try:
        return read(*args, **kwargs)
    except MalformedInputError as exc:
        if not isinstance(exc.__cause__, UnicodeDecodeError):
            raise
        raise MalformedInputError(f"{path}: {exc}") from None


def _load_rot(path: Path, **kwargs):
    return _named(path, formats.parse_rot, path.read_bytes(), **kwargs)


def _load_adj(path: Path):
    formats._require_adj_size(path.stat().st_size)  # before the text is read
    return _named(path, formats.parse_adj, path.read_bytes())


_GP = (families.generalized_petersen, ("n", "s"), "generalized Petersen graphs need both n and s")
# family name -> generator, the options it reads in order, and the error when one is missing
FAMILIES = {
    "cycle": (families.cycle, ("n",), "family cycle needs n"),
    "complete": (families.complete, ("n",), "family complete needs n"),
    "complete-bipartite": (families.complete_bipartite, ("n",),
                           "family complete-bipartite needs n"),
    "gp": _GP,
    "generalized-petersen": _GP,
    "k2": (families.k2, (), None),
    "hypercube": (families.hypercube, ("m",), "hypercubes need a dimension"),
}


def cmd_generate(args) -> int:
    make, options, missing = FAMILIES[args.family]
    values = [getattr(args, option) for option in options]
    if None in values:
        raise ParameterError(missing)
    _emit(args.output, formats.format_rot(make(*values)))
    return 0


def cmd_product(args) -> int:
    sizes = []
    for path in (args.inner, args.outer):  # n and d of each factor, before either body is read
        with path.open("rb") as file:
            sizes += _named(path, formats._read_header, file.readline(), "rotation", "n d")[2:4]
    _require_product_darts(*sizes)
    inner = _load_rot(args.inner)
    outer = _load_rot(args.outer)
    rot = cartesian_rotation(inner, outer)
    print(f"{outer.num_vertices} clouds of {inner.num_vertices}", file=sys.stderr)
    _emit(args.output, formats.format_rot(rot))
    return 0


def cmd_verify(args) -> int:
    rot = _load_rot(args.path, require_valid_map=False)
    report = validate(rot)
    lines = [f"valid map: {'yes' if report.is_valid_map else 'no'}",
             f"consistent: {'yes' if report.is_consistent else 'no'}"]
    if report.violations:
        lines.append("violations:")
        lines += [f"  {message}" for _, _, message in report.violations]
    sys.stdout.write("\n".join(lines) + "\n")  # one write: a report can run to 10^5 lines
    if not report.is_valid_map:
        return 2
    return 0 if report.is_consistent else 1


def cmd_from_adjacency(args) -> int:
    rot = rotation_from_adjacency(_load_adj(args.path))
    _emit(args.output, formats.format_rot(rot))
    return 0


def cmd_solve(args) -> int:
    adj = _load_adj(args.path)
    try:
        if args.method == "matching":
            rot = solve_matching(adj)
        else:
            rot = solve_backtracking(adj, budget=args.budget)
    except SearchBudgetExceededError as exc:
        print(f"inconclusive: {exc} (raise --budget)", file=sys.stderr)
        return 1
    _emit(args.output, formats.format_rot(rot))
    return 0


def cmd_shift(args) -> int:
    shift = build_shift(_load_rot(args.path))
    _emit(args.output, formats.format_perm(shift))
    return 0


def cmd_spectrum(args) -> int:
    a1 = _load_adj(args.path)
    if args.path2 is None:
        degree = a1.degree()  # a non-regular graph fails here, before the O(n^3) solve
        spec = spectrum(a1)
        print(f"order {a1.order}")
        print(f"degree {degree}")
        for value in spec.values:
            print(f"{value:.12g}")
        return 0
    a2 = _load_adj(args.path2)
    report = product_property_check(a1, a2, spectrum_tol=args.spectrum_tol)
    failures = report.failures()

    def mark(name):
        return "FAIL" if name in failures else "PASS"

    print(f"vertices: {report.vertices_actual} (expected {report.vertices_expected}) "
          f"{mark('vertex-count')}")
    print(f"regularity: {report.degree_actual} (expected {report.degree_expected}) "
          f"{mark('regularity')}")
    print(f"edges: {report.edges_actual} (expected {report.edges_expected}) "
          f"{mark('edge-count')}")
    print(f"spectrum additivity: max deviation {report.spectrum_deviation:.3e} "
          f"(tolerance {report.spectrum_tolerance:g}) {mark('spectrum-additivity')}")
    return 1 if failures else 0


def cmd_export(args) -> int:
    rot = _load_rot(args.path)
    if args.format == "dot":
        _emit(args.output, formats.format_dot(rot))
    else:
        _emit(args.output, formats.format_json(rot))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotmap",
        description="Build, combine, verify, and export rotation maps of regular graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a family rotation map")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int, help="vertex parameter (per side for complete-bipartite)")
    p.add_argument("--s", type=int, help="inner step for generalized Petersen graphs")
    p.add_argument("--m", type=int, help="dimension for hypercubes")
    p.add_argument("-o", "--output", type=Path)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("product", help="box product of two rotation maps")
    p.add_argument("inner", type=Path, help=".rot file copied into each cloud")
    p.add_argument("outer", type=Path, help=".rot file routing between clouds")
    p.add_argument("-o", "--output", type=Path)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("verify", help="report validity and consistency of a map")
    p.add_argument("path", type=Path)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("from-adjacency", help="row-scan reading of an adjacency matrix")
    p.add_argument("path", type=Path)
    p.add_argument("-o", "--output", type=Path)
    p.set_defaults(func=cmd_from_adjacency)

    p = sub.add_parser("solve", help="construct a consistent map for an adjacency matrix")
    p.add_argument("path", type=Path)
    p.add_argument("--method", choices=["matching", "backtrack"], default="matching")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="node budget for --method backtrack")
    p.add_argument("-o", "--output", type=Path)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("shift", help="dart shift permutation of a rotation map")
    p.add_argument("path", type=Path)
    p.add_argument("-o", "--output", type=Path)
    p.set_defaults(func=cmd_shift)

    p = sub.add_parser("spectrum", help="eigenvalues, or the product property check for two inputs")
    p.add_argument("path", type=Path)
    p.add_argument("path2", type=Path, nargs="?")
    p.add_argument("--spectrum-tol", type=float, default=1e-8,
                   help="tolerance for spectrum additivity (two-input mode)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("export", help="DOT or JSON view of a rotation map")
    p.add_argument("path", type=Path)
    p.add_argument("--format", required=True, choices=["dot", "json"])
    p.add_argument("-o", "--output", type=Path)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = args.func(args)
        for record in caught:
            print(f"warning: {record.message}", file=sys.stderr)
        return code
    except (RotmapsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # e.g. RecursionError, MemoryError; Ctrl-C still propagates
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
