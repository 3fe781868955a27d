"""One workload run, in the process whose address space run.py caps.

Prints an info line and then the result line on stdout; see run.py.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import rotmaps
from spans import END, ERROR, NAME, START, Tracer, self_times
from workloads import WORKLOADS, Limit, internal

HERE = Path(__file__).resolve().parent
SETUP_REPS = 3
REFERENCE_S = 0.015  # near the median time of reference() on the 2-vCPU VM the benchmark was tuned on
IMPORT_REPS = 3
MODULES = ("io", "core", "families", "product", "adjacency", "solver", "shift", "cli")
CLI_SUBCOMMANDS = ("generate", "product", "verify", "from-adjacency", "solve", "shift",
                   "spectrum", "export")


def run_op(op, tr):
    """Run one op; returns (outcome, seconds, reference seconds).  A failed op never aborts the run.

    outcome is "ok", "error:<type>" when the code under test raised (or, for
    a probe, ended as its known defect makes it end), or "wrong:<what>" when
    an output failed its oracle.  The reference kernel runs right after the
    op, before its oracle check, for about a tenth of the op's time.
    """
    tr.item = op.label
    replay0 = tr.replay_s
    t0 = time.perf_counter()
    try:
        with tr.span("item"):
            out = op.run(tr)
    except Exception as exc:  # RecursionError and MemoryError included
        return f"error:{type(exc).__name__}", None, reference(1)
    seconds = time.perf_counter() - t0 - (tr.replay_s - replay0)
    ref = reference(max(1, round(0.1 * seconds / REFERENCE_S)))
    try:
        op.check(out)
    except Limit as exc:
        return f"error:{exc}", None, ref
    except Exception as exc:  # an oracle Mismatch, or output too malformed to compare
        return f"wrong:{type(exc).__name__}: {exc}", None, ref
    return "ok", seconds, ref


def reference(reps: int) -> float:
    """Mean seconds per run of a fixed mix of the kinds of work the items do.

    Interpreter loops, small numpy operations (as in the Jacobi kernel),
    string splitting (as in the parsers) and a large-array sort: its time
    tracks the speed the host gives this process at that moment.
    """
    t0 = time.perf_counter()
    for _ in range(reps):
        total = 0
        for i in range(30_000):
            total += i * i
        v = np.ones(128)
        for _ in range(400):
            v = v * 0.5 + v[::-1]
        total += sum(int(t) for t in ",".join(["0", "1"] * 20_000).split(","))
        total += int(np.sort(np.arange(100_000, dtype=np.int64)[::-1] % 997).sum())
    return (time.perf_counter() - t0) / reps


class Pass:
    """Outcomes of one run of every item, or of those started before ``deadline``.

    ``reference()`` runs before the first item and after each one.  An item's
    latency is scaled by ``REFERENCE_S`` over the mean of the two reference
    times around it: the seconds it would take at the host speed at which
    the reference takes ``REFERENCE_S``.  ``raw`` keeps the latencies as timed.
    """

    def __init__(self, ops, tr, deadline=None):
        self.first_span = len(tr.spans)
        tr.counts = Counter()
        self.results, self.raw = [], []
        before = reference(1)
        self.references = [before]
        for op in ops:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            outcome, seconds, after = run_op(op, tr)
            self.references.append(after)
            self.raw.append(seconds)
            if seconds is not None:
                seconds *= 2 * REFERENCE_S / (before + after)
            self.results.append((op, outcome, seconds))
            before = after
        self.last_span = len(tr.spans)
        self.counts = tr.counts
        self.seconds = sum(s for _, outcome, s in self.results if outcome == "ok")


def percentile(samples, level: float) -> float:
    """Interpolated between the two nearest samples, so that p50 of an even count is their mean."""
    return float(np.percentile(samples, 100 * level))


def peak_rss_mb(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def environment() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name", "") + " " + deps[k].get("version", "") for k in ("blas", "lapack")}
    except (TypeError, KeyError):  # older numpy: no dict form of the build configuration
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "rotmaps": rotmaps.__version__,
    }


def import_seconds() -> float:
    """Median time for a fresh interpreter to import rotmaps."""
    times = []
    for _ in range(IMPORT_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import rotmaps"], check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spec", type=Path, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args(argv)
    spec = json.loads(args.spec.read_text())
    args.workdir.mkdir(parents=True)
    try:
        return measure(args, spec)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


def measure(args, spec) -> int:
    traced = bool(args.trace)
    tr = Tracer(enabled=traced, internal=internal)
    build = WORKLOADS[args.workload]

    setups, format_adj = [], []
    for _ in range(SETUP_REPS):
        first = len(tr.spans)
        t0 = time.perf_counter()
        wl = build(args.seed, tr, args.workdir)
        for op in wl.warmup:
            run_op(op, tr)
        setups.append(time.perf_counter() - t0)
        format_adj.append(self_times(tr.spans, first).get("io.format_adj", 0.0))
    import_s = import_seconds()
    setup_s = import_s + statistics.median(setups)

    passes, pairs = [], []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        tr.enabled = False
        # Every item runs at least once; later untraced passes stop at the deadline,
        # traced runs keep whole pairs of passes for the per-layer comparison.
        plain = Pass(wl.items, tr, deadline if passes and not traced else None)
        if traced:
            tr.enabled = True
            traced_pass = Pass(wl.items, tr)
            pairs.append((plain, traced_pass))
        passes.append(plain)
    rss = peak_rss_mb(include_children=args.workload == "cli-small")

    tr.enabled = traced
    probes = [(op, run_op(op, tr)[0]) for op in wl.probes]

    runs = [r for p in passes + [tp for _, tp in pairs] for r in p.results]
    failures = [(op.label, outcome) for op, outcome, _ in runs if outcome != "ok"]
    failures += [(op.label, outcome) for op, outcome in probes if outcome.startswith("wrong:")]
    item_ok = {op.label: True for op in wl.items}
    for op, outcome, _ in runs:
        item_ok[op.label] &= outcome == "ok"
    ops_ok = sum(item_ok.values()) + sum(outcome == "ok" for _, outcome in probes)

    by_item, raw_by_item = {}, {}
    for p in passes:
        for (op, outcome, seconds), raw in zip(p.results, p.raw):
            if outcome == "ok":
                by_item.setdefault(op, []).append(seconds)
                raw_by_item.setdefault(op.label, []).append(raw)
    if not by_item:
        print(json.dumps({"failures": failures}))
        print("perfbench: no item completed, so nothing can be timed", file=sys.stderr)
        return 1
    medians = {op: statistics.median(times) for op, times in by_item.items()}
    per_item = np.array(list(medians.values()))
    pass_s = sum(per_item)  # a pass made of each item's median latency
    if not traced:
        values = {
            "setup_s": setup_s,
            "items_per_s": len(medians) / pass_s,
            "darts_per_s": sum(op.darts for op in medians) / pass_s,
            "item_s.p50": percentile(per_item, 0.5),
            "item_s.p90": percentile(per_item, 0.9),
            "peak_rss_mb": rss,
            "ok_ops_ratio": ops_ok / (len(wl.items) + len(wl.probes)),
        }
        wanted = spec["end_to_end"]
    else:
        values = layer_metrics(tr, pairs, statistics.median(format_adj))
        values["cli.import_s"] = import_s
        wanted = spec["per_layer"]
        write_trace(args, tr)

    info = {
        "workload": args.workload, "seed": args.seed, "traced": traced,
        "environment": environment(),
        "passes": len(passes), "percentile_samples": len(per_item),
        "item_median_s": {op.label: t for op, t in medians.items()},
        "item_raw_latencies_s": raw_by_item,
        "reference_s": statistics.quantiles([r for p in passes for r in p.references], n=4),
        "setup_reps_s": setups, "import_s": import_s,
        "probes": {op.label: outcome for op, outcome in probes},
        "failures": failures,
    }
    print(json.dumps({"info": info}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": not failures,
        "attempted": len(runs),
        "failed": sum(outcome != "ok" for _, outcome, _ in runs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def layer_metrics(tr, pairs, format_adj_s: float) -> dict:
    """Per-layer self time per traced pass (median over passes), counts, and CLI timings."""
    rows = []
    for _, tp in pairs:
        own = self_times(tr.spans[:tp.last_span], tp.first_span)
        row = {f"{name}_s": own.get(name, 0.0) for name in FUNCTION_METRICS}
        for module in MODULES:
            row[f"{module}.self_s"] = sum(v for k, v in own.items() if k.startswith(module + "."))
        row.update({name: tp.counts.get(name, 0) for name in COUNT_METRICS})
        rows.append(row)
    values = {key: statistics.median(r[key] for r in rows) for key in rows[0]}

    traced_spans = [s for _, tp in pairs for s in tr.spans[tp.first_span:tp.last_span]]
    for sub in CLI_SUBCOMMANDS:
        times = [s[END] - s[START] for s in traced_spans if s[NAME] == f"cli.{sub}"]
        values[f"cli.{sub}_s"] = statistics.median(times) if times else 0.0
    values["io.format_adj_s"] = format_adj_s
    values["solver.failures"] = sum(1 for s in tr.spans if s[NAME].startswith("solver.") and s[ERROR])
    values["trace.overhead_ratio"] = statistics.median(tp.seconds / p.seconds for p, tp in pairs)
    return values


FUNCTION_METRICS = (
    "core.validate", "core.to_full_form", "shift.build_shift", "shift.verify_unitary",
    "io.parse_rot", "io.format_rot", "io.parse_perm", "io.format_perm",
    "product.cartesian_rotation", "families.build", "io.parse_adj",
    "adjacency.rotation_from_adjacency", "adjacency.adjacency_from_rotation",
    "solver.solve_matching", "solver.solve_backtracking",
    "adjacency.spectrum", "adjacency.cartesian_adjacency", "adjacency.product_property_check",
)
COUNT_METRICS = ("io.bytes", "core.violations", "adjacency.dense_cells")


def write_trace(args, tr) -> None:
    """All spans of the run, written once at the end."""
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    keys = ("name", "start", "end", "parent", "item", "replay", "error")
    path = out / f"trace-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps([dict(zip(keys, s)) for s in tr.spans]))


if __name__ == "__main__":
    sys.exit(main())
