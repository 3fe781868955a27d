#!/usr/bin/env python3
"""Seeded benchmark for rotmaps: four workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload torus-shift --seed 1 --seconds 28 --trace 0

The workload runs in a child process (bench.py) whose address space is
capped, against the package under ./src, never an installed copy.  Its last
stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The line before it
records the environment, sample counts and the outcome of every limit
probe.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("torus-shift", "adjacency-solve", "spectral-check", "cli-small")
ADDRESS_SPACE_CAP = 3 << 30  # n² scratch arrays fail fast instead of crowding the machine
CHILD_TIMEOUT_S = 170


def cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    spec = root / "BENCHMARK.json"
    if not (src / "rotmaps" / "__init__.py").is_file() or not spec.is_file():
        print("perfbench: run from the root of a rotmaps checkout (needs src/rotmaps "
              "and BENCHMARK.json)", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.pop("ROTMAPS_BACKEND", None)  # measure the default path
    # One BLAS thread: after the oracle's eigvalsh a second one kept spinning,
    # which slowed whatever ran next (the reference kernel, by up to 2x).
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "bench.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spec", str(spec), "--workdir", str(HERE / "out" / f"work-{os.getpid()}")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=root,
                            preexec_fn=cap_address_space, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and any CLI subprocess it started
        proc.communicate()
        print(f"perfbench: workload exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1

    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        print(f"perfbench: workload exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
