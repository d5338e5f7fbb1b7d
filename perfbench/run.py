"""Benchmark of the mixed track-height placer on Table II twins.

Usage, from the repository root::

    python3 perfbench/run.py --workload five_flows_aes400 --seed 0 \\
        --seconds 45 --trace 0

Generates the workload's netlist from ``--seed``, measures placement jobs
or ECO deltas for ``--seconds`` seconds in one process, checks every
output, and prints one JSON object as the last line of standard output:
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
reports its per-layer metrics from a run that traces each placement
instance once between two untraced placements of it (and every other ECO
delta of the stream that follows on ``five_flows_aes400``), and writes the
trace report to standard error.  The run's environment (nproc, CPU,
library versions) is printed on the line before the result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> None:
    """One thread per BLAS / OpenMP pool; must run before numpy loads.

    The placer is single-threaded apart from these pools, so the process
    then runs one thread.  A pool of nproc threads that spin-wait for each
    other measures the host's scheduler: on a 2-core VM, aes_400's five
    flows took 4.3-5.4 s with two BLAS threads and 4.2-4.6 s with one.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def select_metrics(spec: dict, values: dict, trace: bool) -> dict:
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in group
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _flush_c_stdio() -> None:
    ctypes.CDLL(None).fflush(None)


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_threads()
    spec = load_spec()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    # Solver libraries print to the C-level stdout; route it to stderr
    # so that the result stays the last line of standard output.
    sys.stdout.flush()
    stdout_fd = os.dup(1)
    os.dup2(2, 1)
    try:
        run = Run(WORKLOADS[args.workload], args.seed, args.seconds,
                  bool(args.trace))
        run.execute()
        if args.trace:
            print(run.trace_report(), file=sys.stderr)
        metrics = select_metrics(spec, run.values, bool(args.trace))
        env = environment()
    finally:
        sys.stdout.flush()
        _flush_c_stdio()
        os.dup2(stdout_fd, 1)
        os.close(stdout_fd)
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0 and finite,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
