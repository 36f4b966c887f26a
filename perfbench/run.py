#!/usr/bin/env python3
"""Benchmark of the polyquot classification pipeline, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/` there.
One run is one process with one thread.  It repeats whole rounds of its
workload's operations until S seconds have passed, checks every result, and
prints as its last line one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.

With --trace 0 the metrics are the end-to-end ones: `wall_s`, the median
round time from the first call into polyquot until the result is checked;
`setup_s`, the median of several fresh child processes' time to import numpy
and polyquot and build the inputs; and `peak_rss_mb`, this process's
`ru_maxrss`.  With --trace 1 every round runs twice, with the tracer
installed and without, and the metrics are the per-layer ones (see tracing.py);
the spans are written to perfbench/out/trace-<workload>.json.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("quotients-case13", "quotients-regular", "table1", "stretch-prefix")
SETUP_PROBES = 7


def _import_program():
    """Import polyquot from this checkout's source, never an installed copy."""
    if not (SRC / "polyquot" / "__init__.py").is_file():
        sys.exit(f"no polyquot source under {SRC}: run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import polyquot

    if Path(polyquot.__file__).resolve().parent != SRC / "polyquot":
        sys.exit(f"imported polyquot from {polyquot.__file__}, not from {SRC}")


def probe_setup(workload: str):
    """Child process: import, build the inputs, say so, exit."""
    _import_program()
    import workloads

    workloads.operations(workload)
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def measure_setup(workload: str) -> float:
    """Median time for a fresh process to reach `ready` in probe_setup."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--probe-setup"], stdout=subprocess.PIPE, cwd=ROOT)
        with child.stdout:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
        if child.wait(timeout=60) != 0 or line != b"ready\n":
            sys.exit(f"set-up probe failed with exit code {child.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def run_round(ops, workloads, tracer=None, round_no=0):
    """One pass over the operations: (wall seconds, problems, failed count)."""
    problems, failed = [], 0
    start = time.perf_counter()
    for op in ops:
        workloads.reset_caches()
        if tracer is not None:
            tracer.begin_op()
        t0 = time.perf_counter()
        try:
            problems += op.check(op.run())
        except Exception:  # counted as a failed operation; the run goes on
            traceback.print_exc()
            failed += 1
        if tracer is not None:
            tracer.end_op(round_no, op.label, time.perf_counter() - t0)
    return time.perf_counter() - start, problems, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="ignored: every input is a fixed presentation")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.probe_setup:
        probe_setup(args.workload)
        return 0

    setup_s = None if args.trace else measure_setup(args.workload)
    _import_program()
    import workloads

    ops = workloads.operations(args.workload)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()

    walls, traced, problems = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    round_no = 0
    while not walls or time.perf_counter() < deadline:
        # a traced run pairs every traced round with an untraced one, the
        # traced one first in even rounds, so that neither side always gets
        # the process's first, slower round
        order = (True, False) if round_no % 2 == 0 else (False, True)
        for with_trace in order if tracer else (False,):
            if with_trace:
                tracer.install()
                try:
                    wall, bad, nfail = run_round(ops, workloads, tracer, round_no)
                finally:
                    tracer.uninstall()
                traced.append((round_no, wall))
            else:
                wall, bad, nfail = run_round(ops, workloads)
                walls.append(wall)
            problems += bad
            attempted += len(ops)
            failed += nfail
        print(f"round {round_no}: {walls[-1]:.3f} s"
              + (f", traced {traced[-1][1]:.3f} s" if tracer else ""), file=sys.stderr)
        round_no += 1

    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    if tracer is None:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    else:
        metrics = tracer.layer_metrics(traced, walls)
        for name in sorted(tracer.absent):
            print(f"absent: {name} (its wrapped name is gone)", file=sys.stderr)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}.json")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
