#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload ocp-m10 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
With `--trace 0` the line holds the end-to-end metrics (op_s, setup_s,
peak_rss_mb); with `--trace 1` it holds the per-layer metrics of a traced
run, whose spans are also written to `perfbench/out/`.

Every operation runs in a fresh worker process, one after another: the
worker imports the program, builds the workload's inputs, reports that it
is ready, runs one operation and checks its output outside the timing.  A
fresh process starts with every cache empty, so no operation reads what an
earlier one left, and the medians sample the speed of several processes
rather than of one.  Workers start until the wall time elapsed plus the
median worker's wall time would pass `--seconds`, but at least MIN_OPS
start.  All times are wall time; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_OPS = 2  # so that op_s is never a single sample


def _import_program() -> None:
    if not (SRC / "fracctrl" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC / 'fracctrl'}; "
                 "run from the root of a fracctrl checkout")
    sys.path.insert(0, str(SRC))


def _worker(workload: str, seed: int, index: int, trace: bool) -> None:
    """One operation in this process; prints "ready", then one JSON line.
    Operation 0 also runs the workload's final check."""
    from workloads import WORKLOADS
    wl = WORKLOADS[workload](seed)
    print("ready", flush=True)

    from tracing import Tracer
    tracer = Tracer()
    with tracer if trace else contextlib.nullcontext():
        tracer.active = trace
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out = wl.op()
        except Exception:
            out = None
            traceback.print_exc()
        op_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
        tracer.active = False
    result = {"op_s": op_s, "cpu_s": cpu_s, "failed": out is None, "problems": [],
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if out is not None:
        result["problems"] = wl.check(out) + (wl.final_check(out) if index == 0 else [])
    if trace:
        result["layers"] = tracer.metrics()
        for name in tracer.missing:
            print(f"traced name missing from the program: {name}", file=sys.stderr)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{workload}-seed{seed}-op{index}.jsonl")
    print(json.dumps(result), flush=True)


def _run_worker(workload: str, seed: int, index: int, trace: int) -> tuple[float, dict | None]:
    """Start a worker; returns the wall time from its start to "ready" and
    its result, or None if it died without one."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--worker", str(index),
                           "--workload", workload, "--seed", str(seed), "--trace", str(trace)],
                          stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        lines = proc.stdout.read().splitlines()
    if proc.returncode != 0 or ready != "ready\n" or not lines:
        print(f"perfbench: worker {index} exited with {proc.returncode}", file=sys.stderr)
        return setup_s, None
    return setup_s, json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _import_program()
    if args.worker is not None:
        _worker(args.workload, args.seed, args.worker, bool(args.trace))
        return 0
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    setups, walls, results, problems = [], [], [], []
    t_start = time.perf_counter()
    while True:
        i = len(walls)
        t0 = time.perf_counter()
        setup_s, res = _run_worker(args.workload, args.seed, i, args.trace)
        walls.append(time.perf_counter() - t0)
        setups.append(setup_s)
        if res is None:
            problems.append(f"op {i}: the worker died")
        else:
            results.append(res)
            problems += [f"op {i}: {p}" for p in res["problems"]]
            print(f"op {i}: set-up {setup_s:.3f} s, op {res['op_s']:.3f} s, "
                  f"CPU {res['cpu_s']:.3f} s", file=sys.stderr)
        if len(walls) >= MIN_OPS and time.perf_counter() - t_start + statistics.median(walls) > args.seconds:
            break
    if not results:
        sys.exit("perfbench: every worker died")
    done = [r for r in results if not r["failed"]]
    failed = len(walls) - len(done)
    if not done:
        problems.append("every operation failed")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    ok = done or results
    def median(key):
        return statistics.median(r[key] for r in ok)

    if args.trace:
        metrics = {"trace.op_s": (median("op_s"), "s"), "trace.op_cpu_s": (median("cpu_s"), "s")}
        for name in ok[0]["layers"]:
            value = statistics.fmean(r["layers"][name] for r in ok)
            metrics[name] = (value, "s" if name.endswith("_s") else "count")
    else:
        metrics = {"op_s": (median("op_s"), "s"), "setup_s": (statistics.median(setups), "s"),
                   "peak_rss_mb": (median("rss_mb"), "MB")}
    print(json.dumps({
        "correct": not problems,
        "attempted": len(walls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
