#!/usr/bin/env python3
"""Reproduce the twelve convergence tables: a spatial, a graded temporal and
a uniform temporal study for each (alpha, r) in {0.4, 0.8} x {0, 0.25}.

Desk scale by default (self-convergence references m=9/n=256 spatially and
m=12/n=128 temporally), which took 13.5 s of wall time and 151 MB of peak
RSS; pass --paper-scale for the full m=14 / n=512 references, which took
194 s and 1162 MB (one BLAS thread, OPENBLAS_NUM_THREADS=1, on a 2-vCPU
machine).  The three studies of each (alpha, r) run in one
`harness.run_studies` call, which solves their shared reference once (the
two temporal studies share it, and at paper scale the spatial study too)
and keeps no solve past the call.  Tables land in --outdir as CSV plus a text
rendering on stdout; each group's header line gives its wall time and the
process's peak RSS so far (ru_maxrss).
"""

import argparse
import pathlib
import resource
import sys
import time

from fracctrl import harness


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="tables", type=pathlib.Path)
    ap.add_argument("--paper-scale", action="store_true")
    args = ap.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)

    sp = harness.PAPER_SPATIAL if args.paper_scale else harness.SPATIAL_DEFAULTS
    tp = harness.PAPER_TEMPORAL if args.paper_scale else harness.TEMPORAL_DEFAULTS

    for r in (0.0, 0.25):
        for alpha in (0.4, 0.8):
            names = [f"spatial_alpha{alpha}_r{r}"]
            cfgs = [harness.ExperimentConfig(kind="spatial-study", alpha=alpha, r=r, **sp)]
            for grading in ("graded", "uniform"):
                names.append(f"temporal_{grading}_alpha{alpha}_r{r}")
                cfgs.append(harness.ExperimentConfig(kind="temporal-study", alpha=alpha, r=r,
                                                     grading=grading, **tp))
            t0 = time.time()
            tables = harness.run_studies(cfgs)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KB on Linux
            sys.stdout.write(f"== alpha={alpha} r={r} ({time.time() - t0:.0f}s, "
                             f"peak RSS so far {rss_mb:.0f} MB)\n")
            for name, table in zip(names, tables):
                harness.emit_table(table, "csv", args.outdir / f"{name}.csv")
                sys.stdout.write(f"== {name}\n")
                sys.stdout.write(harness.render_table(table, "text"))
                sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
