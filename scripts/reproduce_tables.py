#!/usr/bin/env python3
"""Reproduce the twelve convergence tables: a spatial, a graded temporal and
a uniform temporal study for each (alpha, r) in {0.4, 0.8} x {0, 0.25}.

Desk scale by default (self-convergence references m=9/n=256 spatially and
m=12/n=128 temporally); pass --paper-scale for the full m=14 / n=512
references, which took 190.1 s of wall time (288.6 s of CPU time) and
2179 MB of peak RSS on a 2-vCPU machine.  Tables land in --outdir as CSV plus a text rendering on
stdout; each table's header line gives its wall time and the process's
peak RSS so far (ru_maxrss).
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

    # The studies run (alpha, r) by (alpha, r), so that those that share a
    # reference solve run back to back and find it in the solve cache: the
    # two temporal studies always share theirs, and at paper scale the
    # spatial study shares it too.
    jobs = []
    for r in (0.0, 0.25):
        for alpha in (0.4, 0.8):
            cfg = harness.ExperimentConfig(kind="spatial-study", alpha=alpha, r=r, **sp)
            jobs.append((f"spatial_alpha{alpha}_r{r}", cfg, harness.run_spatial_study))
            for grading in ("graded", "uniform"):
                cfg = harness.ExperimentConfig(kind="temporal-study", alpha=alpha, r=r,
                                               grading=grading, **tp)
                jobs.append((f"temporal_{grading}_alpha{alpha}_r{r}", cfg,
                             harness.run_temporal_study))

    for name, cfg, runner in jobs:
        t0 = time.time()
        table = runner(cfg)
        harness.emit_table(table, "csv", args.outdir / f"{name}.csv")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KB on Linux
        sys.stdout.write(f"== {name} ({time.time() - t0:.0f}s, peak RSS so far {rss_mb:.0f} MB)\n")
        sys.stdout.write(harness.render_table(table, "text"))
        sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
