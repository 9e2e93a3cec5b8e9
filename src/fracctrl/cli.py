"""Command-line front end: forward-solver validation, single control solves,
and the convergence studies."""

from __future__ import annotations

import argparse
import sys

from . import harness
from .control import fixed_point_solve, optimality_residual
from .mesh import build_graded, build_uniform_spatial, grading_exponents
from .problem import default_experiment_spec, from_config_text

__all__ = ["main"]


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _add_problem(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, help="fractional order in (0,1), default 0.5")
    p.add_argument("--r", type=float, help="smoothness index in [0,1), default 0")
    p.add_argument("--sigma1", type=float, default=None, help="override grading exponent at t=0")
    p.add_argument("--sigma2", type=float, default=None, help="override grading exponent at t=T")
    p.add_argument("--out", type=str, default=None, help="output file")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fracctrl",
        description="graded-grid solver for box-constrained control of "
                    "time-fractional diffusion")
    sub = ap.add_subparsers(dest="command", required=True)

    fp = sub.add_parser("forward", help="validate the forward solver against "
                                        "the exact eigen-expansion")
    _add_problem(fp)
    fp.add_argument("--m", type=int, default=8, help="temporal levels: M = 2^m")
    fp.add_argument("--n", type=int, default=128, help="spatial cells: h = 1/n")

    op = sub.add_parser("ocp", help="solve one control problem instance")
    _add_problem(op)
    op.add_argument("--m", type=int, default=8)
    op.add_argument("--n", type=int, default=64)
    op.add_argument("--config", type=str, default=None,
                    help="problem spec from a key = value file")

    st = sub.add_parser("study", help="convergence study along one axis")
    _add_problem(st)
    st.add_argument("axis", choices=("spatial", "temporal"))
    st.add_argument("--m", type=_int_list, default=None,
                    help="spatial study: fixed m; temporal study: comma list of rows")
    st.add_argument("--n", type=_int_list, default=None,
                    help="spatial study: comma list of rows; temporal study: fixed n")
    st.add_argument("--m-ref", type=int, default=None, help="temporal study: reference m")
    st.add_argument("--n-ref", type=int, default=None, help="spatial study: reference n")
    st.add_argument("--uniform", action="store_true",
                    help="run the rows on uniform temporal grids")
    st.add_argument("--paper-scale", action="store_true",
                    help="full-scale references (m=14 / n=512)")
    st.add_argument("--format", dest="fmt", choices=("text", "csv"), default="text")
    return ap


def _cmd_forward(args) -> int:
    err = harness.forward_single_mode_error(
        args.alpha, args.m, args.n, r=args.r,
        sigma1=args.sigma1, sigma2=args.sigma2)
    print(f"forward solve m={args.m} n={args.n} alpha={args.alpha}: "
          f"L2(L2) error vs exact eigen-expansion = {err:.6e}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(f"m,n,alpha,error\n{args.m},{args.n},{args.alpha},{err!r}\n")
    return 0


def _cmd_ocp(args) -> int:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            spec = from_config_text(fh.read())
    else:
        spec = default_experiment_spec(args.alpha, args.r)
    sigmas = grading_exponents(spec.alpha, spec.r, args.sigma1, args.sigma2)
    tgrid = build_graded(2 ** args.m, *sigmas, spec.T)
    xgrid = build_uniform_spatial(args.n)
    U, Y, P, report = fixed_point_solve(spec, tgrid, xgrid)
    res = optimality_residual(U, P, spec)
    print(f"converged in {report.iterations} iterations, "
          f"final increment {report.final_increment:.3e}")
    print(f"J = {report.total:.10e} (tracking {report.tracking:.10e}, "
          f"penalty {report.penalty:.10e})")
    print(f"optimality residual = {res:.3e}")
    if args.out:
        ts = tgrid.nodes[1:]
        sampled = U.sample_lattice(ts - 0.5 * tgrid.widths, xgrid.nodes)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("t,x,value\n")
            for row, tk in zip(sampled, ts):
                for x, v in zip(xgrid.nodes, row):
                    fh.write(f"{float(tk)!r},{float(x)!r},{float(v)!r}\n")
        print(f"control samples written to {args.out}")
    return 0


def _cmd_study(args) -> int:
    frozen, refined = ("m", "n") if args.axis == "spatial" else ("n", "m")
    fixed = getattr(args, frozen)
    if fixed and len(fixed) > 1:
        raise ValueError(f"--{frozen} takes one value in a {args.axis} study, its frozen axis")
    if getattr(args, f"{frozen}_ref") is not None:
        raise ValueError(f"--{frozen}-ref does not apply to a {args.axis} study; "
                         f"its reference is --{refined}-ref")
    defaults = {"spatial": (harness.SPATIAL_DEFAULTS, harness.PAPER_SPATIAL),
                "temporal": (harness.TEMPORAL_DEFAULTS, harness.PAPER_TEMPORAL)}[args.axis]
    given = dict(fixed=fixed[0] if fixed else None, points=getattr(args, refined),
                 reference=getattr(args, f"{refined}_ref"))
    cfg = harness.ExperimentConfig(
        kind=f"{args.axis}-study", alpha=args.alpha, r=args.r,
        grading="uniform" if args.uniform else "graded", sigma1=args.sigma1, sigma2=args.sigma2,
        **{**defaults[args.paper_scale], **{k: v for k, v in given.items() if v is not None}})
    run = harness.run_spatial_study if args.axis == "spatial" else harness.run_temporal_study
    text = harness.emit_table(run(cfg), fmt=args.fmt, path=args.out)
    sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for name, value in (("alpha", 0.5), ("r", 0.0)):  # here, so --config sees a given flag
            if getattr(args, name) is None:
                setattr(args, name, value)
            elif getattr(args, "config", None):
                raise ValueError(f"--{name} does not apply with --config, whose file sets {name}")
        for m in args.m if isinstance(args.m, tuple) else (args.m,):  # None: a study's default
            if m is not None and m < 1:
                raise ValueError(f"--m must be at least 1 (M = 2^m), got {m}")
        if args.command == "forward":
            return _cmd_forward(args)
        if args.command == "ocp":
            return _cmd_ocp(args)
        return _cmd_study(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
