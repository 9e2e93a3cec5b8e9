"""Implicitly discretized control, cost evaluation, and the fixed-point loop.

The control is never a mesh function: it is the pointwise projection of
-P/nu onto the admissible box, which on each spatial element is a clamped
linear function.  Each slab therefore carries an exact piecewise-linear
description whose breakpoints are the element nodes plus the abscissae
where -P/nu crosses a bound.  All inner products against the control
(loads, norms, errors) integrate this description exactly: the scheme has
no consistency error beyond the discretization itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fem import TriDiagonalOperator, assemble_mass, assemble_stiffness, l2_project, load_descriptor
from .fracops import assemble_coupling, source_moments
from .mesh import SpatialGrid, TemporalGrid, merge_breakpoints
from .problem import ProblemSpec
from .solver import (SpaceTimeField, adjoint_source, apply_adjoint,
                     apply_forward, state_source)

__all__ = [
    "ControlField",
    "CostReport",
    "FixedPointDiverged",
    "clamp_scalar",
    "project_admissible",
    "control_loads",
    "blend_controls",
    "fixed_point_solve",
    "optimality_residual",
    "evaluate_cost",
]

_INV_SQRT3 = 1.0 / math.sqrt(3.0)


class FixedPointDiverged(RuntimeError):
    """Fixed-point iteration hit the iteration cap before the tolerance.

    Plain iteration is only guaranteed contractive for large enough cost
    weights; a damping factor theta < 1 restores convergence otherwise.
    """

    def __init__(self, iterations: int, last_increment: float):
        self.iterations = iterations
        self.last_increment = last_increment
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(last increment {last_increment:.3e}); the cost weight may be "
            f"too small for plain iteration, retry with damping theta < 1")


def clamp_scalar(v: float, nu: float, u_lo: float, u_hi: float) -> float:
    """Pointwise optimality map: u_hi below -nu*u_hi, -v/nu inside,
    u_lo above -nu*u_lo."""
    return min(max(-v / nu, u_lo), u_hi)


@dataclass(frozen=True)
class ControlField:
    """Slabwise exact piecewise-linear control.

    ``pieces[k]`` is the pair (breakpoints, values) on slab k+1 with
    breakpoints covering [0, 1] and containing every element node and every
    bound crossing.  ``node_samples`` are the interior nodal values used by
    the fixed-point stopping rule.
    """

    tgrid: TemporalGrid
    xgrid: SpatialGrid
    nu: float
    u_lo: float
    u_hi: float
    pieces: tuple = field(repr=False)
    node_samples: np.ndarray = field(repr=False)
    costate: SpaceTimeField | None = field(default=None, repr=False)

    def evaluate(self, k: int, x) -> np.ndarray:
        """Values of slab k (1-indexed) at abscissae x."""
        xs, vs = self.pieces[k - 1]
        return np.interp(np.asarray(x, dtype=float), xs, vs)

    def spatial_loads(self) -> np.ndarray:
        return control_loads(self, self.xgrid)

    def norm_l2l2_sq(self) -> float:
        """Exact squared norm over space-time (quadratic per piece)."""
        total = 0.0
        for k, (xs, vs) in enumerate(self.pieces):
            w = np.diff(xs)
            vl, vr = vs[:-1], vs[1:]
            total += self.tgrid.widths[k] * float(
                np.sum(w * (vl * vl + vl * vr + vr * vr)) / 3.0)
        return total

    def sample_lattice(self, ts, xs) -> np.ndarray:
        """Values on a (t, x) lattice; piecewise constant in t."""
        ts = np.asarray(ts, dtype=float)
        xs = np.asarray(xs, dtype=float)
        ks = np.clip(np.searchsorted(self.tgrid.nodes, ts, side="right") - 1,
                     0, self.tgrid.num_slabs - 1)
        out = np.empty((ts.size, xs.size))
        for row, k in enumerate(ks):
            out[row] = self.evaluate(int(k) + 1, xs)
        return out


def _constant_control(tgrid: TemporalGrid, xgrid: SpatialGrid, nu: float,
                      u_lo: float, u_hi: float, value: float) -> ControlField:
    xs = xgrid.nodes.copy()
    vs = np.full(xgrid.n + 1, value)
    pieces = tuple((xs, vs) for _ in range(tgrid.num_slabs))
    samples = np.full((tgrid.num_slabs, xgrid.num_interior), value)
    return ControlField(tgrid, xgrid, nu, u_lo, u_hi, pieces, samples)


def project_admissible(P: SpaceTimeField, nu: float, u_lo: float, u_hi: float) -> ControlField:
    """U = clamp(-P/nu) with exact bound-crossing abscissae per element."""
    if not u_lo < u_hi:
        raise ValueError(f"bounds must satisfy u_lo < u_hi, got ({u_lo}, {u_hi})")
    tg, xg = P.tgrid, P.xgrid
    nodes = xg.nodes
    h = xg.h
    pieces = []
    for k in range(tg.num_slabs):
        w = np.zeros(xg.n + 1)
        w[1:-1] = -P.values[k] / nu
        d = np.diff(w)
        extra = []
        for b in (u_lo, u_hi):
            if not math.isfinite(b):
                continue
            mask = (w[:-1] - b) * (w[1:] - b) < 0.0
            if np.any(mask):
                extra.append(nodes[:-1][mask] + h * (b - w[:-1][mask]) / d[mask])
        if extra:
            xs = np.sort(np.concatenate([nodes] + extra))
        else:
            xs = nodes
        vs = np.clip(np.interp(xs, nodes, w), u_lo, u_hi)
        pieces.append((xs, vs))
    samples = np.clip(-P.values / nu, u_lo, u_hi)
    return ControlField(tg, xg, nu, u_lo, u_hi, tuple(pieces), samples, costate=P)


def control_loads(U: ControlField, grid: SpatialGrid) -> np.ndarray:
    """Exact per-slab loads int U phi_i dx.

    Every piece lies inside one element, U and phi_i are linear there, so
    two-point Gauss integrates the quadratic product exactly.
    """
    if grid.n != U.xgrid.n:
        raise ValueError("grid mismatch between control and load request")
    n, h = grid.n, grid.h
    out = np.zeros((U.tgrid.num_slabs, n - 1))
    for k, (xs, vs) in enumerate(U.pieces):
        p, q = xs[:-1], xs[1:]
        keep = q > p
        p, q = p[keep], q[keep]
        vp, vq = vs[:-1][keep], vs[1:][keep]
        mid = 0.5 * (p + q)
        half = 0.5 * (q - p)
        e = np.clip((mid / h).astype(int), 0, n - 1)
        xl = grid.nodes[e]
        row = out[k]
        for off in (-_INV_SQRT3, _INV_SQRT3):
            xg_ = mid + off * half
            ug = vp + (vq - vp) * (0.5 + 0.5 * off)
            rising = (xg_ - xl) / h
            contrib = half * ug  # Gauss weight = half per point
            right = e <= n - 2
            np.add.at(row, e[right], (contrib * rising)[right])
            left = e >= 1
            np.add.at(row, e[left] - 1, (contrib * (1.0 - rising))[left])
    return out


def blend_controls(a: ControlField, b: ControlField, wa: float, wb: float) -> ControlField:
    """wa*a + wb*b with merged breakpoints; exact for convex damping steps."""
    if a.tgrid.num_slabs != b.tgrid.num_slabs or a.xgrid.n != b.xgrid.n:
        raise ValueError("cannot blend controls on different grids")
    pieces = []
    for (xa, va), (xb, vb) in zip(a.pieces, b.pieces):
        xs = merge_breakpoints(xa, xb)
        vs = wa * np.interp(xs, xa, va) + wb * np.interp(xs, xb, vb)
        pieces.append((xs, vs))
    samples = wa * a.node_samples + wb * b.node_samples
    return ControlField(a.tgrid, a.xgrid, a.nu, a.u_lo, a.u_hi,
                        tuple(pieces), samples)


@dataclass(frozen=True)
class CostReport:
    tracking: float
    penalty: float
    total: float
    iterations: int
    final_increment: float
    cost_history: tuple = ()


def _control_norm_sq(U, tgrid: TemporalGrid, mass: TriDiagonalOperator) -> float:
    if U is None:
        return 0.0
    if isinstance(U, ControlField):
        return U.norm_l2l2_sq()
    # member of the discrete space
    return float(np.sum(tgrid.widths * np.einsum("ki,ki->k", U.values, mass.apply(U.values))))


def evaluate_cost(U, Y: SpaceTimeField, spec: ProblemSpec,
                  iterations: int = 0, final_increment: float = float("nan"),
                  cost_history: tuple = ()) -> CostReport:
    """J(U) = 1/2 ||Y - yd||^2 + nu/2 ||U||^2 with the tracking misfit
    expanded into the mass form, exact cross loads, and the closed-form
    target norm; the penalty uses the kink-exact control norm."""
    mass = assemble_mass(Y.xgrid)
    yd_load = load_descriptor(Y.xgrid, spec.yd)
    yd_sq = spec.yd.l2_norm_sq()
    ymy = np.einsum("ki,ki->k", Y.values, mass.apply(Y.values))
    cross = Y.values @ yd_load
    tracking = 0.5 * float(np.sum(Y.tgrid.widths * (ymy - 2.0 * cross + yd_sq)))
    penalty = 0.5 * spec.nu * _control_norm_sq(U, Y.tgrid, mass)
    return CostReport(tracking=tracking, penalty=penalty, total=tracking + penalty,
                      iterations=iterations, final_increment=final_increment,
                      cost_history=cost_history)


def fixed_point_solve(spec: ProblemSpec, tgrid: TemporalGrid, xgrid: SpatialGrid,
                      tol: float = 1e-13, max_iter: int = 200, theta: float = 1.0):
    """Solve the discrete optimality system by projected fixed-point
    iteration: alternate state and co-state solves with the clamped
    co-state as the next control, optionally damped by theta.

    Returns (U, Y, P, CostReport); Y and P are recomputed from the final
    control so the triple satisfies the discrete coupled system.
    """
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"damping must lie in (0, 1], got {theta}")
    mass = assemble_mass(xgrid)
    stiffness = assemble_stiffness(xgrid)
    B = assemble_coupling(tgrid, spec.alpha)
    moments = source_moments(tgrid, spec.alpha)
    y0_proj = l2_project(xgrid, spec.y0)

    u_init = 0.0 if spec.u_lo <= 0.0 <= spec.u_hi else 0.5 * (spec.u_lo + spec.u_hi)
    U = _constant_control(tgrid, xgrid, spec.nu, spec.u_lo, spec.u_hi, u_init)

    history = []
    increment = math.inf
    iterations = 0
    converged = False
    while iterations < max_iter:
        src = state_source(U, y0_proj, moments, mass)
        Y = apply_forward(B, mass, stiffness, src)
        P = apply_adjoint(B, mass, stiffness, adjoint_source(Y, spec.yd))
        history.append(evaluate_cost(U, Y, spec).total)
        U_proj = project_admissible(P, spec.nu, spec.u_lo, spec.u_hi)
        if theta < 1.0:
            U_next = blend_controls(U, U_proj, 1.0 - theta, theta)
        else:
            U_next = U_proj
        increment = float(np.sqrt(np.sum((U_next.node_samples - U.node_samples) ** 2)))
        U = U_next
        iterations += 1
        if increment < tol:
            converged = True
            break
    if not converged:
        raise FixedPointDiverged(iterations, increment)

    # re-evaluate the pair at the accepted control
    src = state_source(U, y0_proj, moments, mass)
    Y = apply_forward(B, mass, stiffness, src)
    P = apply_adjoint(B, mass, stiffness, adjoint_source(Y, spec.yd))
    report = evaluate_cost(U, Y, spec, iterations=iterations,
                           final_increment=increment, cost_history=tuple(history))
    return U, Y, P, report


def optimality_residual(U: ControlField, Y: SpaceTimeField, P: SpaceTimeField,
                        spec: ProblemSpec, points_per_element: int = 9) -> float:
    """Max violation of U = clamp(-P/nu) over a dense sample of each slab.

    Zero at the exact discrete solution; equivalent to the variational
    inequality for the box set.
    """
    xg = P.xgrid
    sub = np.linspace(0.0, 1.0, points_per_element + 1)[:-1]
    dense = (xg.nodes[:-1, None] + xg.h * sub[None, :]).ravel()
    dense = np.append(dense, 1.0)
    worst = 0.0
    for k in range(P.tgrid.num_slabs):
        w = np.zeros(xg.n + 1)
        w[1:-1] = -P.values[k] / spec.nu
        target = np.clip(np.interp(dense, xg.nodes, w), spec.u_lo, spec.u_hi)
        got = U.evaluate(k + 1, dense)
        worst = max(worst, float(np.max(np.abs(got - target))))
    return worst
