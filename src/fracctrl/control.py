"""Implicitly discretized control, cost evaluation, and the fixed-point loop.

The control is never a mesh function: it is the pointwise projection of
-P/nu onto the admissible box, which on each spatial element is a clamped
linear function.  Each slab therefore carries an exact piecewise-linear
description whose breakpoints are the element nodes plus the abscissae
where -P/nu crosses a bound; one flat layout holds all slabs.  All inner
products (loads, norms, errors) integrate this description exactly: the
scheme has no consistency error beyond the discretization itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .fem import TriDiagonalOperator, assemble_mass, assemble_stiffness, l2_project, load_descriptor
from .fracops import assemble_coupling, source_moments
from .mesh import MERGE_RTOL, SpatialGrid, TemporalGrid
from .problem import ProblemSpec
from .solver import (PANEL, SpaceTimeField, adjoint_source, apply_adjoint,
                     apply_forward, state_source)

__all__ = [
    "ControlField",
    "CostReport",
    "FixedPointDiverged",
    "project_admissible",
    "control_loads",
    "fixed_point_solve",
    "optimality_residual",
    "evaluate_cost",
]

_INV_SQRT3 = 1.0 / math.sqrt(3.0)
# sample points per element at which optimality_residual compares U
_RESIDUAL_POINTS = 9


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


def _slab_ids(offsets: np.ndarray, k0: int, k1: int) -> np.ndarray:
    """0-based slab index of every breakpoint of slabs k0..k1-1."""
    return np.repeat(np.arange(k0, k1), np.diff(offsets[k0:k1 + 1]))


def _keys(k, x) -> np.ndarray:
    """Exact (slab, x) keys; numpy sorts complex numbers lexicographically."""
    z = np.empty(np.broadcast(k, x).shape, dtype=complex)
    z.real, z.imag = k, x
    return z


@dataclass(frozen=True)
class ControlField:
    """Slabwise exact piecewise-linear control in one flat layout.

    Slab k+1 has breakpoints ``x[offsets[k]:offsets[k+1]]`` covering [0, 1]
    and containing every element node and every bound crossing, with values
    ``v`` at the same positions.
    """

    tgrid: TemporalGrid
    xgrid: SpatialGrid
    nu: float
    u_lo: float
    u_hi: float
    x: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)

    @cached_property
    def pieces(self) -> tuple:
        """Per-slab (breakpoints, values) views of the flat layout."""
        cuts = self.offsets[1:-1]
        return tuple(zip(np.split(self.x, cuts), np.split(self.v, cuts)))

    def evaluate(self, k: int, x) -> np.ndarray:
        """Values of slab k (1-indexed) at abscissae x."""
        if not 1 <= k <= self.tgrid.num_slabs:
            raise ValueError(f"slab index must lie in 1..{self.tgrid.num_slabs}, got {k}")
        return self._values_at(k - 1, x)

    def spatial_loads(self) -> np.ndarray:
        return control_loads(self, self.xgrid)

    def norm_l2l2_sq(self) -> float:
        """Exact squared norm over space-time (quadratic per piece)."""
        return sum(float((self.tgrid.widths[slab] * (q - p)) @ (vp * vp + vp * vq + vq * vq))
                   for slab, p, q, vp, vq in _block_pieces(self)) / 3.0

    def sample_lattice(self, ts, xs) -> np.ndarray:
        """Values on a (t, x) lattice; piecewise constant in t."""
        ks = np.searchsorted(self.tgrid.nodes, ts, side="right") - 1
        return self._values_at(np.clip(ks, 0, self.tgrid.num_slabs - 1)[:, None], xs)

    def _values_at(self, k, x) -> np.ndarray:
        """np.interp of slab k+1 at x for broadcast arrays k (0-based) and x."""
        k, x = np.broadcast_arrays(np.asarray(k), np.asarray(x, dtype=float))
        off = self.offsets
        k0, k1 = int(k.min()), int(k.max()) + 1
        keys = _keys(_slab_ids(off, k0, k1), self.x[off[k0]:off[k1]])
        j = np.searchsorted(keys, _keys(k, x), side="right") - 1 + off[k0]
        j = np.clip(j, off[k], off[k + 1] - 2)  # left end of a piece of slab k
        return _lerp(self.x, self.v, j, x)


def _lerp(xs: np.ndarray, vs: np.ndarray, j, x) -> np.ndarray:
    """Values at x on the pieces j..j+1 of a flat layout, as np.interp
    forms them; exact at both ends of a piece, also of a zero-width one."""
    xl, xr, vl, vr = xs[j], xs[j + 1], vs[j], vs[j + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        inside = (vr - vl) / (xr - xl) * (x - xl) + vl
    return np.where(x >= xr, vr, np.where(x <= xl, vl, inside))


def _merge_layouts(a: tuple, ka: np.ndarray, b: tuple, kb: np.ndarray) -> tuple:
    """Merged breakpoints (flat), their count per row, and the values of a
    and b there, for two flat layouts (x, v, offsets) on [0, 1].

    Row i merges slab ka[i]+1 of a with slab kb[i]+1 of b as
    merge_breakpoints does (span 1).  Rows are padded with their right
    endpoints and sorted stably, so a point of a precedes an equal point of
    b, and the running count of a side's own points names its piece holding
    each merged point, the one np.interp picks."""
    rows = []
    for (_, _, off), k in ((a, ka), (b, kb)):
        first, last = off[k][:, None], off[k + 1][:, None] - 1
        rows.append(np.minimum(first + np.arange(np.max(last - first) + 1), last))
    keys = np.concatenate([a[0][rows[0]], b[0][rows[1]]], axis=1)
    order = np.argsort(keys, axis=1, kind="stable")
    keys = np.take_along_axis(keys, order, axis=1)
    keep = np.ones(keys.shape, dtype=bool)
    keep[:, 1:] = np.diff(keys, axis=1) > MERGE_RTOL
    x, counts = keys[keep], keep.sum(axis=1)
    x[np.cumsum(counts) - 1] = a[0][rows[0][:, -1]]  # each right endpoint stays exact
    from_a = order < rows[0].shape[1]
    vals = []
    for (xs, vs, _), row, own in zip((a, b), rows, (from_a, ~from_a)):
        piece = np.clip(np.cumsum(own, axis=1) - 1, 0, row[:, -1:] - row[:, :1] - 1)
        vals.append(_lerp(xs, vs, (row[:, :1] + piece)[keep], x))
    return x, counts, vals[0], vals[1]


def _block_pieces(U: ControlField):
    """(slab, p, q, vp, vq) of every positive-width piece, PANEL slabs at a
    time; the width filter also drops the seam where x falls from 1 to 0."""
    K, off = U.tgrid.num_slabs, U.offsets
    for k0 in range(0, K, PANEL):
        k1 = min(k0 + PANEL, K)
        x, v = U.x[off[k0]:off[k1]], U.v[off[k0]:off[k1]]
        keep = x[1:] > x[:-1]
        yield (_slab_ids(off, k0, k1)[:-1][keep], x[:-1][keep], x[1:][keep],
               v[:-1][keep], v[1:][keep])


def project_admissible(P: SpaceTimeField, nu: float, u_lo: float, u_hi: float) -> ControlField:
    """U = clamp(-P/nu) with exact bound-crossing abscissae per element."""
    if not u_lo < u_hi:
        raise ValueError(f"bounds must satisfy u_lo < u_hi, got ({u_lo}, {u_hi})")
    xg, K, n = P.xgrid, P.tgrid.num_slabs, P.xgrid.n
    w = np.pad(-P.values / nu, ((0, 0), (1, 1)))  # with the Dirichlet nodes
    at, cx, cv = [], [], []
    for b in (u_lo, u_hi):  # an infinite bound has no sign change
        ks, es = np.nonzero((w[:, :-1] - b) * (w[:, 1:] - b) < 0.0)
        at.append(ks * (n + 1) + es + 1)  # right after the element's left node
        cx.append(xg.nodes[es] + xg.h * (b - w[ks, es]) / (w[ks, es + 1] - w[ks, es]))
        cv.append(np.full(ks.size, b))
    at, cx, cv = map(np.concatenate, (at, cx, cv))
    order = np.lexsort((cx, at))  # both crossings of one element in x order
    x = np.insert(np.tile(xg.nodes, K), at[order], cx[order])
    np.clip(w, u_lo, u_hi, out=w)
    v = np.insert(w.ravel(), at[order], cv[order])
    offsets = np.concatenate(([0], np.cumsum(n + 1 + np.bincount(at // (n + 1), minlength=K))))
    return ControlField(P.tgrid, xg, nu, u_lo, u_hi, x, v, offsets)


def control_loads(U: ControlField, grid: SpatialGrid) -> np.ndarray:
    """Exact per-slab loads int U phi_i dx.

    Every piece lies inside one element, U and phi_i are linear there, so
    two-point Gauss integrates the quadratic product exactly.
    """
    if grid.n != U.xgrid.n:
        raise ValueError("grid mismatch between control and load request")
    n, h = grid.n, grid.h
    out = np.zeros(U.tgrid.num_slabs * (n + 1))  # every node, boundary included
    for slab, p, q, vp, vq in _block_pieces(U):
        mid = 0.5 * (p + q)
        half = 0.5 * (q - p)
        e = np.clip((mid / h).astype(int), 0, n - 1)
        xl = grid.nodes[e]
        left = slab * (n + 1) + e  # flat index of the element's left node
        for off in (-_INV_SQRT3, _INV_SQRT3):
            xg_ = mid + off * half
            ug = vp + (vq - vp) * (0.5 + 0.5 * off)
            rising = (xg_ - xl) / h
            contrib = half * ug  # Gauss weight = half per point
            np.add.at(out, left + 1, contrib * rising)
            np.add.at(out, left, contrib * (1.0 - rising))
    return out.reshape(-1, n + 1)[:, 1:-1]


@dataclass(frozen=True)
class CostReport:
    tracking: float
    penalty: float
    total: float
    iterations: int = 0
    final_increment: float = math.nan
    cost_history: tuple = ()


def _control_norm_sq(U, tgrid: TemporalGrid, mass: TriDiagonalOperator) -> float:
    if U is None:
        return 0.0
    if isinstance(U, ControlField):
        return U.norm_l2l2_sq()
    # member of the discrete space
    return float(np.sum(tgrid.widths * np.einsum("ki,ki->k", U.values, mass.apply(U.values))))


def evaluate_cost(U, Y: SpaceTimeField, spec: ProblemSpec) -> CostReport:
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
    return CostReport(tracking=tracking, penalty=penalty, total=tracking + penalty)


def fixed_point_solve(spec: ProblemSpec, tgrid: TemporalGrid, xgrid: SpatialGrid,
                      tol: float = 1e-13, max_iter: int = 200, theta: float = 1.0):
    """Solve the discrete optimality system by projected fixed-point
    iteration on the nodal co-state Q, which starts at -nu u_init.

    Each iteration projects U = clamp(-Q/nu), solves for the state Y and
    the co-state P, and stops once r = ||P - Q||_2 / nu over the interior
    nodes is below tol; otherwise Q moves to (1 - theta) Q + theta P.  The
    clamp is 1-Lipschitz and -Q/nu is piecewise linear in x, so r bounds
    |U - clamp(-P/nu)| at every point, kinks included.

    Returns (U, Y, P, CostReport) of the accepted iteration.
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
    Q = np.full((tgrid.num_slabs, xgrid.num_interior), -spec.nu * u_init)
    history = []
    increment = math.inf
    for iterations in range(1, max_iter + 1):
        U = project_admissible(SpaceTimeField(tgrid, xgrid, Q), spec.nu, spec.u_lo, spec.u_hi)
        Y = apply_forward(B, mass, stiffness, state_source(U, y0_proj, moments, mass))
        P = apply_adjoint(B, mass, stiffness, adjoint_source(Y, spec.yd))
        history.append(evaluate_cost(U, Y, spec))
        increment = float(np.linalg.norm(P.values - Q)) / spec.nu
        if increment < tol:
            return U, Y, P, replace(
                history[-1], iterations=iterations, final_increment=increment,
                cost_history=tuple(rep.total for rep in history))
        Q = (1.0 - theta) * Q + theta * P.values  # exactly P at theta = 1
    raise FixedPointDiverged(max_iter, increment)


def optimality_residual(U: ControlField, Y: SpaceTimeField, P: SpaceTimeField,
                        spec: ProblemSpec) -> float:
    """Max violation of U = clamp(-P/nu) over a dense sample of each slab.

    Zero at the exact discrete solution; equivalent to the variational
    inequality for the box set.
    """
    xg = P.xgrid
    sub = np.linspace(0.0, 1.0, _RESIDUAL_POINTS + 1)[:-1]
    dense = np.append((xg.nodes[:-1, None] + xg.h * sub[None, :]).ravel(), 1.0)
    e = np.minimum(np.arange(dense.size) // _RESIDUAL_POINTS, xg.n - 1)
    lam = (dense - xg.nodes[e]) / xg.h
    w = np.pad(-P.values / spec.nu, ((0, 0), (1, 1)))
    worst = 0.0
    for k0 in range(0, P.tgrid.num_slabs, PANEL):
        wk = w[k0:k0 + PANEL]
        target = np.clip(wk[:, e] + (wk[:, e + 1] - wk[:, e]) * lam, spec.u_lo, spec.u_hi)
        got = U._values_at(np.arange(k0, k0 + wk.shape[0])[:, None], dense)
        worst = max(worst, float(np.max(np.abs(got - target))))
    return worst
