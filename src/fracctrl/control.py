"""Implicitly discretized control, cost evaluation, and the self-damped fixed point.

The control is never a mesh function: it is U = clamp(w), the pointwise
projection of the nodal function w = -Q/nu onto the admissible box
(variational discretization).  `ControlField` stores w alone.  On each
spatial element U is the clamp of a linear function: linear, or kinked at
the one or two points where w strictly crosses a bound.  One table of those
crossings per control lets loads, norms and errors integrate U exactly: the
scheme has no consistency error beyond the discretization itself.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fem import assemble_mass, assemble_stiffness, load_descriptor, sine_transform
from .fracops import assemble_coupling, source_moments
from .mesh import SpatialGrid, TemporalGrid
from .problem import ProblemSpec, validate
from .solver import SpaceTimeField, march, march_plan, state_source

__all__ = [
    "ControlField",
    "CostReport",
    "FixedPointDiverged",
    "project_admissible",
    "control_loads",
    "fixed_point_solve",
    "fixed_point_solves",
    "optimality_residual",
    "evaluate_cost",
]

# stop once r < TOL; give up after MAX_ITER iterations, or STALL in a row
# that set no new minimum of r
TOL = 1e-13
MAX_ITER = 200
STALL = 10


class FixedPointDiverged(RuntimeError):
    """The fixed point on the spatial grid of n cells stopped short of
    r < TOL: it ran into MAX_ITER, or r set no new minimum in STALL
    iterations in a row (``stalled``).

    Reports the last and the smallest increment r, the last secant
    Lipschitz ratio L (NaN before the second iteration) and the damping
    2/(2+L) it set.
    """

    def __init__(self, n: int, iterations: int, last_increment: float, best_increment: float,
                 lipschitz: float, theta: float, stalled: bool):
        self.n = n
        self.iterations = iterations
        self.last_increment = last_increment
        self.best_increment = best_increment
        self.lipschitz = lipschitz
        self.theta = theta
        why = (f"stalled after {iterations} iterations, the last {STALL} without a new minimum"
               if stalled else f"no convergence after {iterations} iterations")
        super().__init__(
            f"n={n}: {why} (best increment {best_increment:.3e}, last {last_increment:.3e}, "
            f"Lipschitz ratio {lipschitz:.3g}, damping {theta:.3g})")


@dataclass(frozen=True)
class ControlField:
    """The control clamp(w) on every slab, from the nodal values w.

    ``w`` has one row of n+1 nodal values per slab, the zero Dirichlet ends
    included, unclamped; slab k+1 carries the clamp onto [u_lo, u_hi] of the
    linear interpolant of ``w[k]``.
    """

    tgrid: TemporalGrid
    xgrid: SpatialGrid
    u_lo: float
    u_hi: float
    w: np.ndarray = field(repr=False)

    @cached_property
    def _kinks(self) -> tuple:
        """(slab, element, local cut s in [0, 1], bound) of every point where
        w strictly crosses a bound, ordered by slab, element and s."""
        w, cols = self.w, []
        for b in (self.u_lo, self.u_hi):  # nothing crosses an infinite bound
            below, above = w < b, w > b
            cross = below[:, :-1] & above[:, 1:]
            cross |= above[:, :-1] & below[:, 1:]
            k, e = np.divmod(np.flatnonzero(cross), self.xgrid.n)
            wl = w[k, e]
            cols.append((k, e, (b - wl) / (w[k, e + 1] - wl), np.full(k.size, b)))
        k, e, s, b = map(np.concatenate, zip(*cols))
        order = np.lexsort((s, e, k))
        return k[order], e[order], s[order], b[order]

    @cached_property
    def pieces(self) -> tuple:
        """Per-slab (breakpoints, values): the element nodes and the cuts in
        x order, with the control's values there."""
        k, e, s, b = self._kinks
        xg, n, slabs = self.xgrid, self.xgrid.n, self.tgrid.num_slabs
        at = k * (n + 1) + e + 1  # right after the element's left node
        x = np.insert(np.tile(xg.nodes, slabs), at, _cut_abscissae(xg.nodes, e, s))
        v = np.insert(np.clip(self.w, self.u_lo, self.u_hi).ravel(), at, b)
        cuts = np.cumsum(n + 1 + np.bincount(k, minlength=slabs))[:-1]
        return tuple(zip(np.split(x, cuts), np.split(v, cuts)))

    def spatial_loads(self) -> np.ndarray:
        return control_loads(self)

    def norm_l2l2_sq(self) -> float:
        """Exact squared norm over space-time: sum_k tau_k c_k^T M c_k for
        the nodal clamp c, plus int U^2 - (I_h U)^2 on the kinked elements."""
        c = np.clip(self.w, self.u_lo, self.u_hi)
        cl, cr = c[:, :-1], c[:, 1:]
        nodal = np.einsum("ke,ke->k", cl, cl + cr) + np.einsum("ke,ke->k", cr, cr)
        k, _, s, u, iu = _kinked_elements(self)
        kinked = float(self.tgrid.widths[k] @ _simpson(s, u - iu, u + iu))
        return self.xgrid.h * (float(self.tgrid.widths @ nodal) / 3.0 + kinked)

    def sample_lattice(self, ts, xs) -> np.ndarray:
        """Values on a (t, x) lattice; piecewise constant in t."""
        ks = np.searchsorted(self.tgrid.nodes, ts, side="right") - 1
        return self._values_at(np.clip(ks, 0, self.tgrid.num_slabs - 1)[:, None], xs)

    def _values_at(self, k, x) -> np.ndarray:
        """clip(np.interp(x, nodes, w[k]), u_lo, u_hi) for broadcast arrays k
        (0-based) and x."""
        return _interp_clip(self.xgrid.nodes, self.w, self.u_lo, self.u_hi, k, x)


def _cut_abscissae(nodes: np.ndarray, e: np.ndarray, s: np.ndarray) -> np.ndarray:
    """x of the cuts at local abscissae s in elements e, each scaled by its
    own element's width: the nodes need not be uniform."""
    xl = nodes[e]
    return xl + (nodes[e + 1] - xl) * s


def _kinked_elements(U: ControlField) -> tuple:
    """(slab, element, s, u, iu) of every kinked element: rows of the local
    abscissae [0, s1, s2, 1] (s1 = s2 for one cut), the control there, and
    the interpolant I_h U of its nodal values there.  U - I_h U is linear
    between the columns and zero at both nodes."""
    k, e, s, b = U._kinks
    key = k * U.xgrid.n + e
    first, last = np.flatnonzero(np.diff(key, prepend=-1)), np.flatnonzero(np.diff(key, append=-1))
    k, e = k[first], e[first]
    c = np.clip(U.w[k[:, None], e[:, None] + (0, 1)], U.u_lo, U.u_hi)
    s = np.column_stack((np.zeros(k.size), s[first], s[last], np.ones(k.size)))
    u = np.column_stack((c[:, 0], b[first], b[last], c[:, 1]))
    return k, e, s, u, c[:, :1] * (1.0 - s) + c[:, 1:] * s


def _simpson(s: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """int f g over each row for f and g linear between the columns of s,
    by Simpson's rule per piece: exact for the quadratic product."""
    fm, gm = 0.5 * (f[:, :-1] + f[:, 1:]), 0.5 * (g[:, :-1] + g[:, 1:])
    return np.sum(np.diff(s, axis=1) / 6.0
                  * (f[:, :-1] * g[:, :-1] + 4.0 * fm * gm + f[:, 1:] * g[:, 1:]), axis=1)


def _interp_clip(nodes, v, lo, hi, k, x) -> np.ndarray:
    """clip(np.interp(x, nodes, v[k]), lo, hi) bit for bit, for rows k (an
    array broadcast against x, or a slice) and abscissae x: a control's w with
    its box, or a state's rows with their zero ends and no box."""
    x = np.asarray(x, dtype=float)
    e = np.searchsorted(nodes[1:-1], x, side="right")  # the end elements extend outward
    xl, xr, vl, vr = nodes[e], nodes[e + 1], v[k, e], v[k, e + 1]
    out = np.asarray(vr - vl)
    out /= xr - xl
    out *= x - xl
    out += vl
    np.copyto(out, vl, where=x <= xl)  # beyond the ends, np.interp holds the end values
    np.copyto(out, vr, where=x >= xr)
    return np.minimum(np.maximum(out, lo, out=out), hi, out=out)


def project_admissible(P: SpaceTimeField, nu: float, u_lo: float, u_hi: float) -> ControlField:
    """U = clamp(-P/nu), with the zero Dirichlet nodes of P."""
    if not u_lo < u_hi:
        raise ValueError(f"bounds must satisfy u_lo < u_hi, got ({u_lo}, {u_hi})")
    w = np.zeros((P.tgrid.num_slabs, P.xgrid.n + 1))
    np.divide(P.values, -nu, out=w[:, 1:-1])
    return ControlField(P.tgrid, P.xgrid, u_lo, u_hi, w)


def control_loads(U: ControlField) -> np.ndarray:
    """Exact per-slab loads int U phi_i dx of the interior hats.

    The mass action on the nodal clamp c, plus the loads of U - I_h U on the
    kinked elements: linear between the cuts and zero at both nodes, so
    Simpson's rule integrates it against a hat exactly.
    """
    xg, w, lo, hi = U.xgrid, U.w, U.u_lo, U.u_hi
    mass = assemble_mass(xg)
    # the mass stencil on c, whose ends are nonzero when the box excludes 0;
    # each neighbour is clamped into one temporary, so no copy of c is made
    out = np.clip(w[:, 1:-1], lo, hi)
    out *= mass.diag
    t = np.clip(w[:, 2:], lo, hi)
    out += np.multiply(t, mass.off, out=t)
    out += np.multiply(np.clip(w[:, :-2], lo, hi, out=t), mass.off, out=t)
    k, e, s, u, iu = _kinked_elements(U)
    # (slab, element) pairs are unique; the end nodes carry no hat
    for node, weight in ((e, 1.0 - s), (e + 1, s)):
        hat = (node > 0) & (node < xg.n)
        out[k[hat], node[hat] - 1] += xg.h * _simpson(s, u - iu, weight)[hat]
    return out


@dataclass(frozen=True)
class CostReport:
    tracking: float
    penalty: float
    total: float
    iterations: int = 0
    final_increment: float = math.nan


def _tracking(widths: np.ndarray, ymy: np.ndarray, cross: np.ndarray, yd_sq: float) -> float:
    """1/2 ||Y - yd||^2 = 1/2 sum_k tau_k (Y_k.M Y_k - 2 Y_k.yd_load + ||yd||^2)
    from its per-slab mass form ymy and cross loads."""
    return 0.5 * float(np.sum(widths * (ymy - 2.0 * cross + yd_sq)))


def evaluate_cost(U: ControlField, Y: SpaceTimeField, spec: ProblemSpec) -> CostReport:
    """J(U) = 1/2 ||Y - yd||^2 + nu/2 ||U||^2 with the tracking misfit
    expanded into the mass form, exact cross loads, and the closed-form
    target norm; the penalty uses the kink-exact control norm."""
    mass = assemble_mass(Y.xgrid)
    ymy = np.einsum("ki,ki->k", Y.values, mass.apply(Y.values))
    cross = Y.values @ load_descriptor(Y.xgrid, spec.yd)
    tracking = _tracking(Y.tgrid.widths, ymy, cross, spec.yd.l2_norm_sq())
    penalty = 0.5 * spec.nu * U.norm_l2l2_sq()
    return CostReport(tracking=tracking, penalty=penalty, total=tracking + penalty)


@dataclass(eq=False)
class _GridSolve:
    """The fixed point's state on one spatial grid of a group: its columns
    of the group's sine coefficients, its iterate Q with the damping it
    measures, and its result once it stops."""

    spec: ProblemSpec
    tgrid: TemporalGrid
    xgrid: SpatialGrid
    cols: slice
    y0_hat: np.ndarray
    yd_hat: np.ndarray
    Q: np.ndarray
    U: ControlField | None = None
    P_prev: np.ndarray | None = None
    moved: float = math.nan     # ||Q_k - Q_{k-1}||
    increment: float = math.nan
    best: float = math.inf
    since_best: int = 0
    lipschitz: float = math.nan
    theta: float = 1.0
    result: tuple | None = None

    def take(self, P: np.ndarray, step: np.ndarray, Z: np.ndarray, mu: np.ndarray,
             iterations: int) -> None:
        """Take the co-state P of iteration `iterations`.  `step`, a spent
        block of the group's work, holds P - Q; Z and mu are the grid's
        columns of the state march (mu Y^) and of the mass eigenvalues.  Once
        r < TOL keep (U, Y, P, CostReport) and zero Z, which the marches then
        keep; otherwise raise on a stall, or move Q."""
        spec, tgrid, xgrid = self.spec, self.tgrid, self.xgrid
        np.subtract(P, self.Q, out=step)
        self.increment = increment = float(np.linalg.norm(step)) / spec.nu
        if increment < TOL:
            self.Q = self.P_prev = None  # spent: the cost's temporaries take their memory
            Yhat = np.divide(Z, mu, out=step)
            tracking = _tracking(tgrid.widths, np.einsum("ki,ki->k", Yhat, Z),
                                 Yhat @ self.yd_hat, spec.yd.l2_norm_sq())
            penalty = 0.5 * spec.nu * self.U.norm_l2l2_sq()
            Y = SpaceTimeField(tgrid, xgrid, sine_transform(Yhat))
            self.result = (self.U, Y, SpaceTimeField(tgrid, xgrid, P), CostReport(
                tracking, penalty, tracking + penalty, iterations, increment))
            Z[...] = 0.0
            return
        self.best, self.since_best = ((increment, 0) if increment < self.best
                                      else (self.best, self.since_best + 1))
        if self.since_best == STALL:
            raise self.diverged(iterations, stalled=True)
        if self.P_prev is not None:  # P_prev is spent: it becomes P below
            self.lipschitz = (float(np.linalg.norm(np.subtract(P, self.P_prev, out=self.P_prev)))
                              / self.moved)
            self.theta = 2.0 / (2.0 + self.lipschitz)
        self.Q += np.multiply(step, self.theta, out=step)
        self.moved = self.theta * spec.nu * increment
        self.P_prev = P

    def diverged(self, iterations: int, stalled: bool) -> FixedPointDiverged:
        return FixedPointDiverged(self.xgrid.n, iterations, self.increment, self.best,
                                  self.lipschitz, self.theta, stalled)


def fixed_point_solves(spec: ProblemSpec, tgrid: TemporalGrid,
                       xgrids: Sequence[SpatialGrid]) -> list:
    """Solve the discrete optimality system on the temporal grid tgrid and
    each spatial grid of xgrids by projected fixed-point iteration on the
    nodal co-state Q, which starts at -nu u_init.

    Each iteration projects U = clamp(-Q/nu), solves for the state Y and
    the co-state P, and stops once r = ||P - Q||_2 / nu over the interior
    nodes is below TOL; otherwise Q moves to Q + theta (P - Q).  The clamp
    is 1-Lipschitz and -Q/nu is piecewise linear in x, so r bounds
    |U - clamp(-P/nu)| at every point, kinks included.  A grid that
    reaches neither TOL within MAX_ITER iterations nor a new minimum of r
    within STALL raises FixedPointDiverged, which names its n.

    The damping picks itself.  P is affine in U with the self-adjoint
    positive semidefinite linear part S*S, and U = clamp(-Q/nu) is monotone
    and 1-Lipschitz in Q, so the linearised map Q -> P has its eigenvalues
    in [-L, 0], L = ||S*S||/nu.  theta = 2/(2+L) maps them into
    [-L/(2+L), L/(2+L)]: a contraction at every nu.  The first iteration
    takes theta = 1; each later one estimates L by the latest secant ratio
    ||P_k - P_{k-1}|| / ||Q_k - Q_{k-1}||, whose denominator is the step
    theta nu r just taken.

    Both marches stay in the sine basis, where the mass matrix is the
    diagonal mu: the state march returns Z = mu Y^, so the co-state's
    source is tau (Z - yd^).  Each sine mode marches on its own, so the
    grids iterate in lockstep with their own Q, damping and stop test, and
    their coefficients sit side by side in one array: an iteration takes
    one forward and one adjoint march for all of them, and per grid two
    transforms, of the control loads and of P.  A grid's accepted iteration
    alone takes the cost, tracking as
    sum_k tau_k (Y^_k.Z_k - 2 Y^_k.yd^ + ||yd||^2), and returns Y to nodes;
    its columns then hold zeros, which the marches keep, until the last
    grid stops.

    Returns the (U, Y, P, CostReport) of each grid's accepted iteration, in
    the order of xgrids.
    """
    bad = validate(spec)
    if bad:
        raise ValueError(f"invalid problem spec, offending fields: {', '.join(bad)}")
    if not xgrids:
        raise ValueError("xgrids is empty: give at least one spatial grid")
    if tgrid.nodes[0] != 0.0 or tgrid.nodes[-1] != spec.T:
        raise ValueError(f"the temporal grid spans ({tgrid.nodes[0]}, {tgrid.nodes[-1]}), "
                         f"not (0, T = {spec.T})")
    B = assemble_coupling(tgrid, spec.alpha)
    moments = source_moments(tgrid, spec.alpha)
    plan = march_plan(B, np.concatenate([assemble_mass(xg).eigenvalues() for xg in xgrids]),
                      np.concatenate([assemble_stiffness(xg).eigenvalues() for xg in xgrids]))
    yd_hat = np.concatenate([sine_transform(load_descriptor(xg, spec.yd)) for xg in xgrids])
    mu, widths = plan.mu, tgrid.widths
    u_init = min(max(0.0, spec.u_lo), spec.u_hi)  # finite for a one-sided box
    grids, start = [], 0
    for xg in xgrids:
        cols = slice(start, start + xg.num_interior)
        start = cols.stop
        grids.append(_GridSolve(spec, tgrid, xg, cols,
                                sine_transform(load_descriptor(xg, spec.y0)), yd_hat[cols],
                                np.full((tgrid.num_slabs, xg.num_interior), -spec.nu * u_init)))

    Z = np.empty((tgrid.num_slabs, mu.size))  # the sources, then mu Y^
    for iterations in range(1, MAX_ITER + 1):
        live = [g for g in grids if g.result is None]
        for g in live:
            g.U = project_admissible(SpaceTimeField(tgrid, g.xgrid, g.Q),
                                     spec.nu, spec.u_lo, spec.u_hi)
            Z[:, g.cols] = sine_transform(state_source(g.U, None, moments).values,
                                          overwrite=True)
        # made after the loads, so that it never sits beside their temporaries
        work = np.empty_like(Z)  # the y0 forcing, the co-state march, then P - Q
        for g in live:
            Z[:, g.cols] += np.multiply.outer(moments.values, g.y0_hat, out=work[:, g.cols])
        march(plan, Z)
        np.subtract(Z[::-1], yd_hat, out=work)  # the co-state marches on reversed time
        work *= widths[::-1, None]
        march(plan, work, adjoint=True)
        for g in live:
            P = sine_transform(np.divide(work[::-1, g.cols], mu[g.cols]), overwrite=True)
            g.take(P, work[:, g.cols], Z[:, g.cols], mu[g.cols], iterations)
        del work  # freed before the next iteration's loads
        if all(g.result is not None for g in grids):
            return [g.result for g in grids]
    raise next(g for g in grids if g.result is None).diverged(MAX_ITER, stalled=False)


def fixed_point_solve(spec: ProblemSpec, tgrid: TemporalGrid, xgrid: SpatialGrid):
    """`fixed_point_solves` on the one spatial grid xgrid: the (U, Y, P,
    CostReport) of its accepted iteration."""
    return fixed_point_solves(spec, tgrid, (xgrid,))[0]


def optimality_residual(U: ControlField, P: SpaceTimeField, spec: ProblemSpec) -> float:
    """Max over space-time of |U - clamp(-P/nu)|.

    Zero at the exact discrete solution; equivalent to the variational
    inequality for the box set.  On each element both clamps are linear
    between the nodes and their kinks, so their difference is too, and its
    modulus peaks at a node or at a kink of either control: only those
    points are evaluated.
    """
    V = project_admissible(P, spec.nu, spec.u_lo, spec.u_hi)
    d = np.clip(V.w, V.u_lo, V.u_hi)
    d -= np.clip(U.w, U.u_lo, U.u_hi)
    k, e, s = (np.concatenate(pair) for pair in zip(U._kinks[:3], V._kinks[:3]))
    x = _cut_abscissae(U.xgrid.nodes, e, s)
    at_kinks = np.abs(U._values_at(k, x) - V._values_at(k, x))
    return max(float(np.max(np.abs(d, out=d))), float(np.max(at_kinks, initial=0.0)))
