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
from .solver import PANEL, SpaceTimeField, march, march_plan

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

# values of a control's w that one block of its crossing masks, its norm
# or the fixed point's loads takes at a time: their temporaries stay small
# beside the fields
BLOCK = 1 << 15


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
        return _crossings(self.w, self.u_lo, self.u_hi)

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
        """Exact squared norm over space-time (`_norm_sq`)."""
        blocks = ((ks, self.w[ks]) for ks in _row_blocks(*self.w.shape))
        return _norm_sq(self.tgrid.widths, self.xgrid.h, self.u_lo, self.u_hi, blocks)

    def sample_lattice(self, ts, xs) -> np.ndarray:
        """Values on a (t, x) lattice; piecewise constant in t."""
        ks = np.searchsorted(self.tgrid.nodes, ts, side="right") - 1
        return self._values_at(np.clip(ks, 0, self.tgrid.num_slabs - 1)[:, None], xs)

    def _values_at(self, k, x) -> np.ndarray:
        """clip(np.interp(x, nodes, w[k]), u_lo, u_hi) for broadcast arrays k
        (0-based) and x."""
        return _interp_clip(self.xgrid.nodes, self.w, self.u_lo, self.u_hi, k, x)


def _row_blocks(rows: int, width: int) -> list:
    """Slices of `rows` rows of `width` values, BLOCK values or one row
    each, the last one shorter."""
    step = max(1, BLOCK // width)
    return [slice(k0, min(k0 + step, rows)) for k0 in range(0, rows, step)]


def _crossings(w: np.ndarray, lo: float, hi: float) -> tuple:
    """(row, element, local cut s in [0, 1], bound) of every point where the
    linear interpolant of a row of w strictly crosses lo or hi, ordered by
    row, element and s; the masks cover one block of rows at a time."""
    n, cols = w.shape[1] - 1, []
    for b in (lo, hi):  # nothing crosses an infinite bound
        for ks in _row_blocks(*w.shape):
            wb = w[ks]
            below, above = wb < b, wb > b
            cross = below[:, :-1] & above[:, 1:]
            cross |= above[:, :-1] & below[:, 1:]
            k, e = np.divmod(np.flatnonzero(cross), n)
            wl = wb[k, e]
            cols.append((k + ks.start, e, (b - wl) / (wb[k, e + 1] - wl), np.full(k.size, b)))
    k, e, s, b = map(np.concatenate, zip(*cols))
    order = np.lexsort((s, e, k))
    return k[order], e[order], s[order], b[order]


def _norm_sq(widths: np.ndarray, h: float, lo: float, hi: float, blocks) -> float:
    """Exact squared L2(L2) norm of the control clamp(w) onto [lo, hi] from
    its rows w, given as (slabs, w[slabs]) block by block in slab order:
    sum_k tau_k c_k^T M c_k for the nodal clamp c, plus int U^2 - (I_h U)^2
    on the kinked elements.  No temporary outgrows a block."""
    nodal, slabs, kinked = np.empty(widths.size), [], []
    for ks, w in blocks:
        c = np.clip(w, lo, hi)
        cl, cr = c[:, :-1], c[:, 1:]
        nodal[ks] = np.einsum("ke,ke->k", cl, cl + cr) + np.einsum("ke,ke->k", cr, cr)
        k, _, s, u, iu = _kinked_elements(w, lo, hi)
        slabs.append(k + ks.start)
        kinked.append(_simpson(s, u - iu, u + iu))
    kinked = float(widths[np.concatenate(slabs)] @ np.concatenate(kinked))
    return h * (float(widths @ nodal) / 3.0 + kinked)


def _cut_abscissae(nodes: np.ndarray, e: np.ndarray, s: np.ndarray) -> np.ndarray:
    """x of the cuts at local abscissae s in elements e, each scaled by its
    own element's width: the nodes need not be uniform."""
    xl = nodes[e]
    return xl + (nodes[e + 1] - xl) * s


def _kinked_elements(w: np.ndarray, lo: float, hi: float) -> tuple:
    """(row, element, s, u, iu) of every kinked element of the control
    clamp(w) onto [lo, hi]: rows of the local abscissae [0, s1, s2, 1]
    (s1 = s2 for one cut), the control there, and the interpolant I_h U of
    its nodal values there.  U - I_h U is linear between the columns and
    zero at both nodes."""
    k, e, s, b = _crossings(w, lo, hi)
    key = k * w.shape[1] + e
    first, last = np.flatnonzero(np.diff(key, prepend=-1)), np.flatnonzero(np.diff(key, append=-1))
    k, e = k[first], e[first]
    c = np.clip(w[k[:, None], e[:, None] + (0, 1)], lo, hi)
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
    """Exact per-slab loads int U phi_i dx of the interior hats."""
    out = np.empty((U.tgrid.num_slabs, U.xgrid.num_interior))
    return _loads(U.xgrid, U.w, U.u_lo, U.u_hi, out, np.empty_like(out))


def _loads(xg: SpatialGrid, w: np.ndarray, lo: float, hi: float,
           out: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The loads of the control clamp(w) onto [lo, hi] on the slabs of the
    rows of w, written into out with t as the one temporary; out and t may
    be column views of wider arrays.

    The mass action on the nodal clamp c, plus the loads of U - I_h U on the
    kinked elements: linear between the cuts and zero at both nodes, so
    Simpson's rule integrates it against a hat exactly.
    """
    mass = assemble_mass(xg)
    # the mass stencil on c, whose ends are nonzero when the box excludes 0;
    # each neighbour is clamped into the temporary, so no copy of c is made
    np.clip(w[:, 1:-1], lo, hi, out=out)
    out *= mass.diag
    out += np.multiply(np.clip(w[:, 2:], lo, hi, out=t), mass.off, out=t)
    out += np.multiply(np.clip(w[:, :-2], lo, hi, out=t), mass.off, out=t)
    k, e, s, u, iu = _kinked_elements(w, lo, hi)
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
    of the group's sine coefficients, its two fields, the damping it
    measures, and its result once it stops.

    The fields are made once per solve: the iterate Q, and X, which holds
    the previous P and then P - Q.  The control clamp(-Q/nu) is formed for
    its loads a block of slabs at a time; the accepted iteration alone forms
    it whole, and returns Y on Q and P on X."""

    spec: ProblemSpec
    tgrid: TemporalGrid
    xgrid: SpatialGrid
    cols: slice
    y0_hat: np.ndarray
    yd_hat: np.ndarray
    Q: np.ndarray
    X: np.ndarray = field(init=False, repr=False)
    moved: float = math.nan     # ||Q_k - Q_{k-1}||
    increment: float = math.nan
    best: float = math.inf
    since_best: int = 0
    lipschitz: float = math.nan
    theta: float = 1.0
    result: tuple | None = None

    def __post_init__(self):
        self.X = np.empty_like(self.Q)

    def control_blocks(self):
        """The control clamp(-Q/nu) as (slabs, w[slabs]) a block of slabs at
        a time, w = -Q/nu with its zero ends, in one buffer."""
        blocks = _row_blocks(len(self.Q), self.xgrid.n + 1)
        panel = np.zeros((blocks[0].stop, self.xgrid.n + 1))
        for ks in blocks:
            w = panel[:ks.stop - ks.start]
            np.divide(self.Q[ks], -self.spec.nu, out=w[:, 1:-1])
            yield ks, w

    def source(self, out: np.ndarray) -> None:
        """The control's share of the state source, tau_k times the loads of
        slab k, written into out.  The loads of a block of slabs are formed
        in arrays of their own, so that only the last product writes to out,
        a column view of the group's march buffer."""
        lo, hi, widths = self.spec.u_lo, self.spec.u_hi, self.tgrid.widths
        for ks, w in self.control_blocks():
            load, t = np.empty((2, len(w), self.xgrid.num_interior))
            _loads(self.xgrid, w, lo, hi, load, t)
            np.multiply(load, widths[ks, None], out=out[ks])

    def take(self, P: np.ndarray, Z: np.ndarray, mu: np.ndarray, iterations: int) -> None:
        """Take the co-state P of iteration `iterations`, the grid's columns
        of the group's adjoint buffer; Z and mu are its columns of the state
        march (mu Y^) and of the mass eigenvalues.  Once r < TOL keep (U, Y,
        P, CostReport) and zero Z, which the marches then keep; otherwise
        raise on a stall, or move Q and keep P in X."""
        spec, Q, X = self.spec, self.Q, self.X
        # ||P - P_prev|| while X still holds P_prev, then P - Q into X
        change = float(np.linalg.norm(np.subtract(P, X, out=X))) if iterations > 1 else math.nan
        self.increment = increment = float(np.linalg.norm(np.subtract(P, Q, out=X))) / spec.nu
        if increment < TOL:
            self.result = self._accept(P, Z, mu, iterations)
            Z[...] = 0.0
            return
        self.best, self.since_best = ((increment, 0) if increment < self.best
                                      else (self.best, self.since_best + 1))
        if self.since_best == STALL:
            raise self.diverged(iterations, stalled=True)
        if iterations > 1:
            self.lipschitz = change / self.moved
            self.theta = 2.0 / (2.0 + self.lipschitz)
        Q += np.multiply(X, self.theta, out=X)
        self.moved = self.theta * spec.nu * increment
        np.copyto(X, P)

    def _accept(self, P: np.ndarray, Z: np.ndarray, mu: np.ndarray, iterations: int) -> tuple:
        """(U, Y, P, CostReport) of the accepted iteration.  The penalty is
        taken block by block, before U = clamp(-Q/nu) is formed whole; then
        Y is built in Q and P copied into X, both spent by now.  The cost
        tracks as sum_k tau_k (Y^_k.Z_k - 2 Y^_k.yd^ + ||yd||^2)."""
        spec, tgrid, xgrid = self.spec, self.tgrid, self.xgrid
        penalty = 0.5 * spec.nu * _norm_sq(tgrid.widths, xgrid.h, spec.u_lo, spec.u_hi,
                                           self.control_blocks())
        U = project_admissible(SpaceTimeField(tgrid, xgrid, self.Q), spec.nu, spec.u_lo, spec.u_hi)
        Yhat = np.divide(Z, mu, out=self.Q)
        tracking = _tracking(tgrid.widths, np.einsum("ki,ki->k", Yhat, Z),
                             Yhat @ self.yd_hat, spec.yd.l2_norm_sq())
        Y = SpaceTimeField(tgrid, xgrid, sine_transform(Yhat, overwrite=True))
        np.copyto(self.X, P)
        return (U, Y, SpaceTimeField(tgrid, xgrid, self.X),
                CostReport(tracking, penalty, tracking + penalty, iterations, self.increment))

    def diverged(self, iterations: int, stalled: bool) -> FixedPointDiverged:
        return FixedPointDiverged(self.xgrid.n, iterations, self.increment, self.best,
                                  self.lipschitz, self.theta, stalled)


def _reverse_rows(A: np.ndarray, buf: np.ndarray) -> None:
    """Reverse the rows of A in place, swapping len(buf) rows from each end
    at a time through buf."""
    K, half = A.shape[0], A.shape[0] // 2
    for i0 in range(0, half, buf.shape[0]):
        i1 = min(i0 + buf.shape[0], half)
        b = buf[:i1 - i0]
        np.copyto(b, A[i0:i1])
        A[i0:i1] = A[K - i1:K - i0][::-1]
        A[K - i1:K - i0] = b[::-1]


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
    alone takes the cost and returns Y to nodes; its columns then hold
    zeros, which the marches keep, until the last grid stops.

    The arrays of a field's size are made once per solve and reused by
    every iteration: per grid the iterate Q and X, which holds the previous
    P and then P - Q (see `_GridSolve`); for the group the march buffers Z
    and W.  The control's source is written into the grid's columns of Z a
    block of slabs at a time; the adjoint marches in W and is turned back
    into time order there; every sine transform overwrites the columns it
    reads.  So an iteration allocates no field.  The accepted iteration adds the control's nodal
    values w, and builds Y in Q and P in X: a solo solve peaks at five
    fields beside the march plan.

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

    Z, W = np.empty((2, tgrid.num_slabs, mu.size))  # mu Y^ and the co-state march
    rows = np.empty((PANEL, mu.size))  # W's rows on their way back to time order
    for iterations in range(1, MAX_ITER + 1):
        live = [g for g in grids if g.result is None]
        for g in live:
            z = Z[:, g.cols]
            g.source(z)
            sine_transform(z, overwrite=True)
            z += np.multiply.outer(moments.values, g.y0_hat, out=W[:, g.cols])
        march(plan, Z)
        np.subtract(Z[::-1], yd_hat, out=W)  # the co-state marches on reversed time
        W *= widths[::-1, None]
        march(plan, W, adjoint=True)
        _reverse_rows(W, rows)
        for g in live:
            P = W[:, g.cols]
            P /= mu[g.cols]
            sine_transform(P, overwrite=True)
            g.take(P, Z[:, g.cols], mu[g.cols], iterations)
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
