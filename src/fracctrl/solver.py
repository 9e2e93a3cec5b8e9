"""Discrete solution operators by causal block substitution.

A space-time field is constant in time on each slab and piecewise linear in
space, so testing the fractional form against slab-k indicators times hat
functions turns the forward problem into a lower-triangular block system:

    (B[k][k] M + tau_k K) Y_k = src_k - sum_{j<k} B[k][j] M Y_j,

marched for k = 1..2M.  The adjoint operator transposes the temporal
coupling; reversing time makes it lower triangular again, so both solves
run through the same march.  Their sources are loads: `state_source` takes
the control's and the initial datum's, `adjoint_source` the misfit's.

M and K are the Toeplitz stencils of `fem` and share the DST-I
eigenvectors sin(i pi x): in that basis (`fem.sine_transform`) every slab
solve is one elementwise division.  The march goes in panels of PANEL rows
and splits each panel's history in two:

* near field: the columns of the panel and the one before it, exact from
  the closed form (`TemporalCouplingMatrix.block`), solved row by row.  A
  row step is one GEMV and two in-place updates on views of per-march
  buffers that the panel is copied into, bound once, so it slices and
  allocates nothing: 1.7-1.9 us a row at n=128 on a 2-vCPU VM, against
  2.6-3.4 us for the same operations on fresh slices;
* far field: every earlier column, through the sum of exponentials of
  `fracops.exp_sum`.  Each term factorises per slab, so the far history of
  all earlier slabs is one state S of shape (Q, n-1), read by one matrix
  product per panel and updated by another once the panel is solved.

Every quantity that depends only on the grids (near blocks, far-field
weights, the diagonal solves' scales) sits in a `MarchPlan`, built once and
shared by all marches of a solve; `march` runs on sine coefficients in
place, so a caller that stays in that basis transforms only what it needs
at the nodes.  Only the scales depend on the sine modes, and each mode
marches on its own, so one plan and one march serve the modes of several
spatial grids side by side.  Beyond the fields, a march keeps
O((Q + PANEL) n) and the plan O(K (n + PANEL + Q)); work is
O(K (Q + PANEL) n).  A fixed-point solve (`control.fixed_point_solves`)
makes its fields once and marches in them: it peaks at the plan and five
fields of K (n - 1) values, 0.94 GB peak RSS at m=14, n=512.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .fem import TriDiagonalOperator, assemble_mass, load_descriptor, sine_transform
from .fracops import KernelMoments, TemporalCouplingMatrix, exp_sum
from .mesh import SpatialGrid, TemporalGrid
from .problem import FunctionDescriptor

__all__ = [
    "SpaceTimeField",
    "SourceTerm",
    "MarchPlan",
    "march_plan",
    "march",
    "sine_transform",
    "apply_forward",
    "apply_adjoint",
    "state_source",
    "adjoint_source",
    "check_adjoint_identity",
    "field_inner",
]

# coupling rows marched together: the near field of a panel is PANEL x
# (PANEL + 1) closed-form weights, its far field two products with the
# exponential-sum state
PANEL = 64

# exp(-x) is taken as exactly 0 beyond this argument (and never evaluated
# there: exp runs several times slower when its result underflows)
MAX_DECAY = 50.0


@dataclass(frozen=True)
class SpaceTimeField:
    """Per-slab interior values, shape (2M, n-1): nodal coefficients of a
    field, or, as a `SourceTerm`, its time-integrated loads
    src_k[i] = int_slab <g(t), phi_i> dt."""

    tgrid: TemporalGrid
    xgrid: SpatialGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        want = (self.tgrid.num_slabs, self.xgrid.num_interior)
        if np.shape(self.values) != want:
            raise ValueError(f"{type(self).__name__} values have shape "
                             f"{np.shape(self.values)}, its grids need {want}")


SourceTerm = SpaceTimeField


def _check_grids(*objs) -> tuple[TemporalGrid, SpatialGrid]:
    tg, xg = objs[0].tgrid, objs[0].xgrid
    for o in objs[1:]:
        if o.tgrid is not tg and not np.array_equal(o.tgrid.nodes, tg.nodes):
            raise ValueError("temporal grids do not match")
        if o.xgrid != xg:
            raise ValueError("spatial grids do not match")
    return tg, xg


def _check_coupling(B: TemporalCouplingMatrix, src: SourceTerm) -> None:
    if B.grid is not src.tgrid and not np.array_equal(B.grid.nodes, src.tgrid.nodes):
        raise ValueError("coupling matrix and source live on different grids")


def _decay(lam: np.ndarray, d: np.ndarray) -> np.ndarray:
    """exp(-lam d) on the outer product (d rows, lam columns), exactly 0
    where lam d >= MAX_DECAY."""
    a = np.multiply.outer(d, lam)
    out = np.exp(-np.minimum(a, MAX_DECAY))
    out[a >= MAX_DECAY] = 0.0
    return out


def _slab_integral(lam: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """int_0^tau exp(-lam s) ds = (1 - exp(-lam tau)) / lam on the outer
    product (tau rows, lam columns)."""
    return -np.expm1(-np.multiply.outer(tau, lam)) / lam


class _Panel(NamedTuple):
    """Temporal quantities of the panel of rows k0..k1-1 (marching order):
    the same for every sine mode."""

    k0: int
    k1: int
    near: np.ndarray   # columns k0..k1-1 of its rows of L, C-contiguous
    prev: np.ndarray   # column k0-1 of its rows (empty in the first panel)
    rows: np.ndarray   # far-field read: c omega_q a_q(k) exp(-lam_q (t_k - t_k0))
    fold: np.ndarray   # slabs j0..k1-2 into S at t_k1 (None in the last panel)
    decay: np.ndarray  # S from t_k0 to t_k1, one row per term it keeps


@dataclass(frozen=True)
class MarchPlan:
    """What the forward and the adjoint march need that depends only on the
    temporal grid, the order and the sine modes: panel by panel the
    temporal quantities, which hold for every mode, and per slab and mode
    the scale of the diagonal solve.  The modes may be those of several
    spatial grids side by side, as each column marches on its own.  Each
    direction is built on its first march and serves every later one; the
    two share the exponential sum and the diagonal solves.  See `march`."""

    B: TemporalCouplingMatrix
    mu: np.ndarray = field(repr=False)      # mass eigenvalues in the sine basis
    kappa: np.ndarray = field(repr=False)   # stiffness eigenvalues
    lam: np.ndarray = field(repr=False)     # far kernel: sum_q comega_q exp(-lam_q t)
    comega: np.ndarray = field(repr=False)

    @cached_property
    def scale(self) -> np.ndarray:
        """mu / (B_kk mu + tau_k kappa) per slab in time order; the adjoint
        reads it backwards, as reversed time has the same widths."""
        tau = self.B.grid.widths
        return self.mu / (self.B.diagonal()[:, None] * self.mu + tau[:, None] * self.kappa)

    @cached_property
    def forward(self) -> tuple:
        return self._panels(adjoint=False)

    @cached_property
    def adjoint(self) -> tuple:
        return self._panels(adjoint=True)

    def _panels(self, adjoint: bool) -> tuple:
        """The panels of one direction.  The adjoint is the transposed
        coupling on reversed time s = -t, whose nodes -t[::-1] are exact;
        T - t[::-1] would round the first slabs of a graded grid (4e-19
        wide) to nothing."""
        B, lam, comega = self.B, self.lam, self.comega
        K = B.grid.num_slabs
        nodes = -B.grid.nodes[::-1] if adjoint else B.grid.nodes
        tau = np.diff(nodes)
        panels = []
        q = 0  # terms the panel reads: S[q:] is zero
        for k0 in range(0, K, PANEL):
            k1 = min(k0 + PANEL, K)
            j0 = max(k0 - 1, 0)
            if adjoint:
                L = B.block(K - k1, K - j0, K - k1, K - k0)[::-1, ::-1].T
            else:
                L = B.block(k0, k1, j0, k1)
            prev, L = (np.ascontiguousarray(L[:, 0]), L[:, 1:]) if k0 > 0 else (L[:0, 0], L)
            rows = comega[:q] * _decay(lam[:q], nodes[k0:k1] - nodes[k0]) \
                * _slab_integral(lam[:q], tau[k0:k1])
            fold = decay = None
            if k1 < K:
                q = int(np.count_nonzero(lam * tau[k1 - 1] < MAX_DECAY))
                lq = lam[:q]
                fold = _decay(lq, nodes[k1] - nodes[j0 + 1:k1]) * _slab_integral(lq, tau[j0:k1 - 1])
                decay = _decay(lq, nodes[k1:k1 + 1] - nodes[k0]).T
            panels.append(_Panel(k0, k1, np.ascontiguousarray(L), prev, rows, fold, decay))
        return tuple(panels)


def march_plan(B: TemporalCouplingMatrix, mu: np.ndarray, kappa: np.ndarray) -> MarchPlan:
    """The plan of both marches for the coupling B on the sine modes whose
    mass and stiffness eigenvalues are mu and kappa (`eigenvalues()` of the
    stencils, or those of several grids concatenated)."""
    tau = B.grid.widths
    lam, omega = exp_sum(B.alpha, float(tau.min()), float(B.grid.nodes[-1] - B.grid.nodes[0]))
    return MarchPlan(B=B, mu=mu, kappa=kappa,
                     lam=lam, comega=-B.alpha / math.gamma(1.0 - B.alpha) * omega)


def march(plan: MarchPlan, Z: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """Solve sum_{j<=k} L[k][j] M X_j + tau_k K X_k = src_k for k in causal
    order (slabs 0-indexed) in the sine basis, in place: Z holds the sine
    coefficients of the sources, float64 rows in marching order, and is
    overwritten with Z_k = mu X_k.  L is the plan's coupling, or on reversed
    time its transpose (`adjoint`); for j <= k-2,
    L[k][j] = c int_{slab k} int_{slab j} (t - s)^(-1-alpha).

    With the far kernel written as sum_q omega_q exp(-lam_q (t - s)), the
    state S_q = sum_{j<=k0-2} exp(-lam_q (t_k0 - t_{j+1})) a_q(j) Z_j, where
    a_q(j) = int_{slab j} exp(-lam_q (t_{j+1} - s)) ds, gives row k of a
    panel its far history c sum_q omega_q a_q(k) exp(-lam_q (t_k - t_k0)) S_q.
    A term with lam_q tau_{k0-1} >= MAX_DECAY has S_q = 0 exactly, so each
    panel reads and updates only the terms below that.

    Each panel is copied into buffers made once per march: its rows W, its
    near block LB and its scales SC, with T for the products.  The operands
    of every row step are views of these, bound once, so a row step is one
    GEMV into T[i] and two in-place updates of W[i], with nothing sliced or
    allocated.  The far-field read and the fold write into the same
    buffers, and every operation is the one of a plain row loop
    (r -= L[i, :i] @ R[:i]; r *= scale) in the same order, so the result
    has the same bits.
    """
    want = (plan.B.grid.num_slabs, plan.mu.size)
    if Z.shape != want:
        raise ValueError(f"march of shape {Z.shape} on a plan for {want}")
    if Z.dtype != np.float64:
        raise ValueError(f"march of dtype {Z.dtype}: the sine coefficients must be float64")
    panels = plan.adjoint if adjoint else plan.forward
    scale = plan.scale[::-1] if adjoint else plan.scale
    S = np.zeros((plan.lam.size, Z.shape[1]))
    folded = max((p.decay.shape[0] for p in panels if p.fold is not None), default=0)
    W, SC = np.empty((2, PANEL, Z.shape[1]))
    T = np.empty((max(PANEL, folded), Z.shape[1]))  # also the fold's product
    LB = np.zeros((PANEL, PANEL))
    steps = [(LB[i, :i].dot, W[:i], T[i], W[i], SC[i]) for i in range(PANEL)]
    for k0, k1, L, prev, rows, fold, decay in panels:
        p, q = k1 - k0, rows.shape[1]
        w, t, sc = W[:p], T[:p], SC[:p]
        np.copyto(w, Z[k0:k1])
        LB[:p, :p] = L
        if k0 > 0:
            np.multiply.outer(prev, Z[k0 - 1], out=t)
            if q:
                t += np.matmul(rows, S[:q], out=sc)
            w -= t
        np.copyto(sc, scale[k0:k1])
        for dot, before, prod, row, s in steps[:p]:
            dot(before, out=prod)
            row -= prod
            row *= s
        Z[k0:k1] = w
        if fold is not None:
            q_next = decay.shape[0]
            S[:q_next] *= decay
            S[:q_next] += np.matmul(fold.T, Z[max(k0 - 1, 0):k1 - 1], out=T[:q_next])
            S[q_next:q] = 0.0
    return Z


def _solve(B: TemporalCouplingMatrix, mass: TriDiagonalOperator,
           stiffness: TriDiagonalOperator, src: np.ndarray, adjoint: bool) -> np.ndarray:
    """Nodal solution of one march, on a plan of its own, for nodal sources."""
    plan = march_plan(B, mass.eigenvalues(), stiffness.eigenvalues())
    Z = march(plan, sine_transform(src), adjoint)
    Z /= plan.mu
    return sine_transform(Z, overwrite=True)


def apply_forward(B: TemporalCouplingMatrix, mass: TriDiagonalOperator,
                  stiffness: TriDiagonalOperator, src: SourceTerm) -> SpaceTimeField:
    """March the forward operator slab by slab in causal order."""
    _check_coupling(B, src)
    Y = _solve(B, mass, stiffness, src.values, adjoint=False)
    return SpaceTimeField(tgrid=src.tgrid, xgrid=src.xgrid, values=Y)


def apply_adjoint(B: TemporalCouplingMatrix, mass: TriDiagonalOperator,
                  stiffness: TriDiagonalOperator, src: SourceTerm) -> SpaceTimeField:
    """March the adjoint operator: the transposed coupling on reversed time."""
    _check_coupling(B, src)
    P = _solve(B, mass, stiffness, src.values[::-1], adjoint=True)
    return SpaceTimeField(tgrid=src.tgrid, xgrid=src.xgrid, values=P[::-1])


def state_source(U, y0: FunctionDescriptor | None, moments: KernelMoments) -> SourceTerm:
    """Right side of the state solve: the exact slab loads of the control U,
    a `control.ControlField`, plus the kernel-moment forcing of the loads of
    the initial datum y0; the mirror of `adjoint_source`."""
    vals = U.spatial_loads()
    vals *= moments.grid.widths[:, None]  # a fresh array
    if y0 is not None:
        vals += np.multiply.outer(moments.values, load_descriptor(U.xgrid, y0))
    return SourceTerm(tgrid=moments.grid, xgrid=U.xgrid, values=vals)


def adjoint_source(Y: SpaceTimeField, yd: FunctionDescriptor | None) -> SourceTerm:
    """Right side of the co-state solve: slab loads of the misfit Y - yd
    for a time-constant target."""
    vals = assemble_mass(Y.xgrid).apply(Y.values)
    if yd is not None:
        vals = vals - load_descriptor(Y.xgrid, yd)
    return SourceTerm(tgrid=Y.tgrid, xgrid=Y.xgrid,
                      values=Y.tgrid.widths[:, None] * vals)


def field_inner(a: SpaceTimeField, b: SpaceTimeField, mass: TriDiagonalOperator) -> float:
    """Space-time inner product sum_k tau_k a_k^T M b_k."""
    tg, _ = _check_grids(a, b)
    return float(np.sum(tg.widths * np.einsum("ki,ki->k", a.values, mass.apply(b.values))))


def check_adjoint_identity(B: TemporalCouplingMatrix, mass: TriDiagonalOperator,
                           stiffness: TriDiagonalOperator,
                           g1: SpaceTimeField, g2: SpaceTimeField) -> float:
    """|(S g1, g2) - (g1, S* g2)|, an exact algebraic identity up to roundoff."""
    tg, xg = _check_grids(g1, g2)
    src1 = SourceTerm(tg, xg, tg.widths[:, None] * mass.apply(g1.values))
    src2 = SourceTerm(tg, xg, tg.widths[:, None] * mass.apply(g2.values))
    a = field_inner(apply_forward(B, mass, stiffness, src1), g2, mass)
    b = field_inner(g1, apply_adjoint(B, mass, stiffness, src2), mass)
    return abs(a - b)
