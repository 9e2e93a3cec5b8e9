"""Discrete solution operators by causal block substitution.

A space-time field is constant in time on each slab and piecewise linear in
space, so testing the fractional form against slab-k indicators times hat
functions turns the forward problem into a lower-triangular block system:

    (B[k][k] M + tau_k K) Y_k = src_k - sum_{j<k} B[k][j] M Y_j,

marched for k = 1..2M.  The adjoint operator transposes the temporal
coupling; reversing time makes it lower triangular again, so both solves
run through the same march.

The spatial grid is uniform with Dirichlet conditions, so M and K are
tridiagonal Toeplitz and share the DST-I eigenvectors sin(i pi x): in that
basis every slab solve is one elementwise division.  The march takes the
coupling in panels of PANEL rows generated from the closed form; a panel's
history is one matrix product against the rows already solved, and only
the work inside a panel is sequential.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fem import TriDiagonalOperator, NodalFunction, assemble_mass, load_descriptor
from .fracops import KernelMoments, TemporalCouplingMatrix
from .mesh import SpatialGrid, TemporalGrid
from .problem import FunctionDescriptor
from scipy.fft import dst

__all__ = [
    "SpaceTimeField",
    "SourceTerm",
    "apply_forward",
    "apply_adjoint",
    "state_source",
    "adjoint_source",
    "check_adjoint_identity",
    "field_inner",
]

# coupling rows generated and marched together; 256 rows were slower at
# 2M = 2048 and raised peak memory by 15% through the panel temporaries
PANEL = 64


@dataclass(frozen=True)
class SpaceTimeField:
    """Per-slab interior nodal coefficients: shape (2M, n-1)."""

    tgrid: TemporalGrid
    xgrid: SpatialGrid
    values: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class SourceTerm:
    """Time-integrated loads per slab: src_k[i] = int_slab <g(t), phi_i> dt."""

    tgrid: TemporalGrid
    xgrid: SpatialGrid
    values: np.ndarray = field(repr=False)


def _check_grids(*objs) -> tuple[TemporalGrid, SpatialGrid]:
    tg, xg = objs[0].tgrid, objs[0].xgrid
    for o in objs[1:]:
        if o.tgrid is not tg and not np.array_equal(o.tgrid.nodes, tg.nodes):
            raise ValueError("temporal grids do not match")
        if o.xgrid is not xg and o.xgrid.n != xg.n:
            raise ValueError("spatial grids do not match")
    return tg, xg


def _check_coupling(B: TemporalCouplingMatrix, src: SourceTerm) -> None:
    if B.grid is not src.tgrid and not np.array_equal(B.grid.nodes, src.tgrid.nodes):
        raise ValueError("coupling matrix and source live on different grids")


def _sine_eigenvalues(op: TriDiagonalOperator) -> np.ndarray:
    """Eigenvalues of a constant-diagonal tridiagonal operator on the DST-I
    modes i = 1..m."""
    d, s = op.diag, op.sup
    if np.any(d != d[0]) or np.any(s != s[:1]):
        raise ValueError("the sine-basis march needs operators with constant diagonals")
    m = d.size
    off = s[0] if m > 1 else 0.0
    return d[0] + 2.0 * off * np.cos(np.arange(1, m + 1) * np.pi / (m + 1))


def _march(panel, tau: np.ndarray, mass: TriDiagonalOperator,
           stiffness: TriDiagonalOperator, src: np.ndarray) -> np.ndarray:
    """Solve sum_{j<=k} L[k][j] M X_j + tau_k K X_k = src_k for k in causal
    order, where panel(k0, k1) returns rows k0..k1-1, columns 0..k1-1 of the
    lower-triangular L (slabs 0-indexed)."""
    mu = _sine_eigenvalues(mass)
    kappa = _sine_eigenvalues(stiffness)
    rhs = dst(src, type=1, norm="ortho", axis=1)
    K = rhs.shape[0]
    X = np.empty_like(rhs)
    for k0 in range(0, K, PANEL):
        k1 = min(k0 + PANEL, K)
        L = panel(k0, k1)
        R = rhs[k0:k1] - mu * (L[:, :k0] @ X[:k0])
        for i, k in enumerate(range(k0, k1)):
            X[k] = (R[i] - mu * (L[i, k0:k] @ X[k0:k])) / (L[i, k] * mu + tau[k] * kappa)
    return dst(X, type=1, norm="ortho", axis=1)


def apply_forward(B: TemporalCouplingMatrix, mass: TriDiagonalOperator,
                  stiffness: TriDiagonalOperator, src: SourceTerm) -> SpaceTimeField:
    """March the forward operator slab by slab in causal order."""
    _check_coupling(B, src)
    Y = _march(lambda k0, k1: B.block(k0, k1, 0, k1), src.tgrid.widths,
               mass, stiffness, src.values)
    return SpaceTimeField(tgrid=src.tgrid, xgrid=src.xgrid, values=Y)


def apply_adjoint(B: TemporalCouplingMatrix, mass: TriDiagonalOperator,
                  stiffness: TriDiagonalOperator, src: SourceTerm) -> SpaceTimeField:
    """March the adjoint operator: the transposed coupling on reversed time."""
    _check_coupling(B, src)
    K = src.tgrid.num_slabs
    P = _march(lambda k0, k1: B.block(K - k1, K, K - k1, K - k0)[::-1, ::-1].T,
               src.tgrid.widths[::-1], mass, stiffness, src.values[::-1])
    return SpaceTimeField(tgrid=src.tgrid, xgrid=src.xgrid, values=P[::-1])


def state_source(U, y0_proj: NodalFunction | None, moments: KernelMoments,
                 mass: TriDiagonalOperator) -> SourceTerm:
    """Right side of the state solve: slab loads of the control plus the
    kernel-moment forcing of the (projected) initial datum."""
    tg = moments.grid
    if U is None:
        raise ValueError("control term must be a field (possibly zero-valued)")
    if hasattr(U, "spatial_loads"):  # kink-aware control
        xg = U.xgrid
        vals = tg.widths[:, None] * U.spatial_loads()
    else:  # member of the discrete space: loads are exact mass actions
        xg = U.xgrid
        if U.tgrid.num_slabs != tg.num_slabs:
            raise ValueError("control and moments live on different grids")
        vals = tg.widths[:, None] * mass.apply(U.values)
    if y0_proj is not None:
        vals = vals + moments.values[:, None] * mass.apply(y0_proj.coeffs)
    return SourceTerm(tgrid=tg, xgrid=xg, values=vals)


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
