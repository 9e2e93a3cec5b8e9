"""Temporal and spatial grids.

The time interval (0, T) is partitioned into 2M slabs whose nodes cluster at
both endpoints according to two grading exponents: nodes on the left half
follow (j/M)^sigma1 * T/2, nodes on the right half mirror that law with
sigma2.  The spatial grid is a uniform partition of (0, 1) with homogeneous
Dirichlet conditions, so only interior nodes carry degrees of freedom.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "TemporalGrid",
    "SpatialGrid",
    "build_graded",
    "default_sigmas",
    "grading_exponents",
    "build_uniform_spatial",
    "merge_breakpoints",
]

# relative node-coincidence tolerance used when merging breakpoint sets
MERGE_RTOL = 1e-14


@dataclass(frozen=True)
class TemporalGrid:
    """Graded partition of (0, T) into 2M slabs; immutable after build."""

    M: int
    sigma1: float
    sigma2: float
    T: float
    nodes: np.ndarray = field(repr=False)
    widths: np.ndarray = field(repr=False)

    @property
    def num_slabs(self) -> int:
        return 2 * self.M


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform partition of (0, 1) into n cells; dofs are the n-1 interior nodes."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise ValueError(f"spatial cell count n must be an integer >= 2, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n + 1)

    @property
    def num_interior(self) -> int:
        return self.n - 1

    @property
    def interior(self) -> np.ndarray:
        return self.nodes[1:-1]


def build_graded(M: int, sigma1: float, sigma2: float, T: float) -> TemporalGrid:
    """Build the graded partition t_j = (j/M)^sigma1 T/2 (left half) and
    t_j = T - (2 - j/M)^sigma2 T/2 (right half).

    Nodes come straight from the closed formula, never cumulatively, so the
    grid is reproducible bit-for-bit from (M, sigma1, sigma2, T).
    """
    if not isinstance(M, (int, np.integer)) or M <= 1:
        raise ValueError(f"M must be an integer > 1, got {M!r}")
    if sigma1 < 1.0 or sigma2 < 1.0:
        raise ValueError(f"grading exponents must be >= 1, got ({sigma1}, {sigma2})")
    if T <= 0.0:
        raise ValueError(f"T must be positive, got {T}")
    j = np.arange(2 * M + 1, dtype=float)
    nodes = np.empty(2 * M + 1)
    nodes[: M + 1] = (j[: M + 1] / M) ** sigma1 * (T / 2.0)
    nodes[M + 1 :] = T - (2.0 - j[M + 1 :] / M) ** sigma2 * (T / 2.0)
    widths = np.diff(nodes)
    if not np.all(widths > 0.0):
        raise ValueError("graded nodes are not strictly increasing")
    return TemporalGrid(M=int(M), sigma1=float(sigma1), sigma2=float(sigma2),
                        T=float(T), nodes=nodes, widths=widths)


def default_sigmas(alpha: float, r: float) -> tuple[float, float]:
    """Grading exponents sigma1 = max{1, (2-a)/((2r-1)a+1)} and
    sigma2 = max{1, (2-a)/(a+1)}."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    if not 0.0 <= r < 1.0:
        raise ValueError(f"r must lie in [0,1), got {r}")
    den = (2.0 * r - 1.0) * alpha + 1.0
    if den <= 0.0:
        raise ValueError(f"degenerate grading denominator (2r-1)*alpha+1 = {den}")
    sigma1 = max(1.0, (2.0 - alpha) / den)
    sigma2 = max(1.0, (2.0 - alpha) / (alpha + 1.0))
    return sigma1, sigma2


def grading_exponents(alpha: float, r: float, sigma1: float | None = None,
                      sigma2: float | None = None) -> tuple[float, float]:
    """The default_sigmas of (alpha, r), each replaced by its override when
    one is given."""
    s1, s2 = default_sigmas(alpha, r)
    return (s1 if sigma1 is None else sigma1), (s2 if sigma2 is None else sigma2)


def build_uniform_spatial(n: int) -> SpatialGrid:
    return SpatialGrid(n)


def merge_breakpoints(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted union of two breakpoint arrays sharing both endpoints.

    Nodes closer than 1e-14 * span coalesce (graded nodes from different M
    do not nest exactly; merging without a tolerance would create zero-width
    slivers).  Commutative and idempotent.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.size < 2 or b.size < 2:
        raise ValueError("breakpoint arrays must be 1-d with at least two entries")
    if a[0] != b[0] or a[-1] != b[-1]:
        raise ValueError(f"endpoint mismatch: [{a[0]}, {a[-1]}] vs [{b[0]}, {b[-1]}]")
    span = a[-1] - a[0]
    tol = MERGE_RTOL * span
    merged = np.sort(np.concatenate([a, b]))
    keep = np.empty(merged.size, dtype=bool)
    keep[0] = True
    keep[1:] = np.diff(merged) > tol
    out = merged[keep]
    out[-1] = a[-1]  # keep the right endpoint exact
    return out
