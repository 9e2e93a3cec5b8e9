"""Temporal coupling weights for the fractional bilinear form.

For piecewise-constant test/trial functions on the slabs, the pairing of the
left-sided half derivative of a trial indicator with the right-sided half
derivative of a test indicator reduces, through the duality identity for
Riemann-Liouville operators, to second differences of w(s) = max(s,0)^(1-a):

    B[k][j] = [w(t_k - t_{j-1}) - w(t_k - t_j)
               - w(t_{k-1} - t_{j-1}) + w(t_{k-1} - t_j)] / Gamma(2-a).

This closed form is exact, lower triangular (indicators supported after slab
k do not couple) and needs no singular quadrature.  Nothing is stored:
`TemporalCouplingMatrix.block` evaluates w on the node rectangle of any
panel of rows and columns and returns its second difference.  A solver
takes only the near field from it, the diagonal and the columns next to it.

Away from the diagonal (j <= k-2) the weight is a smooth double integral,

    B[k][j] = c int_{slab k} int_{slab j} (t - s)^(-1-a) ds dt,
    c = -a / Gamma(1-a),

which `exp_sum` turns into sums of exponentials: with
(t - s)^(-1-a) ~ sum_q omega_q exp(-lam_q (t - s)) each term factorises
into one integral per slab, so the far field of a march is carried by
running sums instead of by the whole triangle.
The quadrature oracle below integrates the half-derivative products directly
and exists solely to certify the identity numerically.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .mesh import TemporalGrid

__all__ = [
    "TemporalCouplingMatrix",
    "KernelMoments",
    "OracleToleranceError",
    "assemble_coupling",
    "exp_sum",
    "half_derivative_oracle",
    "source_moments",
]

ORACLE_MAX_SLABS = 64
ORACLE_ABS_TOL = 1e-10

# exp_sum: trapezoid step, and the cut-offs of the terms it keeps
SOE_STEP = 0.25
SOE_MAX_DECAY = 45.0
SOE_MIN_WEIGHT = 1e-18


class OracleToleranceError(RuntimeError):
    """Quadrature could not certify the requested absolute tolerance."""


@dataclass(frozen=True)
class TemporalCouplingMatrix:
    """Lower-triangular coupling weights, generated from the closed form.

    Nothing is stored: ``block`` evaluates any rectangle of B on demand, so
    a caller holds only the panel it is working on.
    """

    alpha: float
    grid: TemporalGrid

    def block(self, k0: int, k1: int, j0: int, j1: int) -> np.ndarray:
        """Rows k0..k1-1 and columns j0..j1-1 of B, slabs 0-indexed.

        The second difference of W[a, b] = w(t_a - t_b) over the node
        rectangle; entries above the diagonal come out exactly zero.
        """
        t = self.grid.nodes
        W = np.maximum(t[k0 : k1 + 1, None] - t[None, j0 : j1 + 1], 0.0) ** (1.0 - self.alpha)
        return (W[1:, :-1] - W[1:, 1:] - W[:-1, :-1] + W[:-1, 1:]) * (1.0 / math.gamma(2.0 - self.alpha))

    def diagonal(self) -> np.ndarray:
        """B[k][k] = w(tau_k) / Gamma(2-a) for every slab, as `block` forms it."""
        return np.diff(self.grid.nodes) ** (1.0 - self.alpha) * (1.0 / math.gamma(2.0 - self.alpha))

    def entry(self, k: int, j: int) -> float:
        """B[k][j], slabs 1-indexed."""
        K = self.grid.num_slabs
        if not (1 <= k <= K and 1 <= j <= K):
            raise IndexError(f"slab indices ({k}, {j}) out of range")
        return float(self.block(k - 1, k, j - 1, j)[0, 0])

    def dense(self) -> np.ndarray:
        K = self.grid.num_slabs
        return self.block(0, K, 0, K)

    def row_sums(self) -> np.ndarray:
        return self.dense().sum(axis=1)


def assemble_coupling(grid: TemporalGrid, alpha: float) -> TemporalCouplingMatrix:
    """The coupling weights for the given grid and order."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    return TemporalCouplingMatrix(alpha=float(alpha), grid=grid)


def exp_sum(alpha: float, tmin: float, T: float) -> tuple[np.ndarray, np.ndarray]:
    """Rates lam (ascending) and weights omega with
    sum_q omega_q exp(-lam_q t) = t^(-1-alpha) for t in [tmin, T].

    The trapezoid rule, step 0.25, for t^(-b) = int p^(b-1) e^(-pt) dp / Gamma(b)
    after the substitution p = exp(x - e^(-x)) (McLean, "Exponential sum
    approximations for t^(-beta)", 2018), which makes the integrand decay
    doubly exponentially as x -> -inf.  A term is kept while lam tmin < 45
    and omega T^(1+alpha) > 1e-18; the relative error is about 6e-15 over
    26 decades (alpha = 0.8, tmin = 2.6e-26, T = 1: 263 terms).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    if not 0.0 < tmin <= T:
        raise ValueError(f"need 0 < tmin <= T, got tmin={tmin}, T={T}")
    b = 1.0 + alpha
    # p(-6) = e^-409: every weight below that is far under the cut-off
    x = SOE_STEP * np.arange(math.floor(-6.0 / SOE_STEP),
                             math.ceil((math.log(SOE_MAX_DECAY / tmin) + 1.0) / SOE_STEP) + 1)
    e = np.exp(-x)
    lam = np.exp(x - e)
    omega = SOE_STEP / math.gamma(b) * np.exp(b * (x - e)) * (1.0 + e)
    keep = (lam * tmin < SOE_MAX_DECAY) & (omega * T ** b > SOE_MIN_WEIGHT)
    return lam[keep], omega[keep]


@dataclass(frozen=True)
class KernelMoments:
    """Slab integrals of the power kernel t^(-a)/Gamma(1-a): the forcing
    weights produced by a constant-in-time initial datum."""

    alpha: float
    grid: TemporalGrid
    values: np.ndarray = field(repr=False)


def source_moments(grid: TemporalGrid, alpha: float) -> KernelMoments:
    """m_k = (t_k^(1-a) - t_{k-1}^(1-a)) / Gamma(2-a)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    e = 1.0 - alpha
    t = grid.nodes
    vals = (t[1:] ** e - t[:-1] ** e) / math.gamma(2.0 - alpha)
    return KernelMoments(alpha=float(alpha), grid=grid, values=vals)


def half_derivative_oracle(grid: TemporalGrid, alpha: float, j: int, k: int) -> float:
    """Numerically integrate the product of exact half derivatives of the
    slab indicators j (left-sided) and k (right-sided).

    Test-support operation for small grids; adaptive quadrature with the
    integration range split at every singular abscissa, absolute tolerance
    1e-10.  Independent of the closed-form assembly.
    """
    K = grid.num_slabs
    if K > ORACLE_MAX_SLABS:
        raise ValueError(f"oracle supports at most {ORACLE_MAX_SLABS} slabs, grid has {K}")
    if not (1 <= j <= K and 1 <= k <= K):
        raise IndexError(f"slab indices ({j}, {k}) out of range")
    if j > k:
        return 0.0
    # imported here so that `import fracctrl` does not load scipy.integrate; only tests call this oracle
    from scipy.integrate import quad

    a2 = 0.5 * alpha
    inv_g2 = 1.0 / math.gamma(1.0 - a2) ** 2
    t = grid.nodes
    tjm, tj = t[j - 1], t[j]
    tkm, tk = t[k - 1], t[k]

    def integrand(s: float) -> float:
        left = (s - tjm) ** (-a2) if s > tjm else 0.0
        if s > tj:
            left -= (s - tj) ** (-a2)
        right = (tk - s) ** (-a2) if s < tk else 0.0
        if s < tkm:
            right -= (tkm - s) ** (-a2)
        return left * right * inv_g2

    # the product is supported on (t_{j-1}, t_k); split at interior kinks
    pts = sorted({tjm, tj, tkm, tk})
    pts = [p for p in pts if tjm <= p <= tk]
    total = 0.0
    err_budget = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for a_, b_ in zip(pts[:-1], pts[1:]):
            if b_ <= a_:
                continue
            val, err = quad(integrand, a_, b_, epsabs=ORACLE_ABS_TOL / 8.0,
                            epsrel=1e-12, limit=300)
            total += val
            err_budget += err
    if err_budget > ORACLE_ABS_TOL:
        raise OracleToleranceError(
            f"quadrature error estimate {err_budget:.2e} exceeds {ORACLE_ABS_TOL:.0e} "
            f"for slabs ({j}, {k})")
    return total
