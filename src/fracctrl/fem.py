"""Linear finite elements on the uniform Dirichlet grid of (0, 1).

Operators act on interior nodal coefficients only (boundary values are
eliminated): mass and stiffness are symmetric Toeplitz stencils, diagonal
in the DST-I basis of `sine_transform` with the diagonal `eigenvalues()`,
so the solver's slab solves are one division there.
Loads for the power-law family c x^a (1-x) are assembled from closed-form
monomial moments because fixed-order Gauss rules lose accuracy at the x^a
singularity; smooth sine data uses per-element Gauss quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import dst

from .mesh import SpatialGrid
from .problem import FunctionDescriptor, PowerLaw, SineCombo, TimeConstant, Zero

__all__ = [
    "TriDiagonalOperator",
    "assemble_mass",
    "assemble_stiffness",
    "load_powerlaw",
    "load_descriptor",
    "sine_transform",
]

# 8-point Gauss-Legendre on (-1, 1)
_G8_X = np.array([
    -0.9602898564975363, -0.7966664774136267, -0.5255324099163290,
    -0.1834346424956498, 0.1834346424956498, 0.5255324099163290,
    0.7966664774136267, 0.9602898564975363,
])
_G8_W = np.array([
    0.1012285362903763, 0.2223810344533745, 0.3137066458778873,
    0.3626837833783620, 0.3626837833783620, 0.3137066458778873,
    0.2223810344533745, 0.1012285362903763,
])


@dataclass(frozen=True)
class TriDiagonalOperator:
    """The symmetric Toeplitz stencil [off, diag, off] on `size` interior
    dofs."""

    size: int
    diag: float
    off: float

    def apply(self, v: np.ndarray) -> np.ndarray:
        """The operator on v, or on each row of v: one product and one
        temporary beside the result."""
        if np.shape(v)[-1] != self.size:
            raise ValueError(f"operator of size {self.size} applied to shape {np.shape(v)}")
        out = self.diag * v
        t = self.off * v[..., 1:]
        out[..., :-1] += t
        out[..., 1:] += np.multiply(self.off, v[..., :-1], out=t)
        return out

    def eigenvalues(self) -> np.ndarray:
        """Its eigenvalues on the DST-I modes sin(i pi x), i = 1..size; diag
        exactly for a single dof, which has no neighbour."""
        m = self.size
        off = self.off if m > 1 else 0.0
        return self.diag + 2.0 * off * np.cos(np.arange(1, m + 1) * np.pi / (m + 1))


def assemble_mass(grid: SpatialGrid) -> TriDiagonalOperator:
    return TriDiagonalOperator(grid.num_interior, 2.0 * grid.h / 3.0, grid.h / 6.0)


def assemble_stiffness(grid: SpatialGrid) -> TriDiagonalOperator:
    return TriDiagonalOperator(grid.num_interior, 2.0 / grid.h, -1.0 / grid.h)


def _moments(s: float, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # int_p^q x^s dx with s > -1
    return (q ** (s + 1.0) - p ** (s + 1.0)) / (s + 1.0)


def load_powerlaw(grid: SpatialGrid, c: float, a: float) -> np.ndarray:
    """Exact loads int c x^a (1-x) phi_i dx from monomial moments."""
    if a <= -1.0:
        raise ValueError(f"exponent must exceed -1 for integrability, got {a}")
    if c == 0.0:
        return np.zeros(grid.num_interior)
    h = grid.h
    x = grid.nodes
    i = np.arange(1, grid.n)
    xl, xm, xr = x[i - 1], x[i], x[i + 1]
    # rising piece: (1-x)(x - xl) = -x^2 + (1+xl) x - xl
    left = (-_moments(a + 2.0, xl, xm)
            + (1.0 + xl) * _moments(a + 1.0, xl, xm)
            - xl * _moments(a, xl, xm))
    # falling piece: (1-x)(xr - x) = x^2 - (1+xr) x + xr
    right = (_moments(a + 2.0, xm, xr)
             - (1.0 + xr) * _moments(a + 1.0, xm, xr)
             + xr * _moments(a, xm, xr))
    return (c / h) * (left + right)


def _load_sine(grid: SpatialGrid, k: int, c: float) -> np.ndarray:
    # int c sin(k pi x) phi_i dx by 8-point Gauss per element (exact beyond
    # the needed order for the smooth modes in play)
    x = grid.nodes
    mid = 0.5 * (x[:-1] + x[1:])
    half = 0.5 * grid.h
    pts = mid[:, None] + half * _G8_X[None, :]          # (n, 8)
    w = half * _G8_W[None, :]
    fvals = c * np.sin(k * math.pi * pts)
    rising = (pts - x[:-1, None]) / grid.h
    out = np.zeros(grid.n + 1)
    out[1:] += np.sum(w * fvals * rising, axis=1)       # phi at right node
    out[:-1] += np.sum(w * fvals * (1.0 - rising), axis=1)
    return out[1:-1]


def load_descriptor(grid: SpatialGrid, f: FunctionDescriptor) -> np.ndarray:
    if isinstance(f, TimeConstant):
        f = f.profile
    if isinstance(f, PowerLaw):
        return load_powerlaw(grid, f.c, f.a)
    if isinstance(f, SineCombo):
        out = np.zeros(grid.num_interior)
        for k, c in f.terms:
            out += _load_sine(grid, k, c)
        return out
    if isinstance(f, Zero):
        return np.zeros(grid.num_interior)
    raise ValueError(f"cannot assemble loads for descriptor {f!r}")


def sine_transform(a: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """The orthonormal DST-I along the last axis: nodal values to sine
    coefficients and back (it is its own inverse)."""
    return dst(a, type=1, norm="ortho", axis=-1, overwrite_x=overwrite)

