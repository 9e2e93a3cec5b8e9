"""The benchmark's workloads: inputs made from a seed, one operation, and
the checks on the operation's outputs.  Each operation runs in a fresh
process, so no operation reads a cache that an earlier one filled.

Every check is computed by the benchmark itself (its own mass action, its
own clamp, its own quadrature, scipy's erfcx) or tests a property the
method must have; none compares against stored output.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfcx

from fracctrl import control, fem, fracops, harness, mesh, mittag, problem, solver

# acceptance criterion 5 bands for (alpha, r) = (0.8, 0): last-row orders
STUDY_BANDS = {"Y": (1.31, 0.2), "P": (1.9, 0.25), "U": (1.9, 0.25)}
# 4-point Gauss-Legendre nodes on (-1, 1), as the forward sweep uses them
GAUSS4_X = np.array([-0.8611363115940526, -0.3399810435848563,
                     0.3399810435848563, 0.8611363115940526])


def mass_apply(h: float, v: np.ndarray) -> np.ndarray:
    """P1 mass matrix (h/6)[1 4 1] on interior nodes with zero boundary
    values, applied along the last axis."""
    out = 4.0 * v
    out[..., 1:] += v[..., :-1]
    out[..., :-1] += v[..., 1:]
    return out * (h / 6.0)


def with_boundary(values: np.ndarray) -> np.ndarray:
    """Nodal values including the two zero boundary nodes."""
    out = np.zeros(values.shape[:-1] + (values.shape[-1] + 2,))
    out[..., 1:-1] = values
    return out


def interp_uniform(nodal: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Piecewise-linear interpolation of nodal rows (..., n+1) on the
    uniform grid of [0, 1] at abscissae x."""
    n = nodal.shape[-1] - 1
    s = x * n
    e = np.minimum(s.astype(int), n - 1)
    lam = s - e
    return nodal[..., e] * (1.0 - lam) + nodal[..., e + 1] * lam


def clamp(P_nodal: np.ndarray, x: np.ndarray, spec) -> np.ndarray:
    """clip(-P/nu, u_lo, u_hi) at abscissae x."""
    return np.clip(-interp_uniform(P_nodal, x) / spec.nu, spec.u_lo, spec.u_hi)


class OcpM10:
    """One fixed-point solve of the reference instance, alpha=0.8, r=0,
    m=10 (2M=2048 slabs), n=128."""

    name = "ocp-m10"

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.spec = problem.default_experiment_spec(0.8, 0.0)
        s1, s2 = mesh.default_sigmas(0.8, 0.0)
        self.tgrid = mesh.build_graded(2 ** 10, s1, s2, 1.0)
        self.xgrid = mesh.build_uniform_spatial(128)
        self.mids = 0.5 * (self.tgrid.nodes[:-1] + self.tgrid.nodes[1:])
        # dense sample: the nodes plus 8 seeded points in every element
        n, h = self.xgrid.n, self.xgrid.h
        sub = self.rng.uniform(0.0, 1.0, size=(n, 8))
        self.dense = np.sort(np.concatenate([self.xgrid.nodes, ((np.arange(n)[:, None] + sub) * h).ravel()]))

    def op(self):
        return control.fixed_point_solve(self.spec, self.tgrid, self.xgrid)

    def check(self, out) -> list[str]:
        bad = []
        U, Y, P, report = out
        spec, tg, xg = self.spec, self.tgrid, self.xgrid
        tol = 1e-13
        nodes_next = np.clip(-P.values / spec.nu, spec.u_lo, spec.u_hi)
        inc = float(np.sqrt(np.sum((nodes_next - U.sample_lattice(self.mids, xg.interior)) ** 2)))
        if not (report.final_increment < tol and inc < tol):
            bad.append(f"increment {report.final_increment:.3e}, next {inc:.3e} >= {tol}")
        lo = min(float(vs.min()) for _, vs in U.pieces)
        hi = max(float(vs.max()) for _, vs in U.pieces)
        if lo < spec.u_lo or hi > spec.u_hi:
            bad.append(f"breakpoint values span [{lo}, {hi}] outside the box")
        P_nodal = with_boundary(P.values)
        gap = 0.0
        for k0 in range(0, tg.num_slabs, 256):  # in blocks, to stay small beside the solve
            ks = slice(k0, k0 + 256)
            got = U.sample_lattice(self.mids[ks], self.dense)
            gap = max(gap, float(np.max(np.abs(got - clamp(P_nodal[ks], self.dense, spec)))))
        if not gap <= 1e-10:
            bad.append(f"control differs from clamp(-P/nu) by {gap:.3e}")
        return bad

    def final_check(self, out) -> list[str]:
        tg, xg = self.tgrid, self.xgrid
        g1, g2 = self.rng.standard_normal((2, tg.num_slabs, xg.num_interior))
        B = fracops.assemble_coupling(tg, self.spec.alpha)
        mass, stiff = fem.assemble_mass(xg), fem.assemble_stiffness(xg)
        tau = tg.widths[:, None]
        src = lambda g: solver.SourceTerm(tg, xg, tau * mass_apply(xg.h, g))
        y1 = solver.apply_forward(B, mass, stiff, src(g1)).values
        p2 = solver.apply_adjoint(B, mass, stiff, src(g2)).values
        a = float(np.sum(tau * y1 * mass_apply(xg.h, g2)))
        b = float(np.sum(tau * g1 * mass_apply(xg.h, p2)))
        rel = abs(a - b) / max(abs(a), abs(b))
        return [] if rel <= 1e-12 else [f"adjoint identity off by {rel:.3e} relative"]


class StudySpatial:
    """One spatial study of the reference instance, alpha=0.8, r=0, m_fix=7
    (256 slabs), rows n in {10, 20, 30, 40, 50}, reference n=256."""

    name = "study-spatial"

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.cfg = harness.ExperimentConfig(kind="spatial-study", alpha=0.8, r=0.0,
                                            points=(10, 20, 30, 40, 50), reference=256,
                                            fixed=7)
        self.spec = problem.default_experiment_spec(0.8, 0.0)
        s1, s2 = mesh.default_sigmas(0.8, 0.0)
        self.tgrid = mesh.build_graded(2 ** 7, s1, s2, 1.0)

    def op(self):
        harness.clear_solve_cache()  # no solve may come from an earlier operation
        return harness.run_spatial_study(self.cfg)

    def check(self, table) -> list[str]:
        bad = []
        _, _, oY, _, oP, _, oU = table.rows[-1]
        for label, o in (("Y", oY), ("P", oP), ("U", oU)):
            target, width = STUDY_BANDS[label]
            if not abs(o - target) <= width:
                bad.append(f"last-row order {label} = {o:.3f}, band {target} +- {width}")
        return bad

    def final_check(self, table) -> list[str]:
        row = int(self.rng.integers(len(self.cfg.points)))
        mine = self.lattice_errors(self.cfg.points[row])
        theirs = table.rows[row][1::2]
        return [f"row n={self.cfg.points[row]} error {label} {b:.10e}, lattice {a:.10e}"
                for label, a, b in zip("YPU", mine, theirs) if not abs(a - b) <= 1e-6 * abs(b)]

    def lattice_errors(self, n: int) -> tuple[float, float, float]:
        """L2(L2) errors of the n-row against the reference by the
        benchmark's own quadrature: a solve on each grid, then 3-point Gauss
        on a lattice that refines both spatial grids; the control is the
        benchmark's clamp of -P/nu."""
        spec, tg, n_ref = self.spec, self.tgrid, self.cfg.reference
        row = control.fixed_point_solve(spec, tg, mesh.build_uniform_spatial(n))
        ref = control.fixed_point_solve(spec, tg, mesh.build_uniform_spatial(n_ref))
        cells = 2 * math.lcm(n, n_ref)  # every cell inside one element of each grid
        gx, gw = np.polynomial.legendre.leggauss(3)
        x = ((np.arange(cells)[:, None] + 0.5 * (gx + 1.0)) / cells).ravel()
        w = np.tile(0.5 * gw / cells, cells)
        Yr, Pr = with_boundary(row[1].values), with_boundary(row[2].values)
        Yf, Pf = with_boundary(ref[1].values), with_boundary(ref[2].values)
        sq = np.zeros(3)
        for k0 in range(0, tg.num_slabs, 16):
            ks = slice(k0, k0 + 16)
            tau = tg.widths[ks]
            pr, pf = interp_uniform(Pr[ks], x), interp_uniform(Pf[ks], x)
            dY = interp_uniform(Yr[ks], x) - interp_uniform(Yf[ks], x)
            dU = np.clip(-pr / spec.nu, spec.u_lo, spec.u_hi) - np.clip(-pf / spec.nu, spec.u_lo, spec.u_hi)
            for j, d in enumerate((dY, pr - pf, dU)):
                sq[j] += float(tau @ (d * d @ w))
        return tuple(float(v) for v in np.sqrt(sq))


class OracleForward:
    """The forward sweep of forward_single_mode_error at alpha=0.5, n=128,
    m in {6, 7}, single-mode homogeneous datum, on the default grading.
    Two levels rather than the four of scripts/forward_validation.py, so
    that a run holds a dozen operations and its median is not at the mercy
    of one slow stretch of the host."""

    name = "oracle-forward"
    levels = (6, 7)

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.sigmas = mesh.default_sigmas(0.5, 0.0)

    def op(self):
        return [harness.forward_single_mode_error(0.5, m, 128) for m in self.levels]

    def check(self, errs) -> list[str]:
        return [f"error factor {e0 / e1:.3f} < 1.8 at m={m}"
                for m, e0, e1 in zip(self.levels[1:], errs, errs[1:]) if not e0 / e1 >= 1.8]

    def final_check(self, errs) -> list[str]:
        """A seeded sample of the oracle values the sweep asked for, against
        E_{1/2,1}(z) = erfcx(-z)."""
        worst = 0.0
        for _ in range(64):
            m = int(self.rng.choice(self.levels))
            tg = mesh.build_graded(2 ** m, *self.sigmas, 1.0)
            k = int(self.rng.integers(tg.num_slabs))
            a, b = tg.nodes[k], tg.nodes[k + 1]
            t = 0.5 * (a + b) + 0.5 * (b - a) * GAUSS4_X[int(self.rng.integers(4))]
            z = -(math.pi ** 2) * float(t) ** 0.5
            exact = float(erfcx(-z))
            worst = max(worst, abs(mittag.ml(0.5, 1.0, z) - exact) / exact)
        return [] if worst <= 1e-12 else [f"ml(0.5, 1, z) differs from erfcx(-z) by {worst:.3e} relative"]


WORKLOADS = {w.name: w for w in (OcpM10, StudySpatial, OracleForward)}
