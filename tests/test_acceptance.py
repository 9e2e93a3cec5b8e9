"""Acceptance suite: one test per criterion, each printing a pass line with
the measured quantities.  Tolerances are pinned here and nowhere else.

The heavy criteria (5-7) run complete convergence studies at desk scale;
expect a few minutes each.
"""

import math
import time

import numpy as np
from scipy.special import erfc

from fracctrl.control import ControlField, fixed_point_solve, optimality_residual, evaluate_cost
from fracctrl.fem import assemble_mass, assemble_stiffness
from fracctrl.fracops import assemble_coupling, half_derivative_oracle, source_moments
from fracctrl.harness import (ExperimentConfig, forward_single_mode_error,
                              run_spatial_study, run_studies, run_temporal_study)
from fracctrl.mesh import build_graded, build_uniform_spatial, default_sigmas
from fracctrl.mittag import _asymptotic, _series_certified, crossover_z0, ml
from fracctrl.problem import default_experiment_spec
from fracctrl.solver import (SpaceTimeField, apply_forward,
                             check_adjoint_identity, field_inner, state_source)


def report(criterion, detail):
    print(f"\n[PASS] acceptance criterion {criterion}: {detail}")


def test_criterion_1_coupling_matrix_certification():
    """Closed-form coupling weights vs half-derivative quadrature, 1e-8
    absolute; row sums telescope to 1e-13 relative.  Runtime < 10 s."""
    t0 = time.time()
    worst_entry = 0.0
    worst_rowsum = 0.0
    cases = []
    for alpha in (0.3, 0.5, 0.8):
        s1, s2 = default_sigmas(alpha, 0.0)
        cases.append((alpha, 2, s1, s2))
        cases.append((alpha, 8, s1, s2))
        cases.append((alpha, 2, 1.0, 1.0))
        cases.append((alpha, 2, 2.0, 1.5))
    for alpha, M, s1, s2 in cases:
        grid = build_graded(M, s1, s2, 1.0)
        B = assemble_coupling(grid, alpha)
        for k in range(1, 2 * M + 1):
            for j in range(1, k + 1):
                diff = abs(half_derivative_oracle(grid, alpha, j, k) - B.entry(k, j))
                worst_entry = max(worst_entry, diff)
        m = source_moments(grid, alpha)
        worst_rowsum = max(worst_rowsum, float(
            (np.abs(B.row_sums() - m.values) / np.abs(m.values)).max()))
    assert worst_entry <= 1e-8
    assert worst_rowsum <= 1e-13
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(1, f"max |closed form - quadrature| = {worst_entry:.2e} (<= 1e-8), "
              f"row-sum telescoping {worst_rowsum:.2e} (<= 1e-13), {elapsed:.1f}s")


def test_criterion_2_adjoint_identity():
    """100 random field pairs at 2M=64, n=32: defect <= 1e-12 relative.
    Runtime < 10 s."""
    t0 = time.time()
    tg = build_graded(32, 2.0, 1.2, 1.0)
    xg = build_uniform_spatial(32)
    B = assemble_coupling(tg, 0.6)
    mass, stiff = assemble_mass(xg), assemble_stiffness(xg)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        g1 = SpaceTimeField(tg, xg, rng.standard_normal((64, 31)))
        g2 = SpaceTimeField(tg, xg, rng.standard_normal((64, 31)))
        defect = check_adjoint_identity(B, mass, stiff, g1, g2)
        scale = math.sqrt(field_inner(g1, g1, mass) * field_inner(g2, g2, mass))
        worst = max(worst, defect / scale)
    assert worst <= 1e-12
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(2, f"worst relative adjoint defect over 100 pairs = {worst:.2e} "
              f"(<= 1e-12), {elapsed:.1f}s")


def test_criterion_3_forward_oracle_convergence():
    """Homogeneous single-mode problem at alpha=0.5, n=256: L2(L2) error vs
    the eigen-expansion shrinks by >= 1.8 per doubling over m in 6..9.
    Runtime < 2 min."""
    t0 = time.time()
    errs = [forward_single_mode_error(0.5, m, 256, r=0.0, flavor="homogeneous")
            for m in (6, 7, 8, 9)]
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    assert all(r >= 1.8 for r in ratios)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(3, "errors " + " ".join(f"{e:.3e}" for e in errs)
              + ", ratios " + " ".join(f"{r:.2f}" for r in ratios)
              + f" (>= 1.8), {elapsed:.0f}s")


def test_criterion_4_mittag_leffler_accuracy():
    """exp special case to 1e-12 on [0,30]; e*erfc(1) to 1e-10; crossover
    agreement to 1e-10.  Runtime < 5 s."""
    t0 = time.time()
    worst_exp = max(abs(ml(1.0, 1.0, -t) - math.exp(-t)) / math.exp(-t)
                    for t in np.linspace(0.0, 30.0, 61))
    assert worst_exp <= 1e-12
    erfc_err = abs(ml(0.5, 1.0, -1.0) - math.e * erfc(1.0))
    assert erfc_err <= 1e-10
    worst_band = 0.0
    samples = {0.3: (0.5, 0.7), 0.5: (0.5, 1.0, 2.0), 0.8: (0.5, 1.0, 2.0)}
    for beta, factors in samples.items():
        z0 = crossover_z0(beta)
        for gam in (1.0, 1.0 + beta):
            for f in factors:
                z = -z0 * f
                va, _ = _asymptotic(beta, gam, z)
                vs = _series_certified(beta, gam, z)
                worst_band = max(worst_band, abs(va - vs) / abs(vs))
    assert worst_band <= 1e-10
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(4, f"exp window {worst_exp:.2e} (<= 1e-12), e*erfc(1) {erfc_err:.2e} "
              f"(<= 1e-10), crossover band {worst_band:.2e} (<= 1e-10), "
              f"{elapsed:.1f}s")


def _last_row_orders(table):
    _, _, oY, _, oP, _, oU = table.rows[-1]
    return oY, oP, oU


def test_criterion_5_spatial_rates():
    """Desk-scale spatial studies: last-row state order within +-0.2 of the
    expected 1.94 / 1.31 / 1.86; co-state and control orders within +-0.25
    of 1.9.  Runtime < 30 min."""
    t0 = time.time()
    targets = {(0.4, 0.0): 1.94, (0.8, 0.0): 1.31, (0.8, 0.25): 1.86}
    seen = {}
    for (alpha, r), target in targets.items():
        cfg = ExperimentConfig(kind="spatial-study", alpha=alpha, r=r,
                               grading="graded", points=(10, 20, 30, 40, 50),
                               reference=256, fixed=9)
        oY, oP, oU = _last_row_orders(run_spatial_study(cfg))
        seen[(alpha, r)] = (oY, oP, oU)
        assert abs(oY - target) <= 0.2, (alpha, r, oY, target)
        assert abs(oP - 1.9) <= 0.25, (alpha, r, oP)
        assert abs(oU - 1.9) <= 0.25, (alpha, r, oU)
    elapsed = time.time() - t0
    assert elapsed < 1800.0
    detail = "; ".join(
        f"alpha={a} r={r}: Y {v[0]:.2f} P {v[1]:.2f} U {v[2]:.2f}"
        for (a, r), v in seen.items())
    report(5, detail + f", {elapsed:.0f}s")


def test_criterion_6_temporal_rates_graded():
    """Desk-scale graded temporal studies: (0.8, 0) last-row orders within
    +-0.15 of 1.0 in Y, P, U; (0.4, 0.25) state order >= 0.85.
    Runtime < 30 min."""
    t0 = time.time()
    cfg = ExperimentConfig(kind="temporal-study", alpha=0.8, r=0.0,
                           grading="graded", points=(6, 7, 8, 9, 10),
                           reference=12, fixed=128)
    oY, oP, oU = _last_row_orders(run_temporal_study(cfg))
    assert abs(oY - 1.0) <= 0.15, oY
    assert abs(oP - 1.0) <= 0.15, oP
    assert abs(oU - 1.0) <= 0.15, oU
    cfg2 = ExperimentConfig(kind="temporal-study", alpha=0.4, r=0.25,
                            grading="graded", points=(6, 7, 8, 9, 10),
                            reference=12, fixed=128)
    oY2, _, _ = _last_row_orders(run_temporal_study(cfg2))
    assert oY2 >= 0.85, oY2
    elapsed = time.time() - t0
    assert elapsed < 1800.0
    report(6, f"alpha=0.8 r=0: Y {oY:.2f} P {oP:.2f} U {oU:.2f} (1.0 +- 0.15); "
              f"alpha=0.4 r=0.25: Y {oY2:.2f} (>= 0.85), {elapsed:.0f}s")


def test_criterion_7_uniform_grid_degradation():
    """Uniform temporal rows at (0.4, 0): state order in [0.40, 0.60] and at
    least 0.3 below the graded order at the same parameters."""
    t0 = time.time()
    # one call, so that the two studies' shared reference is solved once
    uni, graded = (ExperimentConfig(kind="temporal-study", alpha=0.4, r=0.0,
                                    grading=grading, points=(6, 7, 8, 9, 10),
                                    reference=12, fixed=128)
                   for grading in ("uniform", "graded"))
    (oY_uni, _, _), (oY_graded, _, _) = map(_last_row_orders, run_studies([uni, graded]))
    assert 0.40 <= oY_uni <= 0.60, oY_uni
    assert oY_graded - oY_uni >= 0.3, (oY_graded, oY_uni)
    elapsed = time.time() - t0
    assert elapsed < 1800.0
    report(7, f"uniform Y order {oY_uni:.2f} (in [0.40, 0.60]), graded "
              f"{oY_graded:.2f}, gap {oY_graded - oY_uni:.2f} (>= 0.3), "
              f"{elapsed:.0f}s")


def test_criterion_8_optimizer_contract():
    """Reference instance (alpha=0.8, r=0, nu=1, bounds +-0.1) at m=8, n=64:
    increment < 1e-13 within 200 iterations, box-feasible control,
    optimality residual <= 1e-10, and no worse than the zero control.
    Runtime < 2 min."""
    t0 = time.time()
    spec = default_experiment_spec(0.8, 0.0)
    s1, s2 = default_sigmas(0.8, 0.0)
    tg = build_graded(2 ** 8, s1, s2, 1.0)
    xg = build_uniform_spatial(64)
    U, Y, P, rep = fixed_point_solve(spec, tg, xg)
    assert rep.final_increment < 1e-13
    assert rep.iterations <= 200
    # feasibility holds everywhere: piecewise linear, so the breakpoint
    # values control the extrema
    for xs, vs in U.pieces:
        assert vs.min() >= spec.u_lo - 1e-14 and vs.max() <= spec.u_hi + 1e-14
    res = optimality_residual(U, P, spec)
    assert res <= 1e-10
    # zero-control comparison
    mass, stiff = assemble_mass(xg), assemble_stiffness(xg)
    B = assemble_coupling(tg, spec.alpha)
    mom = source_moments(tg, spec.alpha)
    U0 = ControlField(tg, xg, spec.u_lo, spec.u_hi, np.zeros((tg.num_slabs, xg.n + 1)))
    Y0 = apply_forward(B, mass, stiff, state_source(U0, spec.y0, mom))
    J0 = evaluate_cost(U0, Y0, spec).total
    assert rep.total <= J0
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(8, f"{rep.iterations} iterations, increment {rep.final_increment:.2e} "
              f"(< 1e-13), residual {res:.2e} (<= 1e-10), J* = {rep.total:.6e} "
              f"<= J(0) = {J0:.6e}, {elapsed:.0f}s")
