import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from fracctrl import control
from fracctrl.control import (MAX_ITER, TOL, ControlField, FixedPointDiverged, control_loads,
                              evaluate_cost, fixed_point_solve, fixed_point_solves,
                              optimality_residual, project_admissible)
from fracctrl.fem import assemble_mass, assemble_stiffness
from fracctrl.fracops import assemble_coupling, source_moments
from fracctrl.mesh import build_graded, build_uniform_spatial, default_sigmas
from fracctrl.problem import (ProblemSpec, SineCombo, TimeConstant, Zero,
                              default_experiment_spec)
from fracctrl.solver import (SpaceTimeField, adjoint_source, apply_adjoint,
                             apply_forward, march_plan, state_source)


def small_instance(alpha=0.8, r=0.0, m=5, n=16):
    spec = default_experiment_spec(alpha, r)
    s1, s2 = default_sigmas(alpha, r)
    tg = build_graded(2 ** m, s1, s2, 1.0)
    xg = build_uniform_spatial(n)
    return spec, tg, xg


def nodal(U):
    """Interior nodal values of every slab, read at the slab midpoints."""
    nodes = U.tgrid.nodes
    return U.sample_lattice(0.5 * (nodes[:-1] + nodes[1:]), U.xgrid.interior)


def kink_count(U):
    """Breakpoints of a control's layout beyond its element nodes."""
    return sum(xs.size for xs, _ in U.pieces) - U.tgrid.num_slabs * (U.xgrid.n + 1)


def test_projection_of_zero_costate():
    _, tg, xg = small_instance()
    P0 = SpaceTimeField(tg, xg, np.zeros((tg.num_slabs, xg.num_interior)))
    U = project_admissible(P0, 1.0, -0.1, 0.1)
    assert not np.any(U.w) and kink_count(U) == 0
    assert U.norm_l2l2_sq() == 0.0


def test_kinks_survive_underflowing_crossings():
    # w crosses u_lo = 0 between -1e-170 and 1e-170, where the product
    # (wl - b)(wr - b) underflows to -0.0: the crossing must still count
    tg = build_graded(2, 1.0, 1.0, 1.0)
    xg = build_uniform_spatial(4)
    w = np.zeros((tg.num_slabs, 5))
    w[0] = [0.0, -1e-170, 1e-170, -3.0, 0.0]
    U = ControlField(tg, xg, 0.0, math.inf, w)
    xs, vs = U.pieces[0]
    assert xs.size == 7  # the element nodes and one cut in elements 1 and 2
    assert 0.375 in xs and vs[list(xs).index(0.375)] == 0.0
    assert kink_count(U) == 2


def test_projection_crossings_single_element():
    # costate ramps steeply: -P/nu crosses both bounds inside elements
    tg = build_graded(2, 1.0, 1.0, 1.0)
    xg = build_uniform_spatial(4)
    vals = np.tile(np.array([-1.0, 0.0, 1.0]), (4, 1))
    P = SpaceTimeField(tg, xg, vals)
    U = project_admissible(P, 1.0, -0.1, 0.1)
    xs, vs = U.pieces[0]
    # -P/nu rises from 0 to 1 on [0, .25]: crossing of +0.1 at x = 0.025
    assert np.isclose(xs, 0.025).any()
    idx = int(np.argmin(np.abs(xs - 0.025)))
    assert vs[idx] == pytest.approx(0.1, abs=1e-14)
    assert np.all(vs <= 0.1 + 1e-15) and np.all(vs >= -0.1 - 1e-15)
    # saturated plateau between the crossings on each side of the midpoint
    mid_vals = U.sample_lattice(tg.nodes[:1], np.array([0.05, 0.2]))[0]
    assert np.allclose(mid_vals, 0.1, atol=1e-14)


def test_control_norm_against_composite_quadrature(rng):
    _, tg, xg = small_instance(m=3, n=8)
    P = SpaceTimeField(tg, xg, 0.3 * rng.standard_normal((tg.num_slabs, 7)))
    U = project_admissible(P, 1.0, -0.1, 0.1)
    xs = np.linspace(0.0, 1.0, 100001)
    total = 0.0
    for k in range(tg.num_slabs):
        w = np.zeros(xg.n + 1)
        w[1:-1] = -P.values[k]
        vals = np.clip(np.interp(xs, xg.nodes, w), -0.1, 0.1)
        mids = np.clip(np.interp(0.5 * (xs[:-1] + xs[1:]), xg.nodes, w), -0.1, 0.1)
        seg = np.sum(np.diff(xs) / 6.0 * (vals[:-1] ** 2 + 4 * mids ** 2 + vals[1:] ** 2))
        total += tg.widths[k] * seg
    assert U.norm_l2l2_sq() == pytest.approx(total, abs=1e-9)


def test_loads_unconstrained_match_mass_action(rng):
    _, tg, xg = small_instance(m=3, n=8)
    P = SpaceTimeField(tg, xg, rng.standard_normal((tg.num_slabs, 7)))
    nu = 2.0
    U = project_admissible(P, nu, -math.inf, math.inf)
    mass = assemble_mass(xg)
    assert np.array_equal(control_loads(U), mass.apply(U.w[:, 1:-1]))
    assert np.allclose(control_loads(U), -mass.apply(P.values) / nu, atol=1e-14)
    # a finite box that holds every value: a member of the discrete space,
    # whose loads are its mass action too
    top = np.max(np.abs(U.w))
    inside = project_admissible(P, nu, -top, top)
    assert kink_count(inside) == 0
    assert np.array_equal(control_loads(inside), mass.apply(U.w[:, 1:-1]))


def test_loads_saturated_constant():
    _, tg, xg = small_instance(m=3, n=8)
    big = np.full((tg.num_slabs, 7), -50.0)
    U = project_admissible(SpaceTimeField(tg, xg, big), 1.0, -0.1, 0.1)
    # hats integrate to h inside, h/2 halves at the boundary-adjacent dofs...
    # exact loads of the constant 0.1 against interior hats are 0.1*h
    want = np.full(7, 0.1 * xg.h)
    assert np.allclose(control_loads(U), want, rtol=1e-13)


def test_loads_against_adaptive_quadrature(rng):
    _, tg, xg = small_instance(m=2, n=6)
    P = SpaceTimeField(tg, xg, 0.25 * rng.standard_normal((tg.num_slabs, 5)))
    U = project_admissible(P, 1.0, -0.1, 0.1)
    loads = control_loads(U)
    k = 2
    w = np.zeros(xg.n + 1)
    w[1:-1] = -P.values[k - 1]
    for i in (1, 3, 5):
        xl, xm, xr = xg.nodes[i - 1], xg.nodes[i], xg.nodes[i + 1]

        def f(x, lo=xl, mid=xm, hi=xr):
            u = np.clip(np.interp(x, xg.nodes, w), -0.1, 0.1)
            hat = (x - lo) / xg.h if x <= mid else (hi - x) / xg.h
            return u * hat

        left, _ = quad(f, xl, xm, epsabs=1e-13, limit=200)
        right, _ = quad(f, xm, xr, epsabs=1e-13, limit=200)
        assert loads[k - 1, i - 1] == pytest.approx(left + right, abs=1e-10)


def flat_layout_instance(rng):
    # 2M = 160 slabs of a control with kinks
    tg = build_graded(80, 2.0, 1.0, 1.0)
    xg = build_uniform_spatial(8)
    return tg, xg, project_admissible(
        SpaceTimeField(tg, xg, 0.3 * rng.standard_normal((160, 7))), 1.0, -0.1, 0.1)


def simpson_pieces(xs, f):
    """Simpson's rule on every interval of xs: exact for quadratics."""
    a, b = xs[:-1], xs[1:]
    return np.sum((b - a) / 6.0 * (f(a) + 4.0 * f(0.5 * (a + b)) + f(b)))


def per_slab_reference(U):
    """Loads and squared norm of U slab by slab: the breakpoints are the
    nodes and the bound crossings of w found element by element, and
    Simpson's rule on each piece is exact for U times a hat and for U^2."""
    nodes, h = U.xgrid.nodes, U.xgrid.h
    loads, norm = np.zeros((U.tgrid.num_slabs, U.xgrid.n - 1)), 0.0
    for k, w in enumerate(U.w):
        cuts = [nodes[e] + h * (b - w[e]) / (w[e + 1] - w[e])
                for e in range(U.xgrid.n) for b in (U.u_lo, U.u_hi)
                if (w[e] - b) * (w[e + 1] - b) < 0.0]
        xb = np.sort(np.concatenate([nodes, cuts]))

        def u(x, w=w):
            return np.clip(np.interp(x, nodes, w), U.u_lo, U.u_hi)

        for i in range(1, U.xgrid.n):
            hat = np.zeros(U.xgrid.n + 1)
            hat[i] = 1.0
            loads[k, i - 1] = simpson_pieces(xb, lambda x: u(x) * np.interp(x, nodes, hat))
        norm += U.tgrid.widths[k] * simpson_pieces(xb, lambda x: u(x) ** 2)
    return loads, norm


def test_flat_layout_against_per_slab_reference(rng):
    _, _, Ua = flat_layout_instance(rng)
    # steep rows cross both bounds inside one element, and a third of the
    # nodes sit exactly on a bound, where U has no kink inside an element
    tg = build_graded(8, 2.0, 1.0, 1.0)
    xg = build_uniform_spatial(8)
    vals = 3.0 * rng.standard_normal((tg.num_slabs, 7))
    on_bound = rng.random(vals.shape) < 0.35
    vals[on_bound] = rng.choice([-0.1, 0.1], size=on_bound.sum())
    steep = [project_admissible(SpaceTimeField(tg, xg, -vals), 1.0, lo, hi)
             for lo, hi in ((-0.1, 0.1), (0.02, 0.2), (-math.inf, 0.1))]
    w = steep[0].w
    assert np.sum(((w[:, :-1] + 0.1) * (w[:, 1:] + 0.1) < 0.0)
                  & ((w[:, :-1] - 0.1) * (w[:, 1:] - 0.1) < 0.0)) >= 10
    for U in [Ua] + steep:
        nodes = U.xgrid.nodes
        for (xb, vb), w in zip(U.pieces, U.w):
            # the breakpoints hold every node and run from 0 to 1 in order,
            # with the values of U there
            assert np.all(np.isin(nodes, xb)) and np.all(np.diff(xb) >= 0.0)
            assert xb[0] == 0.0 and xb[-1] == 1.0
            want = np.clip(np.interp(xb, nodes, w), U.u_lo, U.u_hi)
            assert np.allclose(vb, want, rtol=0.0, atol=1e-13)
        loads, norm = per_slab_reference(U)
        assert np.allclose(control_loads(U), loads, rtol=0.0, atol=1e-15)
        assert U.norm_l2l2_sq() == pytest.approx(norm, rel=1e-13, abs=0.0)


def test_evaluate_matches_interp_at_and_beyond_the_ends(rng):
    tg, xg, Ua = flat_layout_instance(rng)
    Ub = project_admissible(SpaceTimeField(tg, xg, rng.standard_normal((160, 7))),
                            1.0, 0.02, 0.2)  # nonzero at and beyond both ends
    xs = np.array([-2.0, -1e-300, 0.0, 0.3, 1.0 / 8.0, 1.0, 1.0 + 1e-15, 7.0])
    for U in (Ua, Ub):
        ts = 0.5 * (tg.nodes[:-1] + tg.nodes[1:])
        lattice = U.sample_lattice(ts, xs)
        assert np.array_equal(lattice, [np.clip(np.interp(xs, xg.nodes, w), U.u_lo, U.u_hi)
                                        for w in U.w])


def test_fixed_point_trivial_data():
    spec0 = ProblemSpec(alpha=0.5, nu=1.0, T=1.0, u_lo=-0.1, u_hi=0.1, r=0.0,
                        y0=Zero(), yd=TimeConstant(Zero()))
    tg = build_graded(4, 1.0, 1.0, 1.0)
    xg = build_uniform_spatial(8)
    U, Y, P, rep = fixed_point_solve(spec0, tg, xg)
    assert rep.iterations == 1
    assert not np.any(U.w) and not np.any(Y.values) and not np.any(P.values)
    assert rep.total == 0.0


def test_fixed_point_reference_instance():
    spec, tg, xg = small_instance(m=6, n=32)
    U, Y, P, rep = fixed_point_solve(spec, tg, xg)
    assert rep.final_increment < 1e-13
    assert rep.iterations <= 200
    assert np.all(nodal(U) >= spec.u_lo) and np.all(nodal(U) <= spec.u_hi)


def test_fixed_point_unconstrained_stationarity():
    spec0 = default_experiment_spec(0.6, 0.0)
    spec = ProblemSpec(alpha=spec0.alpha, nu=spec0.nu, T=spec0.T,
                       u_lo=-math.inf, u_hi=math.inf, r=spec0.r,
                       y0=SineCombo(((1, 1.0),)),
                       yd=TimeConstant(SineCombo(((1, 0.5), (2, 0.25)))))
    tg = build_graded(16, 2.0, 1.1, 1.0)
    xg = build_uniform_spatial(16)
    U, Y, P, rep = fixed_point_solve(spec, tg, xg)
    # stationarity nu*U + P = 0 via the pointwise characterization
    assert optimality_residual(U, P, spec) <= 1e-10


def test_fixed_point_damped_matches_undamped():
    # the solve damps itself from its second iteration on; plain iteration
    # (theta = 1 throughout) reaches the same control
    spec, tg, xg = small_instance(m=4, n=8)
    U1, _, _, iterations, _ = _nodal_fixed_point(spec, tg, xg, damped=False)
    U2, _, _, r2 = fixed_point_solve(spec, tg, xg)
    assert r2.iterations <= iterations
    assert np.allclose(nodal(U1), nodal(U2), atol=1e-11)


def test_stopping_rule_sees_the_kinks():
    # at nu = 0.01 every node ends up clamped, so nodal samples stop moving
    # after two iterations while the kinks between the nodes still move
    spec0, tg, xg = small_instance(alpha=0.4, m=6, n=32)
    spec = dataclasses.replace(spec0, nu=0.01)
    U, Y, P, rep = fixed_point_solve(spec, tg, xg)
    assert optimality_residual(U, P, spec) <= 1e-12


def test_damped_solve_keeps_the_kinks_of_one_projection():
    # damping moves Q, and U is the one projection clamp(-Q/nu): it has the
    # kinks of clamp(-P/nu) and the cost of plain iteration
    spec, tg, xg = small_instance(m=6, n=32)
    U, _, P, rep = fixed_point_solve(spec, tg, xg)
    _, _, _, _, plain = _nodal_fixed_point(spec, tg, xg, damped=False)
    assert rep.iterations > 1
    assert kink_count(U) == 86
    assert kink_count(project_admissible(P, spec.nu, spec.u_lo, spec.u_hi)) == 86
    assert rep.total == pytest.approx(plain[-1], rel=1e-14, abs=0.0)


@pytest.mark.parametrize("alpha", [0.4, 0.8])
def test_fixed_point_converges_at_a_small_cost_weight(alpha):
    # box +-10 at nu = 0.01: plain iteration needs more than the default cap
    # (at alpha = 0.8 it does not converge at all)
    spec0, tg, xg = small_instance(alpha=alpha, m=6, n=32)
    spec = dataclasses.replace(spec0, nu=0.01, u_lo=-10.0, u_hi=10.0)
    U, Y, P, rep = fixed_point_solve(spec, tg, xg)
    assert rep.final_increment < 1e-13
    assert rep.iterations <= 40


def test_fixed_point_one_sided_box_starts_inside():
    # a box that excludes 0 with one infinite bound: the start is the clamp
    # of 0, not the infinite midpoint of the box
    spec0, tg, xg = small_instance(m=2, n=8)
    for lo, hi in ((0.05, math.inf), (-math.inf, -0.05)):
        spec = dataclasses.replace(spec0, u_lo=lo, u_hi=hi)
        U, Y, P, rep = fixed_point_solve(spec, tg, xg)
        assert rep.final_increment < 1e-13 and rep.iterations <= 20
        assert np.all(nodal(U) >= lo) and np.all(nodal(U) <= hi)
        assert optimality_residual(U, P, spec) <= 1e-12


def _nodal_fixed_point(spec, tg, xg, damped=True):
    """The fixed point of `fixed_point_solve` composed of the public nodal
    pieces: every source and the cost go through nodal values.  Damped, it
    takes theta = 2/(2+L) from the second iteration on, with L the ratio of
    the last moves of P and Q; undamped, theta = 1 throughout."""
    mass, stiff = assemble_mass(xg), assemble_stiffness(xg)
    B = assemble_coupling(tg, spec.alpha)
    mom = source_moments(tg, spec.alpha)
    u_init = min(max(0.0, spec.u_lo), spec.u_hi)
    Q = np.full((tg.num_slabs, xg.num_interior), -spec.nu * u_init)
    Q_prev = P_prev = None
    theta, history = 1.0, []
    for iterations in range(1, MAX_ITER + 1):
        U = project_admissible(SpaceTimeField(tg, xg, Q), spec.nu, spec.u_lo, spec.u_hi)
        Y = apply_forward(B, mass, stiff, state_source(U, spec.y0, mom))
        P = apply_adjoint(B, mass, stiff, adjoint_source(Y, spec.yd))
        history.append(evaluate_cost(U, Y, spec).total)
        if np.linalg.norm(P.values - Q) / spec.nu < TOL:
            return U, Y, P, iterations, history
        if damped and P_prev is not None:
            lipschitz = np.linalg.norm(P.values - P_prev) / np.linalg.norm(Q - Q_prev)
            theta = 2.0 / (2.0 + lipschitz)
        Q_prev, P_prev = Q, P.values
        Q = Q + theta * (P.values - Q)
    raise AssertionError("the nodal fixed point did not converge")


@pytest.mark.parametrize("case", ["alpha0.4-r0.25", "alpha0.8-r0", "one-sided", "box10-nu0.01"])
def test_fixed_point_matches_the_nodal_composition(case):
    # the sine-basis loop against the same iteration through nodal sources
    if case == "alpha0.4-r0.25":
        spec, tg, xg = small_instance(alpha=0.4, r=0.25, m=7, n=32)
    elif case == "alpha0.8-r0":
        spec, tg, xg = small_instance(alpha=0.8, m=7, n=32)
    elif case == "one-sided":
        spec0, tg, xg = small_instance(m=6, n=16)
        spec = dataclasses.replace(spec0, u_lo=0.05, u_hi=math.inf)
    else:
        spec0, tg, xg = small_instance(alpha=0.4, m=6, n=32)
        spec = dataclasses.replace(spec0, nu=0.01, u_lo=-10.0, u_hi=10.0)
    U, Y, P, rep = fixed_point_solve(spec, tg, xg)
    U_ref, Y_ref, P_ref, iterations, history = _nodal_fixed_point(spec, tg, xg)
    assert rep.iterations == iterations
    assert rep.total == pytest.approx(history[-1], rel=1e-12, abs=0.0)
    # the cost falls from iteration to iteration
    assert all(a >= b - 1e-14 for a, b in zip(history, history[1:]))
    for got, want in ((U.w, U_ref.w), (Y.values, Y_ref.values), (P.values, P_ref.values)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_fixed_point_iteration_cap(monkeypatch):
    spec, tg, xg = small_instance(m=4, n=8)
    monkeypatch.setattr(control, "MAX_ITER", 1)
    with pytest.raises(FixedPointDiverged, match="n=8: no convergence after 1 iterations") as err:
        fixed_point_solve(spec, tg, xg)
    assert err.value.iterations == 1 and err.value.n == 8
    assert err.value.last_increment > 1e-13
    assert err.value.theta == 1.0 and math.isnan(err.value.lipschitz)
    # later iterations report the measured ratio and the damping it set
    monkeypatch.setattr(control, "MAX_ITER", 3)
    with pytest.raises(FixedPointDiverged, match="Lipschitz ratio") as err:
        fixed_point_solve(spec, tg, xg)
    assert err.value.iterations == 3 and err.value.lipschitz > 0.0
    assert err.value.theta == pytest.approx(2.0 / (2.0 + err.value.lipschitz), rel=1e-15)


def test_fixed_point_extra_iteration_stays_put():
    spec, tg, xg = small_instance(m=5, n=16)
    U, Y, P, rep = fixed_point_solve(spec, tg, xg)
    U_next = project_admissible(P, spec.nu, spec.u_lo, spec.u_hi)
    move = float(np.sqrt(np.sum((nodal(U_next) - nodal(U)) ** 2)))
    assert move < 10.0 * TOL


@pytest.mark.parametrize("alpha", [0.4, 0.8])
def test_fixed_point_stops_itself_when_it_stalls(alpha):
    # box +-10 at nu = 1e-3: r falls to its rounding floor, about 3e-13, near
    # iteration 90 and wanders there above TOL; the solve says so long before
    # the cap
    spec0, tg, xg = small_instance(alpha=alpha, m=6, n=32)
    spec = dataclasses.replace(spec0, nu=1e-3, u_lo=-10.0, u_hi=10.0)
    with pytest.raises(FixedPointDiverged, match="stalled") as err:
        fixed_point_solve(spec, tg, xg)
    assert err.value.iterations < 130
    assert TOL <= err.value.best_increment <= err.value.last_increment < 1e-12
    assert f"best increment {err.value.best_increment:.3e}" in str(err.value)


@pytest.mark.parametrize("alpha", [0.4, 0.8])
def test_group_solve_matches_the_solo_solves(alpha):
    # box +-10 at nu = 0.01: the solo solves stop at 29 (alpha=0.4) or 30
    # (alpha=0.8), 32 and 33 iterations, so the grids that stop first sit
    # frozen in the marches of the others
    spec0, tg, _ = small_instance(alpha=alpha, m=6)
    spec = dataclasses.replace(spec0, nu=0.01, u_lo=-10.0, u_hi=10.0)
    xgs = [build_uniform_spatial(n) for n in (4, 16, 64)]
    group = fixed_point_solves(spec, tg, xgs)
    assert [rep.iterations for *_, rep in group] == [29 if alpha == 0.4 else 30, 32, 33]
    for xg, (U, Y, P, rep) in zip(xgs, group):
        U1, Y1, P1, rep1 = fixed_point_solve(spec, tg, xg)
        assert rep.iterations == rep1.iterations
        assert rep.final_increment < TOL
        assert rep.total == pytest.approx(rep1.total, rel=1e-13, abs=0.0)
        for got, want in ((U.w, U1.w), (Y.values, Y1.values), (P.values, P1.values)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_group_solve_names_the_grid_that_stalls():
    # at nu = 1e-4 the n=32 grid stalls after 13 iterations; the n=2 grid
    # ahead of it in the group is still setting new minima then
    spec0, tg, _ = small_instance(alpha=0.4, m=6)
    spec = dataclasses.replace(spec0, nu=1e-4, u_lo=-10.0, u_hi=10.0)
    with pytest.raises(FixedPointDiverged, match="n=32: stalled after 13 iterations") as err:
        fixed_point_solves(spec, tg, [build_uniform_spatial(2), build_uniform_spatial(32)])
    assert err.value.n == 32 and err.value.iterations == 13


def test_group_solve_needs_a_grid():
    spec, tg, _ = small_instance(m=4, n=8)
    with pytest.raises(ValueError, match="xgrids"):
        fixed_point_solves(spec, tg, [])


def test_fixed_point_peaks_at_five_fields_beside_the_plan():
    # a field (2^11 slabs, 127 interior nodes) takes 2 MB.  Q, the previous
    # P, the two march buffers and the accepted control's w are five; the
    # iterations allocate none, and their per-block temporaries stay under
    # half a field
    spec, tg, xg = small_instance(m=10, n=128)
    tracemalloc.start()
    try:
        U, Y, P, report = fixed_point_solve(spec, tg, xg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.final_increment < TOL
    plan = march_plan(assemble_coupling(tg, spec.alpha), assemble_mass(xg).eigenvalues(),
                      assemble_stiffness(xg).eigenvalues())
    plan_bytes = plan.scale.nbytes + sum(a.nbytes for panels in (plan.forward, plan.adjoint)
                                         for panel in panels for a in panel
                                         if isinstance(a, np.ndarray))
    field = Y.values.nbytes
    assert field >= 2e6
    assert peak <= plan_bytes + 5 * field + field // 2, (peak - plan_bytes) / field


def test_optimality_residual_detects_perturbation():
    spec, tg, xg = small_instance(m=4, n=8)
    U, Y, P, _ = fixed_point_solve(spec, tg, xg)
    assert optimality_residual(U, P, spec) <= 1e-12
    delta = 3e-3
    inactive = (U.w > spec.u_lo + 0.02) & (U.w < spec.u_hi - 0.02)
    assert inactive.any()
    U2 = dataclasses.replace(U, w=np.where(inactive, U.w + delta, U.w))
    assert optimality_residual(U2, P, spec) >= delta * 0.9


@pytest.mark.parametrize("w, q", [((0.0, 0.2, 0.0), 0.1), ((0.0, 0.1, 0.0), 0.2)])
def test_optimality_residual_peaks_at_a_kink(w, q):
    # on [0, 1/2] one clamp is min(0.4 x, 0.1), kinked at x = 1/4, and the
    # other is 0.2 x: they differ by 0.05 there, and by less at every point
    # that an even sample of the element takes (0.0444 with nine points)
    spec = default_experiment_spec(0.5, 0.0)
    tg, xg = build_graded(2, 1.0, 1.0, 1.0), build_uniform_spatial(2)
    U = ControlField(tg, xg, spec.u_lo, spec.u_hi, np.tile(w, (tg.num_slabs, 1)))
    P = SpaceTimeField(tg, xg, np.full((tg.num_slabs, 1), -q * spec.nu))
    assert optimality_residual(U, P, spec) == pytest.approx(0.05, rel=1e-14)


@pytest.mark.parametrize("nu", [0.0, -1.0])
def test_fixed_point_rejects_a_nonpositive_cost_weight(nu):
    spec, tg, xg = small_instance(m=3, n=8)
    with pytest.raises(ValueError, match="nu"):
        fixed_point_solve(dataclasses.replace(spec, nu=nu), tg, xg)


@pytest.mark.parametrize("T", [2.0, 0.5])
def test_fixed_point_rejects_a_grid_that_does_not_span_T(T):
    # the grid spans (0, 1); a problem on (0, T) must not solve on it
    spec = dataclasses.replace(default_experiment_spec(0.8, 0.0), T=T)
    tg, xg = build_graded(8, 1.0, 1.0, 1.0), build_uniform_spatial(8)
    with pytest.raises(ValueError, match=f"T = {T}"):
        fixed_point_solve(spec, tg, xg)


def test_cost_closed_form_target_only():
    spec0 = default_experiment_spec(0.5, 0.0)
    tg = build_graded(4, 1.0, 1.0, 1.0)
    xg = build_uniform_spatial(8)
    Y0 = SpaceTimeField(tg, xg, np.zeros((8, 7)))
    rep = evaluate_cost(ControlField(tg, xg, -0.1, 0.1, np.zeros((8, 9))), Y0, spec0)
    want = 0.5 * (1.0 / 0.02 - 2.0 / 1.02 + 1.0 / 2.02)
    assert rep.total == pytest.approx(want, rel=1e-13, abs=0.0)
    assert rep.penalty == 0.0


def test_cost_zero_everything():
    spec0 = ProblemSpec(alpha=0.5, nu=1.0, T=1.0, u_lo=-0.1, u_hi=0.1, r=0.0,
                        y0=Zero(), yd=TimeConstant(Zero()))
    tg = build_graded(4, 1.0, 1.0, 1.0)
    xg = build_uniform_spatial(8)
    Y0 = SpaceTimeField(tg, xg, np.zeros((8, 7)))
    U0 = ControlField(tg, xg, -0.1, 0.1, np.zeros((8, 9)))
    assert evaluate_cost(U0, Y0, spec0).total == 0.0


def test_minimizer_beats_random_admissible(rng):
    spec, tg, xg = small_instance(m=4, n=16)   # 2M = 32
    U, Y, P, rep = fixed_point_solve(spec, tg, xg)
    mass = assemble_mass(xg)
    stiff = assemble_stiffness(xg)
    B = assemble_coupling(tg, spec.alpha)
    mom = source_moments(tg, spec.alpha)
    u = nodal(U)
    for _ in range(20):
        # an admissible member of the discrete space: nodal values in the box
        v = np.clip(u + 0.05 * rng.standard_normal(u.shape), spec.u_lo, spec.u_hi)
        V = ControlField(tg, xg, spec.u_lo, spec.u_hi, np.pad(v, ((0, 0), (1, 1))))
        Yv = apply_forward(B, mass, stiff, state_source(V, spec.y0, mom))
        assert rep.total <= evaluate_cost(V, Yv, spec).total + 1e-14


def test_unconstrained_linearity(rng):
    base = default_experiment_spec(0.7, 0.0)
    lam = 2.5

    def solve_scaled(scale):
        spec = ProblemSpec(alpha=base.alpha, nu=base.nu, T=base.T,
                           u_lo=-math.inf, u_hi=math.inf, r=base.r,
                           y0=SineCombo(((1, scale),)),
                           yd=TimeConstant(SineCombo(((1, 0.3 * scale),))))
        tg = build_graded(8, 2.0, 1.0, 1.0)
        xg = build_uniform_spatial(8)
        return fixed_point_solve(spec, tg, xg)

    U1, Y1, P1, _ = solve_scaled(1.0)
    U2, Y2, P2, _ = solve_scaled(lam)
    assert np.allclose(nodal(U2), lam * nodal(U1), rtol=1e-9, atol=1e-12)
    assert np.allclose(Y2.values, lam * Y1.values, rtol=1e-9, atol=1e-12)
    assert np.allclose(P2.values, lam * P1.values, rtol=1e-9, atol=1e-12)


def test_sample_lattice_shape():
    spec, tg, xg = small_instance(m=3, n=8)
    U, _, _, _ = fixed_point_solve(spec, tg, xg)
    grid_vals = U.sample_lattice([0.1, 0.9], np.linspace(0, 1, 11))
    assert grid_vals.shape == (2, 11)
    assert np.all(np.abs(grid_vals) <= 0.1 + 1e-14)
