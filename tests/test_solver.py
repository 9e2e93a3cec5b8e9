import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import solve_triangular

from fracctrl.control import ControlField
from fracctrl.fem import assemble_mass, assemble_stiffness, load_descriptor
from fracctrl.fracops import assemble_coupling, exp_sum, source_moments
from fracctrl.harness import forward_single_mode_error
from fracctrl.mesh import build_graded, build_uniform_spatial, default_sigmas
from fracctrl.problem import PowerLaw
from fracctrl.solver import (PANEL, SourceTerm, SpaceTimeField, adjoint_source,
                             apply_adjoint, apply_forward, check_adjoint_identity,
                             field_inner, march, march_plan, sine_transform,
                             state_source)


@pytest.fixture
def small_setup():
    tg = build_graded(8, 2.0, 1.2, 1.0)
    xg = build_uniform_spatial(16)
    return (tg, xg, assemble_coupling(tg, 0.6), assemble_mass(xg),
            assemble_stiffness(xg))


def test_zero_source_zero_state(small_setup):
    tg, xg, B, mass, stiff = small_setup
    src = SourceTerm(tg, xg, np.zeros((16, 15)))
    assert not np.any(apply_forward(B, mass, stiff, src).values)
    assert not np.any(apply_adjoint(B, mass, stiff, src).values)


def test_forward_linearity(small_setup, rng):
    tg, xg, B, mass, stiff = small_setup
    s1 = rng.standard_normal((16, 15))
    s2 = rng.standard_normal((16, 15))
    a, b = 1.7, -0.4
    Y1 = apply_forward(B, mass, stiff, SourceTerm(tg, xg, s1)).values
    Y2 = apply_forward(B, mass, stiff, SourceTerm(tg, xg, s2)).values
    Y12 = apply_forward(B, mass, stiff, SourceTerm(tg, xg, a * s1 + b * s2)).values
    assert np.allclose(Y12, a * Y1 + b * Y2, atol=1e-12)


def test_causality(small_setup, rng):
    tg, xg, B, mass, stiff = small_setup
    src = rng.standard_normal((16, 15))
    cut = src.copy()
    cut[10:] = 0.0
    Yf = apply_forward(B, mass, stiff, SourceTerm(tg, xg, src)).values
    Yc = apply_forward(B, mass, stiff, SourceTerm(tg, xg, cut)).values
    assert np.array_equal(Yf[:10], Yc[:10])
    # mirrored for the adjoint: late data do not touch earlier... the adjoint
    # runs backward, so zeroing EARLY slabs leaves the tail unchanged
    cut2 = src.copy()
    cut2[:10] = 0.0
    Pf = apply_adjoint(B, mass, stiff, SourceTerm(tg, xg, src)).values
    Pc = apply_adjoint(B, mass, stiff, SourceTerm(tg, xg, cut2)).values
    assert np.array_equal(Pf[10:], Pc[10:])


def test_time_reversal_on_uniform_grid(rng):
    tg = build_graded(8, 1.0, 1.0, 1.0)
    xg = build_uniform_spatial(8)
    B = assemble_coupling(tg, 0.45)
    mass, stiff = assemble_mass(xg), assemble_stiffness(xg)
    src = rng.standard_normal((16, 7))
    Y = apply_forward(B, mass, stiff, SourceTerm(tg, xg, src)).values
    P = apply_adjoint(B, mass, stiff, SourceTerm(tg, xg, src[::-1])).values
    assert np.allclose(P[::-1], Y, atol=1e-13)


def test_adjoint_identity_random(small_setup, rng):
    tg, xg, B, mass, stiff = small_setup
    for _ in range(10):
        g1 = SpaceTimeField(tg, xg, rng.standard_normal((16, 15)))
        g2 = SpaceTimeField(tg, xg, rng.standard_normal((16, 15)))
        defect = check_adjoint_identity(B, mass, stiff, g1, g2)
        scale = math.sqrt(field_inner(g1, g1, mass) * field_inner(g2, g2, mass))
        assert defect <= 1e-12 * scale


def test_adjoint_identity_with_forward_image(small_setup, rng):
    tg, xg, B, mass, stiff = small_setup
    g1 = SpaceTimeField(tg, xg, rng.standard_normal((16, 15)))
    src = SourceTerm(tg, xg, tg.widths[:, None] * mass.apply(g1.values))
    g2 = apply_forward(B, mass, stiff, src)
    defect = check_adjoint_identity(B, mass, stiff, g1, g2)
    scale = field_inner(g2, g2, mass)
    assert defect <= 1e-12 * max(scale, 1.0)


def test_state_source_zero():
    tg = build_graded(4, 1.0, 1.0, 1.0)
    xg = build_uniform_spatial(8)
    mom = source_moments(tg, 0.5)
    U0 = ControlField(tg, xg, -0.1, 0.1, np.zeros((8, 9)))
    src = state_source(U0, None, mom)
    assert not np.any(src.values)


def test_state_source_constant_control():
    tg = build_graded(4, 1.5, 1.0, 1.0)
    xg = build_uniform_spatial(8)
    mass = assemble_mass(xg)
    mom = source_moments(tg, 0.5)
    c = 0.07
    U = ControlField(tg, xg, -0.1, 0.1, np.pad(np.full((8, 7), c), ((0, 0), (1, 1))))
    src = state_source(U, None, mom)
    # loads of the constant c (interior hats integrate to h each)... the
    # control has zero boundary values and no kinks, so compare against the
    # exact mass action on its interior nodes
    want = tg.widths[:, None] * mass.apply(U.w[:, 1:-1])
    assert np.allclose(src.values, want, rtol=1e-14)


def test_state_source_initial_datum_telescopes():
    alpha, r = 0.6, 0.25
    tg = build_graded(8, 2.0, 1.0, 1.0)
    xg = build_uniform_spatial(16)
    mom = source_moments(tg, alpha)
    y0 = PowerLaw(1.0, 2 * r - 0.49)
    U0 = ControlField(tg, xg, -0.1, 0.1, np.zeros((16, 17)))
    src = state_source(U0, y0, mom)
    total = src.values.sum(axis=0)
    want = 1.0 / math.gamma(2.0 - alpha) * load_descriptor(xg, y0)
    assert np.allclose(total, want, rtol=1e-12)


def test_adjoint_source_zero():
    tg = build_graded(4, 1.0, 1.0, 1.0)
    xg = build_uniform_spatial(8)
    Y0 = SpaceTimeField(tg, xg, np.zeros((8, 7)))
    assert not np.any(adjoint_source(Y0, None).values)


def test_adjoint_source_target_only():
    tg = build_graded(4, 1.0, 1.0, 1.0)
    xg = build_uniform_spatial(8)
    Y0 = SpaceTimeField(tg, xg, np.zeros((8, 7)))
    yd = PowerLaw(1.0, -0.49)
    src = adjoint_source(Y0, yd)
    want = -tg.widths[:, None] * load_descriptor(xg, yd)[None, :]
    assert np.allclose(src.values, want, rtol=1e-14)


def test_adjoint_source_linear_in_state(rng):
    tg = build_graded(4, 1.0, 1.0, 1.0)
    xg = build_uniform_spatial(8)
    yd = PowerLaw(1.0, -0.49)
    Y1 = SpaceTimeField(tg, xg, rng.standard_normal((8, 7)))
    Y2 = SpaceTimeField(tg, xg, rng.standard_normal((8, 7)))
    Ysum = SpaceTimeField(tg, xg, Y1.values + Y2.values)
    s1 = adjoint_source(Y1, yd).values
    s2 = adjoint_source(Y2, yd).values
    s0 = adjoint_source(SpaceTimeField(tg, xg, np.zeros((8, 7))), yd).values
    ssum = adjoint_source(Ysum, yd).values
    assert np.allclose(ssum, s1 + s2 - s0, atol=1e-13)


def test_forward_matches_homogeneous_oracle():
    # datum phi_1, order 0.5: one refinement halves the error
    e7 = forward_single_mode_error(0.5, 7, 128, flavor="homogeneous")
    e8 = forward_single_mode_error(0.5, 8, 128, flavor="homogeneous")
    assert e7 < 2e-3
    assert e7 / e8 > 1.8


def test_forward_matches_constant_source_oracle():
    # the value pinned by the operation contract: alpha = 0.5, M = 2^10,
    # n = 256, graded: space-time error at most 5e-3
    err = forward_single_mode_error(0.5, 10, 256, flavor="constant_source")
    assert err <= 5e-3


def test_oracle_errors_shrink_with_both_axes():
    errs = {}
    for m, n in ((5, 64), (6, 128), (7, 256)):
        errs[(m, n)] = forward_single_mode_error(0.5, m, n, flavor="homogeneous")
    assert errs[(6, 128)] < errs[(5, 64)] * 1.1
    assert errs[(7, 256)] < errs[(6, 128)] * 1.1


def test_grid_mismatch_rejected(small_setup, rng):
    tg, xg, B, mass, stiff = small_setup
    # a different slab count, and the same 2M on uniform instead of graded
    # nodes: node arrays are compared, not slab counts
    for other in (build_graded(4, 1.0, 1.0, 1.0), build_graded(8, 1.0, 1.0, 1.0)):
        src = SourceTerm(other, xg, rng.standard_normal((other.num_slabs, 15)))
        with pytest.raises(ValueError):
            apply_forward(B, mass, stiff, src)
        with pytest.raises(ValueError):
            apply_adjoint(B, mass, stiff, src)


def test_one_plan_serves_every_march(rng):
    # 256 slabs: four panels, so the far field is read and folded; forward
    # and adjoint marches interleave on one plan, each with a fresh source
    tg = build_graded(2 ** 7, *default_sigmas(0.8, 0.0), 1.0)
    xg = build_uniform_spatial(16)
    assert tg.num_slabs > 2 * PANEL
    B = assemble_coupling(tg, 0.8)
    mass, stiff = assemble_mass(xg), assemble_stiffness(xg)
    plan = march_plan(B, mass.eigenvalues(), stiff.eigenvalues())
    for adjoint in (False, True, False, True):
        src = tg.widths[:, None] * rng.standard_normal((tg.num_slabs, 15))
        if adjoint:
            want = apply_adjoint(B, mass, stiff, SourceTerm(tg, xg, src)).values
            got = sine_transform(march(plan, sine_transform(src[::-1]), adjoint) / plan.mu)[::-1]
        else:
            want = apply_forward(B, mass, stiff, SourceTerm(tg, xg, src)).values
            got = sine_transform(march(plan, sine_transform(src)) / plan.mu)
        assert np.array_equal(got, want)
    with pytest.raises(ValueError, match="shape"):
        march(plan, np.zeros((tg.num_slabs, 14)))
    # the modes of a second grid side by side: one march on both marches
    # each grid's columns as its own plan does, to rounding in the products
    xg5 = build_uniform_spatial(5)
    plan5 = march_plan(B, assemble_mass(xg5).eigenvalues(), assemble_stiffness(xg5).eigenvalues())
    both = march_plan(B, np.concatenate([plan.mu, plan5.mu]),
                      np.concatenate([plan.kappa, plan5.kappa]))
    for adjoint in (False, True):
        src = rng.standard_normal((tg.num_slabs, 15 + 4))
        got = march(both, src.copy(), adjoint)
        want = np.hstack([march(plan, src[:, :15].copy(), adjoint),
                          march(plan5, src[:, 15:].copy(), adjoint)])
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _row_loop_march(plan, Z, adjoint):
    """The march as a plain row loop over the plan's panels: near field
    r -= L[i, :i] @ R[:i], r *= scale, far field read and folded as it."""
    S = np.zeros((plan.lam.size, Z.shape[1]))
    scale = plan.scale[::-1] if adjoint else plan.scale
    for k0, k1, L, prev, rows, fold, decay in (plan.adjoint if adjoint else plan.forward):
        R = Z[k0:k1]
        q = rows.shape[1]
        if k0 > 0:
            hist = np.multiply.outer(prev, Z[k0 - 1])
            if q:
                hist += rows @ S[:q]
            R -= hist
        for i in range(k1 - k0):
            r = R[i]
            r -= L[i, :i] @ R[:i]
            r *= scale[k0 + i]
        if fold is not None:
            q_next = decay.shape[0]
            S[:q_next] = decay * S[:q_next] + fold.T @ Z[max(k0 - 1, 0):k1 - 1]
            S[q_next:q] = 0.0
    return Z


@pytest.mark.parametrize("M, ns", [(16, (16,)), (50, (16,)), (64, (16, 5))])
def test_march_matches_the_row_loop_bit_for_bit(M, ns, rng):
    # 32 slabs: one partial panel; 100: one full panel and a partial one;
    # 128: two full panels on the modes of two grids side by side
    tg = build_graded(M, *default_sigmas(0.8, 0.0), 1.0)
    B = assemble_coupling(tg, 0.8)
    xgs = [build_uniform_spatial(n) for n in ns]
    plan = march_plan(B, np.concatenate([assemble_mass(xg).eigenvalues() for xg in xgs]),
                      np.concatenate([assemble_stiffness(xg).eigenvalues() for xg in xgs]))
    for adjoint in (False, True):
        src = tg.widths[:, None] * rng.standard_normal((tg.num_slabs, plan.mu.size))
        want = _row_loop_march(plan, src.copy(), adjoint)
        assert np.array_equal(march(plan, src.copy(), adjoint), want)


def test_march_rejects_other_dtypes(small_setup):
    tg, xg, B, mass, stiff = small_setup
    plan = march_plan(B, mass.eigenvalues(), stiff.eigenvalues())
    for dtype in (np.int64, np.float32, np.complex128):
        with pytest.raises(ValueError, match=np.dtype(dtype).name):
            march(plan, np.ones((tg.num_slabs, xg.num_interior), dtype=dtype))


def _dense(op):
    off = np.full(op.size - 1, op.off)
    return np.diag(np.full(op.size, op.diag)) + np.diag(off, 1) + np.diag(off, -1)


def test_marches_against_dense_space_time_solve(rng):
    # kron(B, M) + kron(diag(tau), A) assembled densely; 160 slabs cross
    # two panel boundaries
    tg = build_graded(80, 2.0, 1.2, 1.0)
    xg = build_uniform_spatial(6)
    K, m = 160, 5
    assert 2 * PANEL < K
    B = assemble_coupling(tg, 0.6)
    mass, stiff = assemble_mass(xg), assemble_stiffness(xg)
    S = np.kron(B.dense(), _dense(mass)) + np.kron(np.diag(tg.widths), _dense(stiff))
    src = rng.standard_normal((K, m))
    Y = apply_forward(B, mass, stiff, SourceTerm(tg, xg, src)).values
    P = apply_adjoint(B, mass, stiff, SourceTerm(tg, xg, src)).values
    Y_ref = np.linalg.solve(S, src.ravel()).reshape(K, m)
    P_ref = np.linalg.solve(S.T, src.ravel()).reshape(K, m)
    assert np.linalg.norm(Y - Y_ref) <= 1e-12 * np.linalg.norm(Y_ref)
    assert np.linalg.norm(P - P_ref) <= 1e-12 * np.linalg.norm(P_ref)


def _exact_coupling(tg, alpha):
    """B on the float nodes from the closed form in 40-digit arithmetic,
    rounded once to double."""
    K = tg.num_slabs
    with mpmath.workdps(40):
        t = [mpmath.mpf(float(x)) for x in tg.nodes]
        e = 1 - mpmath.mpf(alpha)
        W = [[(t[a] - t[b]) ** e if a > b else mpmath.mpf(0) for b in range(K + 1)]
             for a in range(K + 1)]
        g = mpmath.gamma(2 - mpmath.mpf(alpha))
        return np.array([[float((W[k + 1][j] - W[k + 1][j + 1] - W[k][j] + W[k][j + 1]) / g)
                          for j in range(K)] for k in range(K)])


def test_marches_against_exact_weight_reference(rng):
    # 256 graded slabs at alpha = 0.4 (smallest 5e-7): the far field of the
    # march against lower-triangular solves, one per sine mode, with every
    # weight exact to double
    alpha = 0.4
    tg = build_graded(2 ** 7, *default_sigmas(alpha, 0.0), 1.0)
    xg = build_uniform_spatial(8)
    K, m = tg.num_slabs, xg.num_interior
    B = assemble_coupling(tg, alpha)
    mass, stiff = assemble_mass(xg), assemble_stiffness(xg)
    Bx = _exact_coupling(tg, alpha)
    i = np.arange(1, m + 1)
    phi = math.sqrt(2.0 / (m + 1)) * np.sin(np.outer(i, i) * np.pi / (m + 1))
    mu = np.diag(phi @ _dense(mass) @ phi)
    kappa = np.diag(phi @ _dense(stiff) @ phi)
    # slab loads scale with the slab widths, as the solve's sources do
    src = tg.widths[:, None] * rng.standard_normal((K, m))
    rhs = src @ phi
    Y_ref = np.empty((K, m))
    P_ref = np.empty((K, m))
    for c in range(m):
        A = mu[c] * Bx + kappa[c] * np.diag(tg.widths)
        Y_ref[:, c] = solve_triangular(A, rhs[:, c], lower=True)
        P_ref[:, c] = solve_triangular(A, rhs[:, c], lower=True, trans="T")
    Y_ref, P_ref = Y_ref @ phi, P_ref @ phi
    Y = apply_forward(B, mass, stiff, SourceTerm(tg, xg, src)).values
    P = apply_adjoint(B, mass, stiff, SourceTerm(tg, xg, src)).values
    assert np.linalg.norm(Y - Y_ref) <= 1e-13 * np.linalg.norm(Y_ref)
    assert np.linalg.norm(P - P_ref) <= 1e-13 * np.linalg.norm(P_ref)


@pytest.mark.parametrize("alpha", [0.2, 0.4, 0.8])
def test_exp_sum_matches_the_far_kernel(alpha):
    # the whole range the far field of an m=14 march can see
    tg = build_graded(2 ** 14, *default_sigmas(alpha, 0.0), 1.0)
    tmin = tg.widths.min()
    lam, omega = exp_sum(alpha, tmin, 1.0)
    assert np.all(np.diff(lam) > 0.0)
    t = np.logspace(math.log10(tmin), 0.0, 2000)
    a = np.multiply.outer(t, lam)
    approx = np.where(a < 50.0, np.exp(-np.minimum(a, 50.0)), 0.0) @ omega
    assert np.max(np.abs(approx / t ** (-1.0 - alpha) - 1.0)) <= 1e-14


def test_adjoint_identity_through_the_far_field(rng):
    # 1024 slabs: 16 panels, so most of each march comes from the far field
    tg = build_graded(2 ** 9, *default_sigmas(0.8, 0.0), 1.0)
    xg = build_uniform_spatial(16)
    B = assemble_coupling(tg, 0.8)
    mass, stiff = assemble_mass(xg), assemble_stiffness(xg)
    for _ in range(3):
        g1 = SpaceTimeField(tg, xg, rng.standard_normal((tg.num_slabs, 15)))
        g2 = SpaceTimeField(tg, xg, rng.standard_normal((tg.num_slabs, 15)))
        defect = check_adjoint_identity(B, mass, stiff, g1, g2)
        scale = math.sqrt(field_inner(g1, g1, mass) * field_inner(g2, g2, mass))
        assert defect <= 1e-13 * scale


def test_fields_check_their_shape(small_setup):
    tg, xg, *_ = small_setup
    for cls in (SpaceTimeField, SourceTerm):
        with pytest.raises(ValueError, match=r"\(8, 15\).*\(16, 15\)"):
            cls(tg, xg, np.zeros((8, 15)))
        with pytest.raises(ValueError, match=r"\(16, 16\)"):
            cls(tg, xg, np.zeros((16, 16)))
