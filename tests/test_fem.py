import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import eigh

from fracctrl.fem import (TriDiagonalOperator, assemble_mass, assemble_stiffness,
                          load_descriptor, load_powerlaw, sine_transform)
from fracctrl.mesh import build_uniform_spatial
from fracctrl.problem import SineCombo, Zero


def dense(op):
    off = np.full(op.size - 1, op.off)
    return np.diag(np.full(op.size, op.diag)) + np.diag(off, -1) + np.diag(off, 1)


def sine_solve(op, rhs):
    """op x = rhs along the last axis in the sine basis, where op is the
    diagonal of its eigenvalues: the division of every slab step."""
    return sine_transform(sine_transform(rhs) / op.eigenvalues())


def test_mass_entries_n4():
    M = assemble_mass(build_uniform_spatial(4))
    assert M.size == 3
    assert M.diag == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert M.off == pytest.approx(1.0 / 24.0, rel=1e-15)


def test_mass_total_against_hand_count():
    g = build_uniform_spatial(4)
    M = assemble_mass(g)
    ones = np.ones(3)
    want = 2.0 * g.h / 3.0 * 3 + 2.0 * (g.h / 6.0) * 2
    assert ones @ M.apply(ones) == pytest.approx(want, rel=1e-15, abs=0.0)


def test_mass_quadratic_form_approximates_sine_norm():
    g = build_uniform_spatial(128)
    M = assemble_mass(g)
    v = np.sin(np.pi * g.interior)
    assert v @ M.apply(v) == pytest.approx(0.5, abs=1e-3)


def test_stiffness_single_dof():
    K = assemble_stiffness(build_uniform_spatial(2))
    assert K.size == 1 and K.diag == pytest.approx(4.0)
    assert np.array_equal(K.apply(np.array([0.5])), [2.0])
    assert np.array_equal(K.eigenvalues(), [4.0])


def test_generalized_eigenvalues_near_squares():
    g = build_uniform_spatial(64)
    K, M = assemble_stiffness(g), assemble_mass(g)
    lam = eigh(dense(K), dense(M), eigvals_only=True)
    for k in (1, 2, 3, 4, 8):
        exact = (k * math.pi) ** 2
        assert abs(lam[k - 1] - exact) <= 2.0 * exact ** 2 * g.h ** 2


def test_stiffness_sees_dirichlet_boundary():
    g = build_uniform_spatial(8)
    K = assemble_stiffness(g)
    out = K.apply(np.ones(g.num_interior))
    assert abs(out[0]) > 0.0 and abs(out[-1]) > 0.0
    assert np.allclose(out[1:-1], 0.0, atol=1e-14)


def test_load_powerlaw_against_quadrature():
    g = build_uniform_spatial(8)
    loads = load_powerlaw(g, 1.0, 0.0)
    for i in range(1, g.n):
        xl, xm, xr = g.nodes[i - 1], g.nodes[i], g.nodes[i + 1]
        left, _ = quad(lambda x: (1 - x) * (x - xl) / g.h, xl, xm, epsabs=1e-14)
        right, _ = quad(lambda x: (1 - x) * (xr - x) / g.h, xm, xr, epsabs=1e-14)
        assert loads[i - 1] == pytest.approx(left + right, abs=1e-12)


def test_singular_moment_closed_form():
    val, _ = quad(lambda x: x ** (-0.49) * (1 - x), 0.0, 1.0,
                  epsabs=1e-13, epsrel=1e-13)
    assert val == pytest.approx(1.0 / 0.51 - 1.0 / 1.51, rel=1e-10)


def test_singular_load_against_quadrature():
    g = build_uniform_spatial(8)
    loads = load_powerlaw(g, 1.0, -0.49)
    for i in (1, 2, 5):
        xl, xm, xr = g.nodes[i - 1], g.nodes[i], g.nodes[i + 1]
        left, _ = quad(lambda x: x ** (-0.49) * (1 - x) * (x - xl) / g.h, xl, xm,
                       epsabs=1e-14, limit=200)
        right, _ = quad(lambda x: x ** (-0.49) * (1 - x) * (xr - x) / g.h, xm, xr,
                        epsabs=1e-14, limit=200)
        assert loads[i - 1] == pytest.approx(left + right, abs=1e-11)


def test_zero_amplitude_load():
    g = build_uniform_spatial(8)
    assert np.array_equal(load_powerlaw(g, 0.0, -0.49), np.zeros(7))


def test_load_rejects_non_integrable():
    with pytest.raises(ValueError):
        load_powerlaw(build_uniform_spatial(4), 1.0, -1.0)


def test_sine_load_matches_quadrature():
    g = build_uniform_spatial(10)
    loads = load_descriptor(g, SineCombo(((2, 1.5),)))
    for i in (1, 4, 9):
        xl, xm, xr = g.nodes[i - 1], g.nodes[i], g.nodes[i + 1]
        left, _ = quad(lambda x: 1.5 * math.sin(2 * math.pi * x) * (x - xl) / g.h, xl, xm, epsabs=1e-14)
        right, _ = quad(lambda x: 1.5 * math.sin(2 * math.pi * x) * (xr - x) / g.h, xm, xr, epsabs=1e-14)
        assert loads[i - 1] == pytest.approx(left + right, abs=1e-13)


def test_zero_descriptor_load():
    g = build_uniform_spatial(6)
    assert np.array_equal(load_descriptor(g, Zero()), np.zeros(5))


def test_solve_identity_scaled():
    op = TriDiagonalOperator(7, 3.0, 0.0)
    rhs = np.arange(7.0)
    assert np.allclose(sine_solve(op, rhs), rhs / 3.0, rtol=0.0, atol=1e-14)


def test_solve_recovers_known():
    g = build_uniform_spatial(16)
    M = assemble_mass(g)
    x = np.sin(np.arange(15))
    got = sine_solve(M, M.apply(x))
    assert np.allclose(got, x, atol=1e-12)


def test_solve_against_dense_oracle(rng):
    # random stencils, the stiffness of a fine grid among them, and several
    # right sides at once along the last axis
    ops = [TriDiagonalOperator(m, 1.0 + rng.uniform(0.0, 1.0), rng.uniform(-0.5, 0.5))
           for m in (1, 4, 9, 32)]
    ops.append(assemble_stiffness(build_uniform_spatial(256)))
    for op in ops:
        rhs = rng.standard_normal((3, op.size))
        got = sine_solve(op, rhs)
        want = np.linalg.solve(dense(op), rhs.T).T
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert np.linalg.norm(op.apply(got) - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_eigenvalues_diagonalise_the_stencil():
    # the DST-I takes each stencil to the diagonal of its eigenvalues
    for n in (2, 3, 17):
        g = build_uniform_spatial(n)
        for op in (assemble_mass(g), assemble_stiffness(g)):
            eye = np.eye(op.size)
            got = sine_transform(op.apply(sine_transform(eye)))
            scale = np.max(np.abs(op.eigenvalues()))
            assert np.allclose(got, np.diag(op.eigenvalues()), rtol=0.0, atol=1e-14 * scale)
            assert np.allclose(np.sort(op.eigenvalues()), np.linalg.eigvalsh(dense(op)),
                               rtol=0.0, atol=1e-14 * scale)


def test_sine_transform_overwrites_a_column_view_bit_for_bit(rng):
    # the fixed point transforms each grid's columns of its march buffers
    # in place: the view must receive exactly the out-of-place transform
    A = rng.standard_normal((300, 40))
    for cols in (slice(0, 40), slice(5, 30)):
        want = sine_transform(A[:, cols].copy())
        view = A[:, cols]
        sine_transform(view, overwrite=True)
        assert np.array_equal(view, want)


def test_apply_rejects_the_wrong_size():
    with pytest.raises(ValueError, match="size 7"):
        assemble_mass(build_uniform_spatial(8)).apply(np.ones((2, 6)))


def test_operators_symmetric_positive(rng):
    g = build_uniform_spatial(24)
    M, K = assemble_mass(g), assemble_stiffness(g)
    for _ in range(5):
        v = rng.standard_normal(g.num_interior)
        assert v @ M.apply(v) > 0.0
        assert v @ K.apply(v) > 0.0

