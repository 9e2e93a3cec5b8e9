import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracctrl.fracops import (assemble_coupling, half_derivative_oracle,
                              source_moments)
from fracctrl.mesh import build_graded


def uniform_grid(M):
    return build_graded(M, 1.0, 1.0, 1.0)


def test_uniform_diagonal_closed_form():
    alpha = 0.6
    g = uniform_grid(4)
    B = assemble_coupling(g, alpha)
    tau = 1.0 / 8.0
    want = tau ** (1.0 - alpha) / math.gamma(2.0 - alpha)
    for k in range(1, 9):
        assert B.entry(k, k) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_uniform_first_subdiagonal():
    alpha = 0.6
    g = uniform_grid(4)
    B = assemble_coupling(g, alpha)
    tau = 1.0 / 8.0
    want = (2.0 ** (1.0 - alpha) - 2.0) * tau ** (1.0 - alpha) / math.gamma(2.0 - alpha)
    assert want < 0.0
    for k in range(2, 9):
        assert B.entry(k, k - 1) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_strict_triangle():
    B = assemble_coupling(uniform_grid(3), 0.5)
    assert B.entry(2, 5) == 0.0
    assert B.entry(1, 6) == 0.0


def test_graded_entries_match_quadrature_oracle():
    # independent route: adaptive quadrature of the half-derivative products
    alpha = 0.4
    g = build_graded(4, 2.0, 1.0, 1.0)
    B = assemble_coupling(g, alpha)
    for k in range(1, 9):
        for j in range(1, k + 1):
            o = half_derivative_oracle(g, alpha, j, k)
            b = B.entry(k, j)
            assert abs(o - b) <= 1e-8 * max(abs(b), 1e-4)


def test_oracle_diagonal_small_uniform():
    g = uniform_grid(2)
    B = assemble_coupling(g, 0.5)
    o = half_derivative_oracle(g, 0.5, 1, 1)
    assert o == pytest.approx(B.entry(1, 1), abs=1e-8)


def test_oracle_causal_zero():
    g = uniform_grid(2)
    assert half_derivative_oracle(g, 0.5, 3, 2) == 0.0


def test_oracle_small_alpha_limit():
    # as the order vanishes the diagonal tends to the slab width
    alpha = 0.02
    g = uniform_grid(2)
    o = half_derivative_oracle(g, alpha, 2, 2)
    tau = 0.25
    want = tau ** (1.0 - alpha) / math.gamma(2.0 - alpha)
    assert o == pytest.approx(want, rel=1e-6)
    assert o == pytest.approx(tau, rel=0.05)


def test_oracle_rejects_large_grids():
    with pytest.raises(ValueError):
        half_derivative_oracle(build_graded(64, 1.0, 1.0, 1.0), 0.5, 1, 1)


def test_source_moments_uniform_first():
    alpha = 0.7
    g = uniform_grid(4)
    m = source_moments(g, alpha)
    assert m.values[0] == pytest.approx((1.0 / 8.0) ** (1 - alpha) / math.gamma(2 - alpha),
                                        rel=1e-14, abs=0.0)


def test_source_moments_telescoping():
    alpha = 0.3
    g = build_graded(8, 2.5, 1.3, 1.0)
    m = source_moments(g, alpha)
    assert m.values.sum() == pytest.approx(1.0 / math.gamma(2.0 - alpha), rel=1e-13, abs=0.0)


def test_source_moments_sqrt_pattern():
    m = source_moments(uniform_grid(2), 0.5)
    g = math.gamma(1.5)
    want = np.array([math.sqrt(0.25), math.sqrt(0.5) - math.sqrt(0.25),
                     math.sqrt(0.75) - math.sqrt(0.5), 1.0 - math.sqrt(0.75)]) / g
    assert np.allclose(m.values, want, rtol=1e-14)


@given(M=st.integers(2, 10), s1=st.floats(1.0, 4.0), s2=st.floats(1.0, 3.0),
       alpha=st.floats(0.05, 0.8))
def test_row_sums_telescope(M, s1, s2, alpha):
    g = build_graded(M, s1, s2, 1.0)
    B = assemble_coupling(g, alpha)
    m = source_moments(g, alpha)
    rel = np.abs(B.row_sums() - m.values) / np.abs(m.values)
    assert rel.max() < 1e-13


@given(M=st.integers(2, 10), s2=st.floats(1.0, 3.0), alpha=st.floats(0.8, 0.99))
def test_row_sums_telescope_extreme_orders(M, s2, alpha):
    # near alpha = 1 the exponent 1-alpha is tiny and the telescoped
    # differences cancel; a little extra slack is needed there
    g = build_graded(M, 2.0, s2, 1.0)
    B = assemble_coupling(g, alpha)
    m = source_moments(g, alpha)
    rel = np.abs(B.row_sums() - m.values) / np.abs(m.values)
    assert rel.max() < 1e-11


@given(M=st.integers(2, 10), s1=st.floats(1.0, 4.0), alpha=st.floats(0.05, 0.95))
def test_sign_pattern(M, s1, alpha):
    g = build_graded(M, s1, 1.0, 1.0)
    B = assemble_coupling(g, alpha).dense()
    assert np.all(np.diag(B) > 0.0)
    sub = B[np.tril_indices_from(B, k=-1)]
    assert np.all(sub < 0.0)
    assert np.all(B[np.triu_indices_from(B, k=1)] == 0.0)


@settings(max_examples=20)
@given(M=st.integers(2, 32), alpha=st.floats(0.1, 0.9), seed=st.integers(0, 2**30))
def test_coercivity(M, alpha, seed):
    g = build_graded(M, 2.0, 1.2, 1.0)
    B = assemble_coupling(g, alpha).dense()
    v = np.random.default_rng(seed).standard_normal(2 * M)
    assert v @ B @ v > 0.0
    assert np.linalg.eigvalsh(0.5 * (B + B.T)).min() > 0.0


def test_backward_difference_limit():
    alpha = 0.999
    B = assemble_coupling(uniform_grid(8), alpha)
    for k in (4, 16):
        assert abs(B.entry(k, k) - 1.0) < 1e-2
        assert abs(B.entry(k, k - 1) + 1.0) < 1e-2


def test_block_slices_of_dense():
    g = build_graded(20, 3.0, 1.2, 1.0)  # 2M = 40
    B = assemble_coupling(g, 0.4)
    D = B.dense()
    K = 40
    for k0, k1, j0, j1 in ((0, 40, 0, 40), (5, 17, 0, 17), (17, 33, 3, 29),
                           (0, 8, 20, 40), (39, 40, 0, 40), (12, 13, 12, 13)):
        assert np.array_equal(B.block(k0, k1, j0, j1), D[k0:k1, j0:j1])
    # the near field the adjoint march uses: rows k0..k1-1 of the
    # time-reversed transpose, columns max(k0-1, 0)..k1-1
    Dr = D[::-1, ::-1].T
    for k0, k1 in ((0, 16), (16, 32), (32, 40)):
        j0 = max(k0 - 1, 0)
        near = B.block(K - k1, K - j0, K - k1, K - k0)[::-1, ::-1].T
        assert np.array_equal(near, Dr[k0:k1, j0:k1])


def test_assemble_rejects_bad_alpha():
    with pytest.raises(ValueError):
        assemble_coupling(uniform_grid(2), 1.0)
