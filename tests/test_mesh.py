import numpy as np
import pytest
from hypothesis import given, strategies as st

from fracctrl.mesh import (SpatialGrid, build_graded, build_uniform_spatial, default_sigmas,
                           merge_breakpoints)


def test_uniform_reduction():
    g = build_graded(2, 1.0, 1.0, 1.0)
    assert np.allclose(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0], rtol=0, atol=0)


def test_left_grading():
    g = build_graded(2, 2.0, 1.0, 1.0)
    assert np.allclose(g.nodes, [0.0, 0.125, 0.5, 0.75, 1.0], rtol=0, atol=0)


def test_right_grading():
    g = build_graded(2, 1.0, 2.0, 1.0)
    assert np.allclose(g.nodes, [0.0, 0.25, 0.5, 0.875, 1.0], rtol=0, atol=0)


def test_default_sigmas_values():
    s1, s2 = default_sigmas(0.8, 0.0)
    assert s1 == pytest.approx(6.0, rel=1e-14, abs=0.0) and s2 == 1.0
    s1, s2 = default_sigmas(0.4, 0.0)
    assert s1 == pytest.approx(8.0 / 3.0, rel=1e-14, abs=0.0)
    assert s2 == pytest.approx(8.0 / 7.0, rel=1e-14, abs=0.0)
    s1, s2 = default_sigmas(0.8, 0.25)
    assert s1 == pytest.approx(2.0, rel=1e-14, abs=0.0) and s2 == 1.0


def test_uniform_spatial():
    g = build_uniform_spatial(4)
    assert np.allclose(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0], rtol=0, atol=0)
    assert g.num_interior == 3
    assert build_uniform_spatial(10).h == pytest.approx(0.1)
    assert build_uniform_spatial(512).h == 1.0 / 512.0


def test_merge_simple():
    out = merge_breakpoints(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.25, 1.0]))
    assert np.allclose(out, [0.0, 0.25, 0.5, 1.0], rtol=0, atol=0)


def test_merge_identical_is_identity():
    a = build_graded(4, 2.0, 1.0, 1.0).nodes
    assert np.array_equal(merge_breakpoints(a, a), a)


def test_merge_against_brute_force_union():
    a = build_graded(2, 2.0, 1.0, 1.0).nodes
    b = build_graded(4, 2.0, 1.0, 1.0).nodes
    got = merge_breakpoints(a, b)
    # independent oracle: sorted concatenation, dropping near-duplicates
    naive = sorted(set(np.concatenate([a, b]).tolist()))
    dedup = [naive[0]]
    for v in naive[1:]:
        if v - dedup[-1] > 1e-14:
            dedup.append(v)
    assert np.allclose(got, dedup, rtol=0, atol=1e-15)


def test_merge_endpoint_mismatch():
    with pytest.raises(ValueError):
        merge_breakpoints(np.array([0.0, 1.0]), np.array([0.0, 2.0]))


@given(M=st.integers(2, 64), s1=st.floats(1.0, 6.0), s2=st.floats(1.0, 4.0),
       T=st.floats(0.25, 8.0))
def test_nodes_strictly_increase(M, s1, s2, T):
    g = build_graded(M, s1, s2, T)
    assert np.all(np.diff(g.nodes) > 0.0)
    assert g.nodes[0] == 0.0 and g.nodes[-1] == T


@given(M=st.integers(2, 64), s1=st.floats(1.0, 6.0), s2=st.floats(1.0, 4.0))
def test_halves_nest_exactly(M, s1, s2):
    g = build_graded(M, s1, s2, 1.0)
    assert g.nodes[M] == 0.5  # (M/M)^sigma is exactly 1.0


@given(M=st.integers(2, 64), s1=st.floats(1.0, 6.0))
def test_first_width_closed_form(M, s1):
    g = build_graded(M, s1, 1.0, 1.0)
    assert g.widths[0] == pytest.approx((1.0 / M) ** s1 * 0.5, rel=5e-16, abs=0.0)


def test_width_ratio_flattens_toward_center():
    M = 512
    g = build_graded(M, 3.0, 1.0, 1.0)
    ratio = g.widths[M - 2] / g.widths[M - 1]
    assert abs(ratio - 1.0) < 3.0 * 3.0 / M


def test_max_width_near_center_for_strict_grading():
    g = build_graded(32, 2.0, 1.5, 1.0)
    j = int(np.argmax(g.widths))
    assert j in (g.M - 1, g.M)


@given(M1=st.integers(2, 16), M2=st.integers(2, 16), s=st.floats(1.0, 4.0))
def test_merge_commutative_idempotent(M1, M2, s):
    a = build_graded(M1, s, 1.0, 1.0).nodes
    b = build_graded(M2, 1.0, s, 1.0).nodes
    ab = merge_breakpoints(a, b)
    ba = merge_breakpoints(b, a)
    assert np.array_equal(ab, ba)
    assert np.array_equal(merge_breakpoints(ab, ab), ab)


@pytest.mark.parametrize("bad", [
    dict(M=1, sigma1=1.0, sigma2=1.0, T=1.0),
    dict(M=4, sigma1=0.5, sigma2=1.0, T=1.0),
    dict(M=4, sigma1=1.0, sigma2=1.0, T=0.0),
])
def test_build_graded_rejects(bad):
    with pytest.raises(ValueError):
        build_graded(bad["M"], bad["sigma1"], bad["sigma2"], bad["T"])


def test_spatial_rejects_small():
    # the grid itself checks n, whether built directly or through the builder
    for n in (1, 2.5):
        with pytest.raises(ValueError, match="n must be an integer >= 2"):
            build_uniform_spatial(n)
        with pytest.raises(ValueError, match=f"got {n!r}"):
            SpatialGrid(n)
    assert type(SpatialGrid(np.int64(4)).n) is int


def test_default_sigmas_rejects():
    with pytest.raises(ValueError):
        default_sigmas(1.2, 0.0)
    with pytest.raises(ValueError):
        default_sigmas(0.5, 1.0)
