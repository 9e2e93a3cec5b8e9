import math

import numpy as np
import pytest

from fracctrl.control import ControlField, project_admissible
from fracctrl.harness import (ConvergenceTable, ExperimentConfig,
                              clear_solve_cache, emit_table, error_l2l2,
                              estimate_order, forward_single_mode_error,
                              read_table_csv, render_table, run_spatial_study,
                              run_temporal_study)
from fracctrl import harness
from fracctrl.mesh import (build_graded, build_uniform_spatial, default_sigmas,
                           merge_breakpoints)
from fracctrl.solver import SpaceTimeField


def test_estimate_order_exact():
    assert estimate_order(4e-3, 1e-3, 10, 20) == pytest.approx(2.0, rel=1e-12)


def test_estimate_order_pinned_rows():
    # regression-pinned digit pairs and the orders they must print as
    assert round(estimate_order(2.12e-3, 5.94e-4, 10, 20), 2) == 1.84
    assert round(estimate_order(3.06e-4, 1.54e-4, 2 ** 8, 2 ** 9), 2) == 0.99


def test_estimate_order_degenerate():
    assert math.isnan(estimate_order(0.0, 1e-3, 10, 20))
    with pytest.raises(ValueError):
        estimate_order(1e-3, 1e-4, 10, 10)


def make_field(tg, xg, rng, scale=1.0):
    return SpaceTimeField(tg, xg, scale * rng.standard_normal(
        (tg.num_slabs, xg.num_interior)))


def test_error_same_field_zero(rng):
    tg = build_graded(4, 2.0, 1.0, 1.0)
    xg = build_uniform_spatial(8)
    f = make_field(tg, xg, rng)
    assert error_l2l2(f, f) == 0.0


def test_error_nested_rerepresentation_zero():
    coarse = build_graded(2, 1.0, 1.0, 1.0)
    fine = build_graded(4, 1.0, 1.0, 1.0)
    xg = build_uniform_spatial(4)
    vals = np.arange(4.0 * 3).reshape(4, 3)
    A = SpaceTimeField(coarse, xg, vals)
    B = SpaceTimeField(fine, xg, np.repeat(vals, 2, axis=0))
    assert error_l2l2(A, B) <= 1e-14


def time_constant(xg, coeffs):
    """A field on four uniform slabs of (0, 1) that is the same finite
    element function on each: its space-time distance is the spatial one."""
    tg = build_graded(2, 1.0, 1.0, 1.0)
    return SpaceTimeField(tg, xg, np.tile(coeffs, (tg.num_slabs, 1)))


def test_error_spatially_nested_rerepresentation_zero():
    # the coarse hat on n=2, written out on the nested grid n=4
    coarse = time_constant(build_uniform_spatial(2), np.array([1.0]))
    fine = time_constant(build_uniform_spatial(4), np.array([0.5, 1.0, 0.5]))
    assert error_l2l2(coarse, fine) <= 1e-15


def test_error_metric_properties_across_spatial_grids(rng):
    grids = [build_uniform_spatial(n) for n in (5, 8, 13)]
    fs = [time_constant(g, rng.standard_normal(g.num_interior)) for g in grids]
    for i in range(3):
        for j in range(3):
            assert error_l2l2(fs[i], fs[j]) == pytest.approx(
                error_l2l2(fs[j], fs[i]), rel=1e-12, abs=0.0)
    d01, d12, d02 = (error_l2l2(fs[0], fs[1]), error_l2l2(fs[1], fs[2]),
                     error_l2l2(fs[0], fs[2]))
    assert d02 <= d01 + d12 + 1e-12


def test_error_against_tensor_quadrature(rng):
    ta = build_graded(2, 2.0, 1.0, 1.0)
    tb = build_graded(3, 1.5, 1.2, 1.0)
    xa = build_uniform_spatial(5)
    xb = build_uniform_spatial(7)
    A = make_field(ta, xa, rng)
    B = make_field(tb, xb, rng)
    got = error_l2l2(A, B)
    # independent tensor quadrature: merge slabs by brute sort, Simpson with
    # 1e4 aligned panels in space per merged slab
    ts = sorted(set(ta.nodes.tolist()) | set(tb.nodes.tolist()))
    total = 0.0
    xs = np.union1d(np.linspace(0.0, 1.0, 10001), np.union1d(xa.nodes, xb.nodes))
    mids = 0.5 * (xs[:-1] + xs[1:])
    w = np.diff(xs)
    for lo, hi in zip(ts[:-1], ts[1:]):
        tm = 0.5 * (lo + hi)
        ia = int(np.searchsorted(ta.nodes, tm) - 1)
        ib = int(np.searchsorted(tb.nodes, tm) - 1)
        va = np.concatenate([[0], A.values[ia], [0]])
        vb = np.concatenate([[0], B.values[ib], [0]])

        def dsq(x):
            return (np.interp(x, xa.nodes, va) - np.interp(x, xb.nodes, vb)) ** 2

        seg = float(np.sum(w / 6.0 * (dsq(xs[:-1]) + 4 * dsq(mids) + dsq(xs[1:]))))
        total += (hi - lo) * seg
    assert got == pytest.approx(math.sqrt(total), rel=1e-8)


def test_error_metric_properties(rng):
    tg1 = build_graded(2, 1.0, 1.0, 1.0)
    tg2 = build_graded(3, 2.0, 1.0, 1.0)
    xg = build_uniform_spatial(6)
    fs = [make_field(tg1, xg, rng), make_field(tg2, xg, rng),
          make_field(tg1, xg, rng)]
    assert error_l2l2(fs[0], fs[1]) == pytest.approx(error_l2l2(fs[1], fs[0]), rel=1e-13, abs=0.0)
    d01 = error_l2l2(fs[0], fs[1])
    d12 = error_l2l2(fs[1], fs[2])
    d02 = error_l2l2(fs[0], fs[2])
    assert d02 <= d01 + d12 + 1e-12


def test_error_controls_cross_grading(rng):
    # controls with kinks on different grids agree with dense sampling
    tg1 = build_graded(2, 2.0, 1.0, 1.0)
    tg2 = build_graded(2, 1.0, 1.0, 1.0)
    xg = build_uniform_spatial(6)
    Ua = project_admissible(make_field(tg1, xg, rng, 0.3), 1.0, -0.1, 0.1)
    Ub = project_admissible(make_field(tg2, xg, rng, 0.3), 1.0, -0.1, 0.1)
    got = error_l2l2(Ua, Ub)
    ts = sorted(set(tg1.nodes.tolist()) | set(tg2.nodes.tolist()))
    xs = np.linspace(0.0, 1.0, 20001)
    mids = 0.5 * (xs[:-1] + xs[1:])
    w = np.diff(xs)
    total = 0.0
    for lo, hi in zip(ts[:-1], ts[1:]):
        tm = 0.5 * (lo + hi)
        d = Ua.sample_lattice([tm], xs)[0] - Ub.sample_lattice([tm], xs)[0]
        dm = Ua.sample_lattice([tm], mids)[0] - Ub.sample_lattice([tm], mids)[0]
        seg = float(np.sum(w / 6.0 * (d[:-1] ** 2 + 4 * dm ** 2 + d[1:] ** 2)))
        total += (hi - lo) * seg
    assert got == pytest.approx(math.sqrt(total), abs=2e-6)


def per_slab_error(A, B):
    """The exact space-time distance one merged slab at a time, from
    merge_breakpoints, np.interp and the per-piece formula."""
    def row(F, k):
        if isinstance(F, ControlField):
            return F.pieces[k]
        return F.xgrid.nodes, np.concatenate([[0.0], F.values[k], [0.0]])

    ts = merge_breakpoints(A.tgrid.nodes, B.tgrid.nodes)
    total = 0.0
    for lo, hi in zip(ts[:-1], ts[1:]):
        tm = 0.5 * (lo + hi)
        (xa, va), (xb, vb) = (row(F, int(np.searchsorted(F.tgrid.nodes, tm)) - 1)
                              for F in (A, B))
        xs = merge_breakpoints(xa, xb)
        d = np.interp(xs, xa, va) - np.interp(xs, xb, vb)
        total += (hi - lo) * float(np.sum(np.diff(xs) * (d[:-1] ** 2 + d[:-1] * d[1:]
                                                         + d[1:] ** 2))) / 3.0
    return math.sqrt(total)


def test_error_across_both_grids_matches_per_slab_reference(rng):
    # 128 and 96 slabs merge into more than 160, so the kernel's blocks of
    # PANEL merged slabs cross block boundaries
    tg1 = build_graded(64, 2.0, 1.2, 1.0)
    tg2 = build_graded(48, 1.5, 1.0, 1.0)
    assert merge_breakpoints(tg1.nodes, tg2.nodes).size - 1 >= 160
    x1, x2 = build_uniform_spatial(7), build_uniform_spatial(12)
    Y = make_field(tg2, x2, rng, 0.3)
    Ua = project_admissible(make_field(tg1, x1, rng, 0.3), 1.0, -0.1, 0.1)
    Ub = project_admissible(Y, 1.0, 0.02, 0.2)  # nonzero at x = 0 and x = 1
    Uo = project_admissible(make_field(tg2, x2, rng, 0.3), 1.0, 0.05, math.inf)  # one-sided
    for U in (Ua, Ub, Uo):  # with kinks
        assert sum(xs.size for xs, _ in U.pieces) > U.tgrid.num_slabs * (U.xgrid.n + 1)
    pairs = [(Ua, Ub), (Ub, Ua), (Ua, Y), (Y, Ua), (Uo, Ua), (Ua, Uo), (Uo, Y)]

    # on the lattice of n=8 and n=4, the piece [3/8, 1/2] holds two cuts of
    # each control on every slab
    tg = build_graded(4, 1.0, 1.0, 1.0)
    x4, x8 = build_uniform_spatial(4), build_uniform_spatial(8)
    grow = 1.0 + 0.1 * np.arange(tg.num_slabs)[:, None]
    Ca = ControlField(tg, x8, -0.1, 0.1, grow * [0, 0, 0, -0.2, 0.2, 0, 0, 0, 0])
    Cb = ControlField(tg, x4, -0.1, 0.1, grow * [0, -0.9, 0.3, 0, 0])
    for C in (Ca, Cb):
        assert all(np.sum((xs > 0.375) & (xs < 0.5)) == 2 for xs, _ in C.pieces)
    # cuts at the lattice point 3/8, and 1.25e-15 (within MERGE_RTOL) above it
    on, near = (ControlField(tg, x4, -0.1, hi, np.tile([0, 0, 0.2, 0, 0], (tg.num_slabs, 1)))
                for hi in (0.1, 0.1 + 1e-15))
    assert on.pieces[0][0][2] == 0.375 and 0.0 < near.pieces[0][0][2] - 0.375 < 1e-14
    pairs += [(Ca, Cb), (Cb, Ca), (on, Ca), (Ca, near), (near, make_field(tg, x8, rng, 0.1))]

    # a spatial study's pair: one temporal grid of 80 slabs, n=10 against n=256
    tg80 = build_graded(40, 1.5, 1.0, 1.0)
    Y10, Y256 = (make_field(tg80, build_uniform_spatial(n), rng, 0.3) for n in (10, 256))
    U10, U256 = (project_admissible(F, 1.0, -0.1, 0.1) for F in (Y10, Y256))
    pairs += [(U10, U256), (U256, U10), (Y10, Y256), (Y10, U256)]
    for A, B in pairs:
        assert error_l2l2(A, B) == pytest.approx(per_slab_error(A, B), rel=1e-13, abs=0.0)


def test_error_merges_rows_like_merge_breakpoints(rng):
    # 2M = 160 slabs: the kernel's blocks of PANEL merged slabs cross two
    # block boundaries
    tg = build_graded(80, 2.0, 1.0, 1.0)
    x3, x33 = build_uniform_spatial(3), build_uniform_spatial(33)
    # the shared nodes 1/3 and 2/3 differ by rounding, less than the merge
    # tolerance: they coalesce in the lattice
    assert x3.nodes[1] != x33.nodes[11] and x3.nodes[2] != x33.nodes[22]
    assert np.max(np.abs(x3.nodes - x33.nodes[::11])) < 1e-15
    assert merge_breakpoints(x3.nodes, x33.nodes).size == x33.n + 1
    Ua, Ub = (project_admissible(make_field(tg, xg, rng, 0.3), 1.0, -0.1, 0.1)
              for xg in (x3, x33))
    Y3, Y33 = make_field(tg, x3, rng, 0.3), make_field(tg, x33, rng, 0.3)
    for A, B in ((Ua, Ub), (Ub, Ua), (Y3, Ub), (Ua, Y33), (Y3, Y33)):
        assert error_l2l2(A, B) == pytest.approx(per_slab_error(A, B), rel=1e-13, abs=0.0)
    # the same nodal function written out on the nested grid is the same
    # field: the near-coincident nodes leave no sliver between them
    on_x33 = lambda v: np.interp(x33.nodes, x3.nodes, v)
    Ym = SpaceTimeField(tg, x33, np.array([on_x33(np.r_[0.0, v, 0.0])[1:-1] for v in Y3.values]))
    Um = ControlField(tg, x33, -0.1, 0.1, np.array([on_x33(w) for w in Ua.w]))
    assert error_l2l2(Y3, Ym) < 1e-14 and error_l2l2(Ym, Y3) < 1e-14
    assert error_l2l2(Ua, Um) < 1e-14 and error_l2l2(Um, Ua) < 1e-14


def test_error_rejects_interval_mismatch(rng):
    xg = build_uniform_spatial(4)
    A = make_field(build_graded(2, 1.0, 1.0, 1.0), xg, rng)
    B = make_field(build_graded(2, 1.0, 1.0, 2.0), xg, rng)
    with pytest.raises(ValueError):
        error_l2l2(A, B)


def tiny_temporal_cfg(**over):
    base = dict(kind="temporal-study", alpha=0.7, r=0.0, grading="graded",
                points=(3, 4), reference=5, fixed=8)
    base.update(over)
    return ExperimentConfig(**base)


def test_temporal_study_wiring():
    clear_solve_cache()
    table = run_temporal_study(tiny_temporal_cfg())
    assert len(table.rows) == 2
    p0, eY0, oY0, *_ = table.rows[0]
    p1, eY1, oY1, *_ = table.rows[1]
    assert p0 == 8 and p1 == 16
    assert eY0 > eY1 > 0.0
    assert math.isnan(oY0) and oY0 != oY1
    assert table.metadata["norm"] == "L2(0,T;L2(0,1))"


def test_uniform_table_names_the_sigma_of_its_rows():
    # the rows run on uniform grids, the reference on the default grading
    clear_solve_cache()
    table = run_temporal_study(tiny_temporal_cfg(alpha=0.4, grading="uniform"))
    s1, s2 = default_sigmas(0.4, 0.0)
    md = table.metadata
    assert (md["sigma1"], md["sigma2"]) == (1.0, 1.0)
    assert (md["ref_sigma1"], md["ref_sigma2"]) == (s1, s2)
    head = render_table(table, "text").splitlines()[0]
    assert f"sigma1=1 sigma2=1 ref_sigma1={s1:.4g} ref_sigma2={s2:.4g}" in head


def test_spatial_study_wiring():
    clear_solve_cache()
    cfg = ExperimentConfig(kind="spatial-study", alpha=0.7, r=0.0,
                           grading="graded", points=(4, 8), reference=16,
                           fixed=4)
    table = run_spatial_study(cfg)
    assert len(table.rows) == 2
    assert table.rows[1][1] < table.rows[0][1]


def test_study_determinism():
    clear_solve_cache()
    t1 = render_table(run_temporal_study(tiny_temporal_cfg()), "csv")
    clear_solve_cache()
    t2 = render_table(run_temporal_study(tiny_temporal_cfg()), "csv")
    assert t1 == t2


def _count_solves(monkeypatch):
    """Every grid that the study solves, as (M, sigma1, sigma2, n), and each
    group call as the list of its grids."""
    calls, groups = [], []
    real = harness.fixed_point_solves

    def counted(spec, tgrid, xgrids):
        groups.append([(tgrid.M, tgrid.sigma1, tgrid.sigma2, xg.n) for xg in xgrids])
        calls.extend(groups[-1])
        return real(spec, tgrid, xgrids)

    monkeypatch.setattr(harness, "fixed_point_solves", counted)
    return calls, groups


def test_shared_reference_solved_once(monkeypatch):
    # the spatial reference (m=5, n=16) and the temporal reference (m=5,
    # n=16) build the same graded grids; the temporal rows run on uniform
    # grids, which the reference never does
    calls, _ = _count_solves(monkeypatch)
    clear_solve_cache()
    run_spatial_study(ExperimentConfig(kind="spatial-study", alpha=0.7, r=0.0,
                                       grading="graded", points=(4, 8),
                                       reference=16, fixed=5))
    run_temporal_study(tiny_temporal_cfg(grading="uniform", fixed=16))
    s1, s2 = default_sigmas(0.7, 0.0)
    assert calls.count((2 ** 5, s1, s2, 16)) == 1
    assert sorted(calls) == sorted([(2 ** 5, s1, s2, 16), (2 ** 5, s1, s2, 4),
                                    (2 ** 5, s1, s2, 8), (2 ** 3, 1.0, 1.0, 16),
                                    (2 ** 4, 1.0, 1.0, 16)])


def test_spatial_study_solves_its_grids_as_one_group(monkeypatch):
    # the reference and every row share the temporal grid, so one call
    # solves them all; a temporal study's grids differ in time, one call each
    _, groups = _count_solves(monkeypatch)
    clear_solve_cache()
    run_spatial_study(ExperimentConfig(kind="spatial-study", alpha=0.7, r=0.0,
                                       grading="graded", points=(4, 8),
                                       reference=16, fixed=5))
    s1, s2 = default_sigmas(0.7, 0.0)
    assert groups == [[(2 ** 5, s1, s2, 16), (2 ** 5, s1, s2, 4), (2 ** 5, s1, s2, 8)]]
    run_temporal_study(tiny_temporal_cfg(fixed=12))
    assert [len(g) for g in groups] == [3, 1, 1, 1]


def test_solve_cache_evicts_least_recently_used(monkeypatch):
    calls, _ = _count_solves(monkeypatch)
    # a triple on 2M = 2^(m+1) slabs, n=8 takes (9 + 7 + 7) * 8 bytes a
    # slab: m=2 and m=3 fit together, m=2, 3 and 4 do not, m=2 and 4 do
    monkeypatch.setattr(harness, "_SOLVE_CACHE_BYTES", 184 * (8 + 32))
    clear_solve_cache()
    spec = harness.default_experiment_spec(0.7, 0.0)

    def solve(m):
        return harness._solve_points(spec, tiny_temporal_cfg(), [(m, 8, False)])[0]

    a = solve(2)
    solve(3)
    assert solve(2)[0] is a[0]    # a hit, which refreshes m=2
    solve(4)                      # evicts m=3, the least recently used
    assert solve(2)[0] is a[0]
    solve(3)
    assert [c[0] for c in calls] == [4, 8, 16, 8]


def test_solve_cache_triple_above_the_bound_evicts_the_rest(monkeypatch):
    calls, _ = _count_solves(monkeypatch)
    monkeypatch.setattr(harness, "_SOLVE_CACHE_BYTES", 184 * (8 + 16))
    clear_solve_cache()
    spec = harness.default_experiment_spec(0.7, 0.0)

    def solve(m):
        return harness._solve_points(spec, tiny_temporal_cfg(), [(m, 8, False)])[0]

    solve(2)
    solve(3)
    big = solve(5)                # 64 slabs alone, above the bound
    assert len(harness._solve_cache) == 1
    assert harness._triple_bytes(big) == 184 * 64
    assert solve(5)[0] is big[0]  # kept, so a hit
    solve(2)                      # evicts m=5, which no longer fits
    assert len(harness._solve_cache) == 1
    assert [c[0] for c in calls] == [4, 8, 32, 4]


def test_reference_self_distance_zero():
    clear_solve_cache()
    cfg = tiny_temporal_cfg()
    run_temporal_study(cfg)
    from fracctrl.harness import _solve_cache
    key = [k for k in _solve_cache if k[2] == 2 ** cfg.reference][0]
    Ur, Yr, Pr = _solve_cache[key]
    assert error_l2l2(Yr, Yr) == 0.0 and error_l2l2(Ur, Ur) == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="mystery", alpha=0.5, r=0.0)
    with pytest.raises(ValueError):
        tiny_temporal_cfg(points=(4, 3))
    with pytest.raises(ValueError):
        tiny_temporal_cfg(points=(3, 5), reference=5)
    with pytest.raises(ValueError):
        run_spatial_study(tiny_temporal_cfg())
    with pytest.raises(ValueError):
        run_temporal_study(ExperimentConfig(kind="spatial-study", alpha=0.5,
                                            r=0.0, points=(4,), reference=8,
                                            fixed=4))
    with pytest.raises(ValueError):
        run_spatial_study(ExperimentConfig(kind="spatial-study", alpha=0.5,
                                           r=0.0, grading="uniform",
                                           points=(4,), reference=8, fixed=4))


def test_config_names_a_missing_axis():
    with pytest.raises(ValueError, match="points"):
        ExperimentConfig(kind="temporal-study", alpha=0.5, r=0.0)
    base = dict(kind="spatial-study", alpha=0.5, r=0.0, points=(4, 8), reference=16, fixed=3)
    for field, bad in (("points", ()), ("fixed", 0), ("reference", -16)):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{**base, field: bad})


def test_emit_empty_table():
    t = ConvergenceTable(rows=[], metadata=dict(alpha=0.5, r=0.0, grading="graded",
                                                sigma1=1.0, sigma2=1.0,
                                                norm="L2(0,T;L2(0,1))"))
    csv_text = render_table(t, "csv")
    assert csv_text == "param,errY,ordY,errP,ordP,errU,ordU\n"


def test_single_row_has_no_orders():
    t = ConvergenceTable(rows=[(10, 1e-3, math.nan, 2e-3, math.nan, 3e-3, math.nan)],
                         metadata=dict(alpha=0.5, r=0.0, grading="graded",
                                       sigma1=2.0, sigma2=1.0, norm="x"))
    text = render_table(t, "text")
    assert "--" in text
    csv_text = render_table(t, "csv")
    assert ",,," not in csv_text.splitlines()[0]
    assert csv_text.splitlines()[1].split(",")[2] == ""


def test_csv_round_trip(tmp_path):
    rows = [(10, 1.234567890123e-3, math.nan, 2e-3, math.nan, 3e-3, math.nan),
            (20, 3.33066907387547e-4, 1.8899999, 5e-4, 2.0, 7e-4, 2.1)]
    t = ConvergenceTable(rows=rows, metadata={})
    path = tmp_path / "table.csv"
    emit_table(t, "csv", path)
    back = read_table_csv(path.read_text())
    for r0, r1 in zip(rows, back.rows):
        assert r0[0] == r1[0]
        for a, b in zip(r0[1:], r1[1:]):
            if math.isnan(a):
                assert math.isnan(b)
            else:
                assert b == pytest.approx(a, rel=1e-15, abs=0.0)


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        render_table(ConvergenceTable(rows=[], metadata={}), "yaml")


def test_forward_validation_smoke():
    e = forward_single_mode_error(0.5, 5, 32, flavor="homogeneous")
    assert 0.0 < e < 0.05
    e2 = forward_single_mode_error(0.5, 5, 32, flavor="constant_source")
    assert 0.0 < e2 < 0.05
    with pytest.raises(ValueError):
        forward_single_mode_error(0.5, 5, 32, flavor="mystery")
