import math
import sys
import time

import mpmath
import numpy as np
import pytest
from scipy.special import erfc, erfcx

from fracctrl import harness, mittag
from fracctrl.harness import forward_single_mode_error
from fracctrl.mesh import build_graded, build_uniform_spatial, grading_exponents
from fracctrl.mittag import (_MAX_DPS, MlAccuracyError, SpectralSolution, _asymptotic,
                             _series_certified, _series_mp, _series_peak_log10,
                             crossover_z0, ml, spectral_state)
from fracctrl.solver import PANEL


def mp_series_oracle(beta, gamma_, z, dps=50):
    """Straight high-precision series summation, independent of the package
    evaluation paths.  The gamma arguments are formed at ``dps`` digits: a
    k*beta rounded to double perturbs every term by ~1e-16 relative, which
    the cancellation amplifies by the peak/result ratio."""
    with mpmath.workdps(dps):
        s = mpmath.mpf(0)
        zz = mpmath.mpf(z)
        b = mpmath.mpf(beta)
        for k in range(100000):
            arg = k * b + gamma_
            term = zz ** k / mpmath.gamma(arg)
            s += term
            if arg > abs(zz) ** (1 / b) and abs(term) < mpmath.mpf(10) ** (-dps - 10):
                break
        return float(s)


def mp_asymptotic_oracle(beta, gamma_, z, dps=30):
    """sum_k (-1)^(k+1) x^-k / Gamma(gamma - k beta) at x = -z and ``dps``
    digits, or None when it cannot reach 1e-20.  For 0 < beta < 1 the
    expansion has no exponentially small part on the negative axis.  The
    sum stops on the envelope x^-k Gamma(1 - a) / pi (a = gamma - k beta
    < 1/2, the reflection bound on |1/Gamma(a)|; 1/Gamma(a) above), so a
    term that is small only because a sits near a pole does not stop it."""
    with mpmath.workdps(dps):
        x = -mpmath.mpf(z)
        b = mpmath.mpf(beta)
        s = mpmath.mpf(0)
        prev = mpmath.inf
        for k in range(1, 1000):
            a = gamma_ - k * b
            xk = x ** k
            s += (-1) ** (k + 1) * mpmath.rgamma(a) / xk
            env = (mpmath.gamma(1 - a) / mpmath.pi if a < 0.5 else mpmath.rgamma(a)) / xk
            if env < mpmath.mpf(10) ** -20 * abs(s):
                return float(s)
            if env > prev:
                return None
            prev = env
        return None


def assert_rel(got, want, rel, *info):
    # pytest.approx(rel=...) also passes anything within 1e-12 absolute
    assert abs(got - want) <= rel * abs(want), (got, want, *info)


def test_value_at_zero():
    for beta, gam in ((0.5, 1.0), (0.8, 1.8), (0.3, 2.0), (1.0, 1.0)):
        assert ml(beta, gam, 0.0) == 1.0 / math.gamma(gam)
        assert ml(beta, gam, np.zeros(3)).tolist() == [1.0 / math.gamma(gam)] * 3


def test_exponential_special_case():
    assert ml(1.0, 1.0, -2.0) == pytest.approx(math.exp(-2.0), rel=1e-14, abs=0.0)


def test_erfc_special_case_against_high_precision_series():
    want = mp_series_oracle(0.5, 1.0, -1.0)
    assert want == pytest.approx(math.e * erfc(1.0), rel=1e-13, abs=0.0)
    assert ml(0.5, 1.0, -1.0) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_half_order_matches_scaled_erfc():
    for t in (0.25, 1.0, 4.0, 9.0, 16.0, 25.0, 64.0):
        assert ml(0.5, 1.0, -t) == pytest.approx(float(erfcx(t)), rel=5e-13, abs=0.0)


def test_domain_errors():
    with pytest.raises(ValueError):
        ml(0.5, 1.0, 0.5)
    for bad in (-math.inf, math.nan, np.array([-1.0, math.nan])):
        with pytest.raises(ValueError):
            ml(0.5, 1.0, bad)
    with pytest.raises(ValueError):
        ml(-0.5, 1.0, -1.0)
    with pytest.raises(ValueError):
        ml(0.5, 0.0, -1.0)


def test_random_orders_against_series_oracle(rng):
    for _ in range(12):
        beta = float(rng.uniform(0.3, 0.95))
        gam = float(rng.choice([1.0, 1.0 + beta]))
        z = -float(rng.uniform(0.0, 6.0))
        assert ml(beta, gam, z) == pytest.approx(
            mp_series_oracle(beta, gam, z), rel=1e-12, abs=0.0)


def test_quadrature_against_certified_oracles():
    # the double-precision quadrature on a seeded sample with |z|
    # log-spread over [1e-20, 1e3], against the 30-digit asymptotic sum
    # where it reaches 1e-20 and against the straight series, at the peak
    # term's digits plus 30, where it does not
    rng = np.random.default_rng(6)
    for i in range(160):
        beta = 0.3 if i < 8 else float(rng.uniform(0.3, 0.95))
        gam = float(rng.choice([1.0, 1.0 + beta]))
        z = -float(10.0 ** rng.uniform(-20.0, 3.0))
        want = mp_asymptotic_oracle(beta, gam, z)
        if want is None:
            dps = int(max(_series_peak_log10(beta, gam, z), 0.0)) + 30
            want = mp_series_oracle(beta, gam, z, dps=dps)
        assert_rel(ml(beta, gam, z), want, 1e-13, beta, gam, z)


def test_quadrature_runs_without_extended_precision(monkeypatch):
    # inside its domain ml neither sums the series nor imports mpmath
    def refuse(*args):
        raise AssertionError("certified path taken")

    monkeypatch.setattr(mittag, "_ml_certified", refuse)
    monkeypatch.setitem(sys.modules, "mpmath", None)  # an import of it raises
    zs = -np.logspace(-20.0, 3.0, 24)
    for beta in (0.3, 0.5, 0.95):
        for gam in (1.0, 1.0 + beta):
            assert np.all(np.isfinite(ml(beta, gam, zs)))


def test_array_input_matches_scalar_calls_bitwise():
    zs = np.concatenate([-np.logspace(-20.0, 3.0, 93), [0.0, -1e-300, -1e300]])
    for beta in (0.3, 0.5, 0.8, 0.95):
        for gam in (1.0, 1.0 + beta):
            got = ml(beta, gam, zs)
            assert isinstance(ml(beta, gam, zs[0]), float)
            assert got.tolist() == [ml(beta, gam, z) for z in zs]
            grid = ml(beta, gam, zs[:90].reshape(9, 10))
            assert grid.tolist() == got[:90].reshape(9, 10).tolist()


def per_node_ml(beta, gam, zs):
    """The quadrature of `ml` summed one z at a time, with every (z, node)
    pair forming its own y = j eta and density, as it was before the
    lattice tables."""
    eta, sigma, norm = mittag._quadrature(beta, gam)
    out = []
    for z in zs.tolist():
        x = np.maximum(np.array([-z]), mittag._X_FLOOR)
        m, e = np.frexp(x)
        lx_hi, lx_lo = e * mittag._LN2_HI, e * mittag._LN2_LO + np.log(m)
        lo, hi = mittag._windows(beta, gam == 1.0, lx_hi + lx_lo)
        j0 = np.floor(lo / eta)
        q = mittag._ROW_QUANTUM
        w = int((np.ceil(hi / eta) - j0 + q).astype(np.int64)[0]) // q * q
        y = (j0[:, None] + np.arange(w)) * eta
        with np.errstate(over="ignore"):
            rs = np.exp((y + lx_hi[:, None] + lx_lo[:, None]) / beta)
        k = np.exp(-rs) if gam == 1.0 else -np.expm1(-rs)
        v = (k * mittag._density(y, sigma)).sum(axis=1) / norm
        out.append(1.0 / math.gamma(gam) if z == 0.0 else (v if gam == 1.0 else v / x)[0])
    return np.array(out)


def test_lattice_tables_keep_the_per_node_bits():
    rng = np.random.default_rng(24)
    zs = np.concatenate([-np.logspace(-20.0, 3.0, 93), [0.0, -1e-300, -1e300],
                         -10.0 ** rng.uniform(-300.0, 300.0, 400)])
    for beta in (0.3, 0.5, 0.8, 0.95):
        for gam in (1.0, 1.0 + beta):
            assert np.array_equal(ml(beta, gam, zs), per_node_ml(beta, gam, zs)), (beta, gam)


@pytest.mark.parametrize("flavor", ["homogeneous", "constant_source"])
def test_level_time_factors_give_each_panel_bit_for_bit(flavor):
    # the forward oracle forms the time factors of a whole level once and
    # its exact values a panel of slabs at a time
    sol = SpectralSolution.from_sine_combo(((1, 1.0), (3, 0.5)), 0.5, flavor)
    nodes = build_graded(2 ** 8, *grading_exponents(0.5, 0.0), 1.0).nodes
    a, b = nodes[:-1, None], nodes[1:, None]
    pts = 0.5 * (a + b) + 0.5 * (b - a) * harness._GAUSS4_X
    x = build_uniform_spatial(64).interior
    modes, amps = mittag._time_factors(sol, pts)
    assert modes == [1, 3] and amps.shape == (2, *pts.shape)
    for k0 in range(0, pts.shape[0], PANEL):
        ks = slice(k0, k0 + PANEL)
        assert np.array_equal(mittag._mode_sum(modes, amps[:, ks], x),
                              spectral_state(sol, pts[ks], x))


def test_double_series_certifies_its_target():
    # the double-precision series forms its gamma arguments k*beta + gamma
    # in double, which moves each term by ~arg*psi(arg) ulps; the acceptance
    # rule has to count that, or results 2-3e-13 off pass as 1e-13
    for beta, z in ((0.47759, -2.2919), (0.4775945, -2.29186)):
        want = mp_series_oracle(beta, 1.0 + beta, z)
        assert_rel(_series_certified(beta, 1.0 + beta, z), want, 1e-13, beta, z)
        assert_rel(ml(beta, 1.0 + beta, z), want, 1e-13, beta, z)
    for z in np.arange(-200, 0) / 8.0:
        z = float(z)
        dps = int(max(_series_peak_log10(0.8, 1.8, z), 0.0)) + 30
        want = mp_series_oracle(0.8, 1.8, z, dps=dps)
        assert_rel(_series_certified(0.8, 1.8, z), want, 1e-13, z)
        assert_rel(ml(0.8, 1.8, z), want, 1e-13, z)


def test_forward_oracle_at_alpha_03_is_fast():
    # 256 oracle times at alpha = 0.3; the extended-precision series took
    # about 200 ms for each
    t0 = time.perf_counter()
    err = forward_single_mode_error(0.3, 5, 128)
    assert time.perf_counter() - t0 < 5.0
    assert 0.0 < err < 1e-2


def test_monotone_decay_in_time():
    alpha, lam = 0.6, math.pi ** 2
    ts = np.linspace(0.0, 1.0, 50)
    vals = [ml(alpha, 1.0, -lam * t ** alpha) for t in ts]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_growth_bound():
    # |E(-t)| <= C/(1+t) on the whole axis
    for alpha in (0.4, 0.8):
        worst = max(abs(ml(alpha, 1.0, -t)) * (1.0 + t)
                    for t in np.logspace(-3, 6, 120))
        assert worst < 5.0


def test_crossover_band_agreement():
    # raw asymptotic vs certified series around the dispatch point
    cases = {0.3: (0.5, 0.8, 1.1), 0.5: (0.5, 0.75, 1.0, 1.5, 2.0),
             0.8: (0.5, 0.75, 1.0, 1.5, 2.0)}
    for beta, factors in cases.items():
        z0 = crossover_z0(beta)
        for gam in (1.0, 1.0 + beta):
            for f in factors:
                z = -z0 * f
                va, _ = _asymptotic(beta, gam, z)
                vs = _series_certified(beta, gam, z)
                assert abs(va - vs) <= 1e-10 * abs(vs), (beta, gam, f)


def test_asymptotic_certifies_past_the_crossover(rng):
    # beta on a grid of [0.3, 0.95], both gammas, |z| = f Z0(beta): the sum
    # driven by the reflection envelope certifies 1e-13 everywhere, also
    # near rational beta with a small denominator, where a term close to a
    # pole of Gamma once stopped the sum early (estimate 9e-6 at the last
    # point below)
    cases = [(beta, gam, -f * crossover_z0(beta)) for beta in np.linspace(0.3, 0.95, 261)
             for gam in (1.0, 1.0 + beta) for f in (1.0, 1.5, 2.0, 4.0)]
    for beta, gam, z in cases:
        _, est = _asymptotic(beta, gam, z)
        assert est <= 1e-13, (beta, gam, z, est)
    sample = [cases[i] for i in rng.choice(len(cases), 75, replace=False)]
    for beta, gam, z in sample + [(0.33296, 1.0, -13.0)]:
        want = mp_asymptotic_oracle(beta, gam, z)
        assert_rel(_asymptotic(beta, gam, z)[0], want, 4e-15, beta, gam, z)


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(mittag, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mittag, name, counted)
    return calls


def test_lane_path_against_series_oracle(monkeypatch):
    # rational orders take the exact-integer lane recurrence; compare it with
    # straight mpmath summation at a precision above the peak term, with one
    # point per order whose peak term passes 1e100
    lanes = _count_calls(monkeypatch, "_series_lanes")
    for beta, zs in ((0.3, (-2.0, -5.5)), (0.5, (-3.0, -16.0)), (0.8, (-10.0, -80.0))):
        assert _series_peak_log10(beta, 1.0 + beta, zs[-1]) > 100
        for gam in (1.0, 1.0 + beta):
            for z in zs:
                dps = int(_series_peak_log10(beta, gam, z)) + 30
                want = mp_series_oracle(beta, gam, z, dps=dps)
                assert _series_mp(beta, gam, z, dps) == pytest.approx(
                    want, rel=1e-13, abs=0.0), (beta, gam, z)
    assert len(lanes) == 12


def test_certified_series_sums_once_when_first_pass_certifies(monkeypatch):
    # at these criterion-4 samples the first pass (peak + 30 digits) keeps
    # ~29 digits after cancellation, so summing again wider buys nothing
    calls = _count_calls(monkeypatch, "_series_mp")
    for beta, z in ((0.3, -8.75), (0.5, -25.0)):
        for gam in (1.0, 1.0 + beta):
            calls.clear()
            _series_certified(beta, gam, z)
            assert len(calls) == 1, (beta, gam, z, [c[3] for c in calls])
    # E_{1,1}(-30) = exp(-30) sits 13 digits below 1 while the peak term is
    # 10^12.4: the first pass cannot certify 1e-13 and must be re-widened
    calls.clear()
    assert _series_certified(1.0, 1.0, -30.0) == pytest.approx(math.exp(-30.0), rel=1e-13, abs=0.0)
    assert len(calls) == 2


def test_precision_cap_on_lane_path():
    with pytest.raises(MlAccuracyError):
        _series_mp(0.5, 1.0, -25.0, _MAX_DPS + 1)
    # peak term ~10^23000: the certified series refuses instead of summing
    with pytest.raises(MlAccuracyError):
        _series_certified(0.5, 1.0, -230.0)


def test_tiny_order_refuses_at_once():
    # |z|^(1/beta) = 2^2000 overflows a double, and the terms would grow for
    # 2^2000 / beta of them: the series refuses before it sums any
    for beta in (0.0005, 0.001):
        with pytest.raises(MlAccuracyError, match=f"beta={beta}, z=-2.0"):
            ml(beta, 1.0, -2.0)


def test_deep_asymptotic_region():
    # far beyond the crossover both the value and the growth law hold
    for beta in (0.4, 0.8):
        for t in (1e3, 1e5):
            v = ml(beta, 1.0, -t)
            leading = 1.0 / (t * math.gamma(1.0 - beta))
            assert v == pytest.approx(leading, rel=0.05)


def test_spectral_homogeneous_initial_time():
    sol = SpectralSolution.from_sine_combo(((1, math.sqrt(2.0)),), 0.6, "homogeneous")
    x = np.linspace(0.0, 1.0, 33)
    got = spectral_state(sol, 0.0, x)
    want = math.sqrt(2.0) * np.sin(math.pi * x)
    assert np.allclose(got, want, atol=1e-14)


def test_spectral_constant_source_near_heat_limit():
    # alpha -> 1 recovers the classical forced heat solution
    alpha = 0.999
    sol = SpectralSolution.from_sine_combo(((1, 1.0),), alpha, "constant_source")
    x = np.linspace(0.0, 1.0, 17)
    lam = math.pi ** 2
    for t in (0.1, 0.5, 1.0):
        got = spectral_state(sol, t, x)
        want = (1.0 - math.exp(-lam * t)) / lam * np.sin(math.pi * x)
        assert np.allclose(got, want, rtol=2e-3, atol=1e-12)


def test_spectral_homogeneous_second_mode():
    alpha = 0.5
    sol = SpectralSolution.from_sine_combo(((2, math.sqrt(2.0)),), alpha, "homogeneous")
    x = np.linspace(0.0, 1.0, 9)
    got = spectral_state(sol, 1.0, x)
    amp = ml(alpha, 1.0, -4.0 * math.pi ** 2)
    assert np.allclose(got, amp * math.sqrt(2.0) * np.sin(2 * math.pi * x), rtol=1e-12, atol=1e-15)


def test_spectral_solution_validation():
    with pytest.raises(ValueError):
        SpectralSolution(alpha=0.5, flavor="mystery", modes=((1, math.pi ** 2, 1.0),))
    with pytest.raises(ValueError):
        SpectralSolution(alpha=0.5, flavor="homogeneous",
                         modes=((1, math.pi ** 2, 1.0), (1, math.pi ** 2, 2.0)))
    with pytest.raises(ValueError):
        SpectralSolution(alpha=0.5, flavor="homogeneous",
                         modes=((1, 2.0, 1.0), (2, 1.0, 1.0)))


def test_spectral_state_array_of_times():
    sol = SpectralSolution.from_sine_combo(((1, 1.0), (3, 0.5)), 0.4, "constant_source")
    x = np.linspace(0.0, 1.0, 11)
    ts = np.array([[0.0, 0.01], [0.5, 1.0]])
    got = spectral_state(sol, ts, x)
    assert got.shape == (2, 2, 11)
    for i in range(2):
        for j in range(2):
            assert np.array_equal(got[i, j], spectral_state(sol, float(ts[i, j]), x))
    with pytest.raises(ValueError):
        spectral_state(sol, np.array([0.5, -0.1]), x)

