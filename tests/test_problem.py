import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from fracctrl.problem import (PowerLaw, ProblemSpec, SineCombo, TimeConstant,
                              Zero, default_experiment_spec, from_config_text,
                              to_config_text, validate)


def test_default_spec_alpha04():
    spec = default_experiment_spec(0.4, 0.0)
    assert spec.nu == 1.0 and spec.T == 1.0
    assert spec.u_lo == -0.1 and spec.u_hi == 0.1
    assert isinstance(spec.y0, PowerLaw) and spec.y0.a == pytest.approx(-0.49)
    assert isinstance(spec.yd, TimeConstant)
    assert spec.yd.profile.a == pytest.approx(-0.49)


def test_default_spec_exponent_tracks_r():
    spec = default_experiment_spec(0.8, 0.25)
    assert spec.y0.a == pytest.approx(0.01)


def test_default_spec_validates():
    assert validate(default_experiment_spec(0.5, 0.25)) == []


def test_validate_flags_alpha_boundary():
    spec = default_experiment_spec(0.5, 0.0)
    bad = ProblemSpec(alpha=1.0, nu=spec.nu, T=spec.T, u_lo=spec.u_lo,
                      u_hi=spec.u_hi, r=spec.r, y0=spec.y0, yd=spec.yd)
    assert "alpha" in validate(bad)


def test_validate_flags_degenerate_bounds():
    spec = default_experiment_spec(0.5, 0.0)
    bad = ProblemSpec(alpha=spec.alpha, nu=spec.nu, T=spec.T, u_lo=0.1,
                      u_hi=0.1, r=spec.r, y0=spec.y0, yd=spec.yd)
    assert "bounds" in validate(bad)


def test_validate_rejects_non_square_integrable_datum():
    spec = default_experiment_spec(0.5, 0.0)
    bad = ProblemSpec(alpha=spec.alpha, nu=spec.nu, T=spec.T, u_lo=spec.u_lo,
                      u_hi=spec.u_hi, r=spec.r, y0=PowerLaw(1.0, -0.5), yd=spec.yd)
    assert "y0.a" in validate(bad)


def test_powerlaw_l2_closed_form():
    # int_0^1 x^(-0.98) (1-x)^2 dx = 1/0.02 - 2/1.02 + 1/2.02
    want = 1.0 / 0.02 - 2.0 / 1.02 + 1.0 / 2.02
    assert PowerLaw(1.0, -0.49).l2_norm_sq() == pytest.approx(want, rel=1e-14, abs=0.0)
    with pytest.raises(ValueError):
        PowerLaw(1.0, -0.6).l2_norm_sq()


def test_sine_combo_l2():
    assert SineCombo(((1, 2.0), (3, 1.0))).l2_norm_sq() == pytest.approx(2.5)
    assert Zero().l2_norm_sq() == 0.0


def test_sine_combo_duplicate_modes_flagged():
    spec = default_experiment_spec(0.5, 0.0)
    bad = ProblemSpec(alpha=spec.alpha, nu=spec.nu, T=spec.T, u_lo=spec.u_lo,
                      u_hi=spec.u_hi, r=spec.r,
                      y0=SineCombo(((1, 1.0), (1, 2.0))), yd=spec.yd)
    assert "y0.modes" in validate(bad)


@given(alpha=st.floats(0.01, 0.99), r=st.floats(0.0, 0.99))
def test_every_default_spec_validates(alpha, r):
    assert validate(default_experiment_spec(alpha, r)) == []


def test_default_spec_rejects_out_of_range():
    with pytest.raises(ValueError):
        default_experiment_spec(0.0, 0.0)
    with pytest.raises(ValueError):
        default_experiment_spec(0.5, 1.0)


def test_config_round_trip():
    spec = default_experiment_spec(0.4, 0.25)
    text = to_config_text(spec)
    back = from_config_text(text)
    assert back == spec


def test_config_round_trip_infinite_bounds():
    spec = default_experiment_spec(0.4, 0.0)
    free = ProblemSpec(alpha=spec.alpha, nu=spec.nu, T=spec.T,
                       u_lo=-math.inf, u_hi=math.inf, r=spec.r,
                       y0=spec.y0, yd=spec.yd)
    assert from_config_text(to_config_text(free)) == free


def test_config_parses_comments_and_blank_lines():
    spec = default_experiment_spec(0.5, 0.0)
    text = "# instance\n\n" + to_config_text(spec)
    assert from_config_text(text) == spec


def test_config_missing_key():
    with pytest.raises(ValueError, match="missing config key 'nu'"):
        from_config_text("alpha = 0.5\n")
    text = to_config_text(default_experiment_spec(0.5, 0.0))
    with pytest.raises(ValueError, match="missing config key 'y0.c'"):
        from_config_text(text.replace("y0.c = 1.0\n", ""))


def test_config_malformed_line():
    with pytest.raises(ValueError, match="key = value"):
        from_config_text("alpha 0.5\n")
    text = to_config_text(default_experiment_spec(0.5, 0.0))
    # a value that is not a number, and a key the format does not have,
    # are named
    with pytest.raises(ValueError, match="'nu'.*'one'"):
        from_config_text(text.replace("nu = 1.0", "nu = one"))
    with pytest.raises(ValueError, match="unknown config key 'sigma1'"):
        from_config_text(text + "sigma1 = 2\n")


def test_config_repeated_key_is_named_with_both_lines():
    text = to_config_text(default_experiment_spec(0.5, 0.0))
    with pytest.raises(ValueError, match=r"'alpha' is set twice, on lines 1 and 15"):
        from_config_text(text + "\n\nalpha = 0.8\n")


@pytest.mark.parametrize("key", ["nu", "T"])
@pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf])
def test_validate_flags_a_non_finite_weight_or_horizon(key, value):
    spec = dataclasses.replace(default_experiment_spec(0.5, 0.0), **{key: value})
    assert validate(spec) == [key]
