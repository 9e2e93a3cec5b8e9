"""Continuous problem data and the reference experiment instance.

A problem instance is the tuple (alpha, nu, T, bounds, y0, yd, r): the
fractional order, the cost weight on the control, the final time, the box
constraints, the initial datum, the tracking target, and the smoothness
index of the initial datum.  The reference instance uses
y0(x) = x^(2r-0.49) (1-x) and the time-constant target
yd(x) = x^(-0.49) (1-x) on (0,1) with bounds +-0.1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

__all__ = [
    "PowerLaw",
    "SineCombo",
    "TimeConstant",
    "Zero",
    "FunctionDescriptor",
    "ProblemSpec",
    "default_experiment_spec",
    "validate",
    "to_config_text",
    "from_config_text",
]


@dataclass(frozen=True)
class PowerLaw:
    """The spatial profile c * x^a * (1-x) on (0,1)."""

    c: float
    a: float

    def l2_norm_sq(self) -> float:
        # closed form of int_0^1 c^2 x^(2a) (1-x)^2 dx; needs a > -1/2
        if self.a <= -0.5:
            raise ValueError(f"power-law exponent {self.a} is not square integrable")
        s = 2.0 * self.a
        return self.c * self.c * (1.0 / (s + 1.0) - 2.0 / (s + 2.0) + 1.0 / (s + 3.0))


@dataclass(frozen=True)
class SineCombo:
    """Finite combination sum_j c_j sin(k_j pi x); modes must be distinct."""

    terms: tuple[tuple[int, float], ...]

    def l2_norm_sq(self) -> float:
        return sum(c * c for _, c in self.terms) / 2.0


@dataclass(frozen=True)
class Zero:
    def l2_norm_sq(self) -> float:
        return 0.0


@dataclass(frozen=True)
class TimeConstant:
    """Time-independent wrapper around a spatial profile, used for targets."""

    profile: Union[PowerLaw, SineCombo, Zero]

    def l2_norm_sq(self) -> float:
        return self.profile.l2_norm_sq()


FunctionDescriptor = Union[PowerLaw, SineCombo, Zero, TimeConstant]


@dataclass(frozen=True)
class ProblemSpec:
    alpha: float
    nu: float
    T: float
    u_lo: float
    u_hi: float
    r: float
    y0: FunctionDescriptor
    yd: FunctionDescriptor


def _descriptor_diagnostics(name: str, f: FunctionDescriptor) -> list[str]:
    if isinstance(f, TimeConstant):
        f = f.profile
    if isinstance(f, PowerLaw):
        if not f.a > -0.5:
            return [f"{name}.a"]
    elif isinstance(f, SineCombo):
        modes = [k for k, _ in f.terms]
        if any(k < 1 for k in modes) or len(set(modes)) != len(modes):
            return [f"{name}.modes"]
    elif isinstance(f, Zero):
        pass
    else:
        return [name]
    return []


def validate(spec: ProblemSpec) -> list[str]:
    """Check all invariants; returns [] when the spec is valid, otherwise the
    names of the violated fields.  Never raises."""
    bad: list[str] = []
    if not (isinstance(spec.alpha, float) and 0.0 < spec.alpha < 1.0):
        bad.append("alpha")
    if not 0.0 < spec.nu < math.inf:
        bad.append("nu")
    if not 0.0 < spec.T < math.inf:
        bad.append("T")
    if not spec.u_lo < spec.u_hi:
        bad.append("bounds")
    if not 0.0 <= spec.r < 1.0:
        bad.append("r")
    bad += _descriptor_diagnostics("y0", spec.y0)
    bad += _descriptor_diagnostics("yd", spec.yd)
    return bad


def default_experiment_spec(alpha: float, r: float) -> ProblemSpec:
    """Reference instance: nu=1, T=1, bounds +-0.1,
    y0 = x^(2r-0.49)(1-x), yd = x^(-0.49)(1-x) frozen in time."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    if not 0.0 <= r < 1.0:
        raise ValueError(f"r must lie in [0,1), got {r}")
    return ProblemSpec(
        alpha=float(alpha),
        nu=1.0,
        T=1.0,
        u_lo=-0.1,
        u_hi=0.1,
        r=float(r),
        y0=PowerLaw(c=1.0, a=2.0 * r - 0.49),
        yd=TimeConstant(PowerLaw(c=1.0, a=-0.49)),
    )


# -- flat key-value config files ------------------------------------------


def _descriptor_items(prefix: str, f: FunctionDescriptor) -> list[tuple[str, str]]:
    if isinstance(f, TimeConstant):
        f = f.profile
    if isinstance(f, PowerLaw):
        return [(f"{prefix}.kind", "powerlaw"),
                (f"{prefix}.c", repr(f.c)),
                (f"{prefix}.a", repr(f.a))]
    if isinstance(f, Zero):
        return [(f"{prefix}.kind", "zero")]
    raise ValueError(f"descriptor {f!r} has no config representation")


def to_config_text(spec: ProblemSpec) -> str:
    """Serialize to `key = value` lines (UTF-8 text)."""
    items = [
        ("alpha", repr(spec.alpha)),
        ("nu", repr(spec.nu)),
        ("T", repr(spec.T)),
        ("u_lo", repr(spec.u_lo)),
        ("u_hi", repr(spec.u_hi)),
        ("r", repr(spec.r)),
    ]
    items += _descriptor_items("y0", spec.y0)
    items += _descriptor_items("yd", spec.yd)
    return "".join(f"{k} = {v}\n" for k, v in items)


def _pop_number(kv: dict, key: str) -> float:
    if key not in kv:
        raise ValueError(f"missing config key {key!r}")
    value = kv.pop(key)
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"config key {key!r}: {value!r} is not a number") from None


def _parse_descriptor(kv: dict, prefix: str, time_constant: bool) -> FunctionDescriptor:
    kind = kv.pop(f"{prefix}.kind", "zero")
    if kind == "zero":
        return Zero()
    if kind == "powerlaw":
        prof = PowerLaw(c=_pop_number(kv, f"{prefix}.c"), a=_pop_number(kv, f"{prefix}.a"))
        return TimeConstant(prof) if time_constant else prof
    raise ValueError(f"unknown descriptor kind {kind!r} for {prefix}")


def from_config_text(text: str) -> ProblemSpec:
    """Parse the `key = value` format written by to_config_text.  A key
    that is missing, repeated, unknown, not a number or out of range
    (`validate`) is named in the error."""
    kv: dict[str, str] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in seen:
            raise ValueError(f"config key {key!r} is set twice, on lines {seen[key]} and {lineno}")
        seen[key] = lineno
        kv[key] = value.strip()
    scalars = [_pop_number(kv, key) for key in ("alpha", "nu", "T", "u_lo", "u_hi", "r")]
    spec = ProblemSpec(*scalars, y0=_parse_descriptor(kv, "y0", time_constant=False),
                       yd=_parse_descriptor(kv, "yd", time_constant=True))
    if kv:
        raise ValueError(f"unknown config key {', '.join(map(repr, kv))}")
    bad = validate(spec)
    if bad:
        raise ValueError(f"config value out of range for {', '.join(bad)}")
    return spec
