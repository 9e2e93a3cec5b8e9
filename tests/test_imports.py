"""Start-up: importing the package and its CLI loads only the scipy that a
solve runs.  The spatial solves are DST-I divisions, so scipy.linalg
stays unloaded after a solve too.  scipy.integrate is imported inside the one
oracle that only tests call, and mpmath inside the extended-precision
Mittag-Leffler sums.  A fresh interpreter is the only clean place to look at
sys.modules."""

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
UNUSED = ("scipy.integrate", "scipy.linalg", "scipy.optimize", "scipy.sparse", "mpmath")
LAYERS = ("mesh", "fracops", "fem", "mittag", "solver", "control", "harness")

SCRIPT = f"""
import json, sys
import fracctrl, fracctrl.cli
from fracctrl.control import fixed_point_solve
from fracctrl.fracops import assemble_coupling, half_derivative_oracle
from fracctrl.mesh import build_graded, build_uniform_spatial
from fracctrl.mittag import ml
from fracctrl.problem import default_experiment_spec

unused = {UNUSED!r}
after_import = [m for m in unused if m in sys.modules]
g = build_graded(2, 1.0, 1.0, 1.0)
report = fixed_point_solve(default_experiment_spec(0.8, 0.0), g, build_uniform_spatial(16))[3]
quadrature, double_series = ml(0.5, 1.0, -2.0), ml(0.9995, 1.0, -1.0)
after_solves = [m for m in unused if m in sys.modules]
print(json.dumps({{
    "after_import": after_import,
    "increment": report.final_increment,
    "ml": [quadrature, double_series],
    "after_solves": after_solves,
    "oracle": half_derivative_oracle(g, 0.5, 1, 1),
    "entry": assemble_coupling(g, 0.5).entry(1, 1),
    "extended": ml(0.9995, 1.0, -5.0),
    "after_calls": [m for m in unused if m in sys.modules],
}}))
"""


def test_import_loads_no_scipy_that_a_solve_does_not_run():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, check=True)
    got = json.loads(out.stdout)
    assert got["after_import"] == []
    # a whole solve, with its marches and transforms, loads nothing; nor does
    # ml in the quadrature's domain, or on the double-precision series
    assert got["increment"] < 1e-13
    # E_{1/2}(-x) = exp(x^2) erfc(x); beta = 0.9995 sits near E_1(-x) = exp(-x)
    assert got["ml"] == [pytest.approx(math.exp(4.0) * math.erfc(2.0), rel=1e-13, abs=0.0),
                         pytest.approx(math.exp(-1.0), rel=1e-3, abs=0.0)]
    assert got["after_solves"] == []
    # the oracle still works, and loads scipy.integrate (which brings in
    # the rest) itself; ml past the double series loads mpmath itself
    assert abs(got["oracle"] - got["entry"]) <= 1e-8
    assert "scipy.integrate" in got["after_calls"]
    assert got["extended"] == pytest.approx(math.exp(-5.0), rel=5e-2, abs=0.0)
    assert "mpmath" in got["after_calls"]


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_resolves(layer):
    # a name in __all__ that the module no longer defines is dropped
    # silently by callers that look names up with getattr(mod, name, None)
    mod = importlib.import_module(f"fracctrl.{layer}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
