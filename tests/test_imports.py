"""Start-up: importing the package and its CLI loads only the scipy that a
solve runs.  The spatial solves are DST-I divisions, so scipy.linalg
stays unloaded after them too.  scipy.integrate is imported inside the one
oracle that only tests call.  A fresh interpreter is the only clean place to look at
sys.modules."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
UNUSED = ("scipy.integrate", "scipy.linalg", "scipy.optimize", "scipy.sparse")

SCRIPT = f"""
import json, sys
import numpy as np
import fracctrl, fracctrl.cli
from fracctrl.fem import assemble_mass, l2_project, solve_tridiagonal
from fracctrl.fracops import assemble_coupling, half_derivative_oracle
from fracctrl.mesh import build_graded, build_uniform_spatial
from fracctrl.problem import SineCombo

unused = {UNUSED!r}
after_import = [m for m in unused if m in sys.modules]
g = build_graded(2, 1.0, 1.0, 1.0)
xg = build_uniform_spatial(16)
mass = assemble_mass(xg)
x = np.sin(np.arange(15))
solve_error = float(np.max(np.abs(solve_tridiagonal(mass, mass.apply(x)) - x)))
projected = l2_project(xg, SineCombo(((1, 1.0),))).coeffs
after_solves = [m for m in unused if m in sys.modules]
print(json.dumps({{
    "after_import": after_import,
    "solve_error": solve_error,
    "projection_error": float(np.max(np.abs(projected - np.sin(np.pi * xg.interior)))),
    "after_solves": after_solves,
    "oracle": half_derivative_oracle(g, 0.5, 1, 1),
    "entry": assemble_coupling(g, 0.5).entry(1, 1),
    "after_calls": [m for m in unused if m in sys.modules],
}}))
"""


def test_import_loads_no_scipy_that_a_solve_does_not_run():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, check=True)
    got = json.loads(out.stdout)
    assert got["after_import"] == []
    # the spatial solves load nothing
    assert got["solve_error"] <= 1e-12
    assert got["projection_error"] <= 1e-2
    assert got["after_solves"] == []
    # the oracle still works, and loads scipy.integrate (which brings in
    # the rest) itself
    assert abs(got["oracle"] - got["entry"]) <= 1e-8
    assert "scipy.integrate" in got["after_calls"]
