"""Start-up: importing the package and its CLI loads only the scipy that a
solve runs.  scipy.integrate and scipy.linalg are imported inside the two
helpers that only tests call, so a fresh interpreter is the only clean
place to look at sys.modules."""

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
from fracctrl.fem import assemble_mass, solve_tridiagonal
from fracctrl.fracops import assemble_coupling, half_derivative_oracle
from fracctrl.mesh import build_graded, build_uniform_spatial

unused = {UNUSED!r}
after_import = [m for m in unused if m in sys.modules]
g = build_graded(2, 1.0, 1.0, 1.0)
mass = assemble_mass(build_uniform_spatial(16))
x = np.sin(np.arange(15))
print(json.dumps({{
    "after_import": after_import,
    "oracle": half_derivative_oracle(g, 0.5, 1, 1),
    "entry": assemble_coupling(g, 0.5).entry(1, 1),
    "solve_error": float(np.max(np.abs(solve_tridiagonal(mass, mass.apply(x)) - x))),
    "after_calls": [m for m in unused if m in sys.modules],
}}))
"""


def test_import_loads_no_scipy_that_a_solve_does_not_run():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, check=True)
    got = json.loads(out.stdout)
    assert got["after_import"] == []
    # the helpers still work, and load what they need themselves
    assert abs(got["oracle"] - got["entry"]) <= 1e-8
    assert got["solve_error"] <= 1e-12
    assert {"scipy.integrate", "scipy.linalg"} <= set(got["after_calls"])
