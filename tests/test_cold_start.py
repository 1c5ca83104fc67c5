"""A run starts without SciPy, and a Black-Scholes run never loads it.

Only the Burgers and Darcy oracle solves import SciPy, on first use.

The check runs in a fresh interpreter, because this test process has
already imported SciPy through other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import photopinn

COLD_START = """
import json, sys
import photopinn, photopinn.cli, photopinn.training
from photopinn.config import RunConfig
from photopinn.pde import PROBLEM_NAMES, pinn_loss
from photopinn.training import build_run_model, config_problem, config_stein, evaluate_model

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

for name in PROBLEM_NAMES:
    config_problem(RunConfig(problem_name=name))
for domain in ("weight", "phase"):
    cfg = RunConfig(problem_name="black-scholes", domain=domain)
    model = build_run_model(cfg, 0)
problem = config_problem(cfg)
pinn_loss(problem.transform(model), problem, config_stein(cfg, problem, 0), 0, 0)
before = loaded()
from photopinn.pde import bs_exact
bs_exact(100.0, 0.5)
rel_l2 = evaluate_model(model, problem)[0]
print(json.dumps({"before": before, "after": loaded(), "rel_l2": rel_l2}))
"""


def test_a_run_starts_without_scipy_and_a_black_scholes_evaluation_never_loads_it(tmp_path):
    src = str(Path(photopinn.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", COLD_START],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    modules = json.loads(out.splitlines()[-1])
    assert modules["before"] == []
    assert modules["after"] == []
    assert 0.0 < modules["rel_l2"] < float("inf")
