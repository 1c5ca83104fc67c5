"""A run starts without SciPy, and a Black-Scholes run never loads it.

Only the Burgers and Darcy oracle solves import SciPy, on first use, and
only a phase-domain run loads the photonic simulator.

The checks run in a fresh interpreter, because this test process has
already imported SciPy and `photopinn.photonic` through other tests.
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


WEIGHT_RUN = """
import json, sys
from photopinn.config import RunConfig
from photopinn.training import train

report = train(RunConfig(problem_name="black-scholes", domain="weight", opt_iterations=1, run_out_dir="runs"))
print(json.dumps({"photonic": sorted(m for m in sys.modules if m.startswith("photopinn.photonic")),
                  "rel_l2": report.mean_rel_l2}))
"""


def _run_fresh(script: str, cwd) -> dict:
    """The JSON object a script prints last, run in a fresh interpreter."""
    src = str(Path(photopinn.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", script],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_a_run_starts_without_scipy_and_a_black_scholes_evaluation_never_loads_it(tmp_path):
    modules = _run_fresh(COLD_START, tmp_path)
    assert modules["before"] == []
    assert modules["after"] == []
    assert 0.0 < modules["rel_l2"] < float("inf")


def test_a_weight_domain_run_loads_no_photonic_module(tmp_path):
    out = _run_fresh(WEIGHT_RUN, tmp_path)
    assert out["photonic"] == []
    assert 0.0 < out["rel_l2"] < float("inf")
