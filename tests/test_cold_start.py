"""A run starts without SciPy, and a Black-Scholes run never loads it.

Only the Burgers and Darcy oracle solves import SciPy, on first use, and
only a phase-domain run loads the photonic simulator.  A `photopinn train`
loads its own PDE module alone and never the photonic cost model.

The checks run in a fresh interpreter, because this test process has
already imported SciPy and `photopinn.photonic` through other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
from photopinn.pde.black_scholes import bs_exact
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


CLI_RUN = """
import json, sys
from photopinn import cli

assert cli.main(["train", "--config", "run.cfg", "--iterations", "1", "--quiet"]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("photopinn."))))
"""

PDE_MODULES = {f"photopinn.pde.{m}" for m in ("black_scholes", "burgers", "darcy", "hjb")}


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


@pytest.mark.parametrize(
    "problem,domain,settings",
    [
        ("black-scholes", "weight", ""),
        ("black-scholes", "phase", "model.tensorized = false\n"),
        ("hjb", "weight", "model.width = 128\nproblem.residual_points = 20\n"),
        ("burgers", "weight", "problem.residual_points = 100\n"),
        ("darcy", "weight", "problem.residual_points = 100\n"),
    ],
    ids=["black-scholes-weight", "black-scholes-phase", "hjb", "burgers", "darcy"],
)
def test_a_cli_training_run_loads_its_own_pde_module_and_no_cost_model(problem, domain, settings, tmp_path):
    (tmp_path / "run.cfg").write_text(f"problem.name = {problem}\ndomain = {domain}\n{settings}")
    modules = set(_run_fresh(CLI_RUN, tmp_path))
    assert modules & PDE_MODULES == {f"photopinn.pde.{problem.replace('-', '_')}"}
    assert ("photopinn.pde.raster" in modules) == (problem in ("burgers", "darcy"))
    photonic = {m for m in modules if m.startswith("photopinn.photonic")}
    assert "photopinn.photonic.cost" not in photonic
    assert bool(photonic) == (domain == "phase")
