"""A training run starts without SciPy; only a reference or an oracle solve loads it.

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
from photopinn.training import build_run_model, config_problem, config_stein

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
print(json.dumps({"before": before, "after": loaded()}))
"""


def test_a_run_starts_without_scipy_and_bs_exact_loads_only_scipy_special(tmp_path):
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
    after = modules["after"]
    assert "scipy.special" in after
    assert not [m for m in after if m.startswith(("scipy.integrate", "scipy.sparse"))]
