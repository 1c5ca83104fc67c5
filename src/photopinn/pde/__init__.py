"""PDE benchmarks: the loss machinery in `problems`, which names no PDE, and
one module per PDE, which only a run of that problem imports."""

from .problems import PROBLEM_NAMES, get_problem, holdout_reference, oracle_build, pinn_loss, relative_l2
from .problems import sample_batch, score, step_inputs
