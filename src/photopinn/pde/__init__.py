from .problems import (
    DataTerm,
    OracleNotBuilt,
    PinnProblem,
    PROBLEM_NAMES,
    get_problem,
    holdout_reference,
    pinn_loss,
    relative_l2,
    sample_batch,
    score,
    step_inputs,
)
from .black_scholes import bs_exact
from .hjb import hjb_exact, hjb_transform
from .burgers import burgers_exact, burgers_cole_hopf_quad
from .darcy import darcy_fd_solve, default_permeability
from .oracles import oracle_build
from .raster import Raster, load_raster, save_raster
