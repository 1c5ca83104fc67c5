"""Each loss at its problem's exact solution, through the real Stein path."""

import numpy as np
import pytest

from photopinn.pde import get_problem, pinn_loss
from photopinn.pde.black_scholes import bs_exact
from photopinn.quadrature import SteinConfig


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_black_scholes_residual_vanishes_at_the_exact_price(seed):
    """The smoothed PDE residual of the closed-form price is at rounding level.

    The data terms are not: the Stein stencil straddles the payoff kink
    max(x - K, 0) at the terminal time, so the `initial` term is 3.1e-4 at
    seed 0 and sigma = 1e-3.
    """
    problem = get_problem("black-scholes", sigma=1e-3)
    stein = SteinConfig(sigma=1e-3, mode="sparse-grid", level=3)
    _, terms = pinn_loss(lambda X: bs_exact(X[:, 0], X[:, 1]), problem, stein, seed)
    assert terms["residual"] < 1e-9
