"""The NumPy normal CDF and the closed-form price, against SciPy's `ndtr` as oracle.

SciPy is imported here only, as a test oracle: `photopinn` itself computes
the CDF without it.
"""

import math

import numpy as np
import pytest

from photopinn.pde import get_problem
from photopinn.pde.black_scholes import HORIZON, RATE, STRIKE, VOL, bs_exact, normal_cdf

ndtr = pytest.importorskip("scipy.special").ndtr

DENSE = np.linspace(-40.0, 40.0, 1_600_001)


def _scipy_bs_exact(x, t):
    """The textbook formula with SciPy's CDF, on points where t < T and x > 0."""
    tau = HORIZON - t
    sq = VOL * np.sqrt(tau)
    d1 = (np.log(x / STRIKE) + (RATE + 0.5 * VOL**2) * tau) / sq
    return x * ndtr(d1) - STRIKE * np.exp(-RATE * tau) * ndtr(d1 - sq)


def test_normal_cdf_is_within_5e_16_of_ndtr_everywhere_on_minus_40_to_40():
    assert np.max(np.abs(normal_cdf(DENSE) - ndtr(DENSE))) <= 5e-16


def test_normal_cdf_has_relative_error_below_1e_12_wherever_ndtr_is_above_1e_300():
    ref = ndtr(DENSE)
    keep = ref >= 1e-300
    assert keep.sum() > 0.9 * len(DENSE)
    assert np.max(np.abs(normal_cdf(DENSE)[keep] - ref[keep]) / ref[keep]) <= 1e-12


def test_normal_cdf_matches_ndtr_bit_for_bit_where_it_takes_the_erf_branch():
    z = DENSE[np.abs(DENSE) < math.sqrt(2.0)]
    assert np.array_equal(normal_cdf(z), ndtr(z))


def test_normal_cdf_is_symmetric_to_one_ulp():
    z = np.linspace(-5.0, 5.0, 200_001)
    assert np.max(np.abs(normal_cdf(z) + normal_cdf(-z) - 1.0)) <= np.spacing(1.0)


def test_normal_cdf_limits_and_shapes():
    with np.errstate(all="raise", under="ignore"):
        got = normal_cdf(np.array([-np.inf, -40.0, -38.0, 0.0, 12.0, 40.0, np.inf]))
    assert got.tolist() == [0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0]
    assert np.isnan(normal_cdf(np.array([np.nan]))).all()
    assert normal_cdf(0.3) == ndtr(0.3)
    z = np.array([[-2.0, -0.5], [0.5, 2.0]])
    assert normal_cdf(z).shape == (2, 2)
    assert np.array_equal(normal_cdf(z), ndtr(z))


def test_normal_cdf_writes_into_out_and_may_overwrite_its_input():
    z = np.linspace(-30.0, 30.0, 1001)
    expected = normal_cdf(z)
    buf = z.copy()
    assert normal_cdf(buf, out=buf) is buf
    assert np.array_equal(buf, expected)


def test_bs_exact_matches_the_scipy_formula_on_the_holdout_grid():
    X = get_problem("black-scholes").holdout_points()
    assert len(X) == 201 * 101
    u = bs_exact(X[:, 0], X[:, 1])
    live = (X[:, 1] < HORIZON) & (X[:, 0] > 0.0)
    ref = _scipy_bs_exact(X[live, 0], X[live, 1])
    assert np.max(np.abs(u[live] - ref)) <= 1e-12 * np.max(np.abs(u))


def test_bs_exact_limits_are_exact():
    x = np.linspace(0.0, 200.0, 201)
    assert np.array_equal(bs_exact(x, np.full_like(x, HORIZON)), np.maximum(x - STRIKE, 0.0))
    t = np.linspace(0.0, HORIZON, 101)
    assert np.array_equal(bs_exact(np.zeros_like(t), t), np.zeros_like(t))
    assert bs_exact(0.0, 0.5) == 0.0
    assert bs_exact(150.0, HORIZON) == 50.0
    assert bs_exact(100.0, 0.5) == pytest.approx(_scipy_bs_exact(100.0, 0.5), rel=1e-15)
