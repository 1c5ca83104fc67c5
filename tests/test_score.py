"""The batched loss scorer against one `pinn_loss` per query.

A ZO step scores all its loss queries with `pde.score`, row block by row
block as they leave the network.  Each query's total and terms must equal a
`pinn_loss` on that query's values alone, bit for bit, however many queries
a call holds, on every problem and with both Stein rules; `pinn_loss` is the
scorer with one query.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import pair_outputs
from photopinn.config import RunConfig
from photopinn.pde import PROBLEM_NAMES, pinn_loss, score, step_inputs
from photopinn.training import build_run_model, config_problem, config_stein, step_loss
from photopinn.zo import ParamView, ZoConfig, rge_estimate

SEED, STEP = 3, 1
PROBES = 4  # 8 loss queries


def _setup(name, mode):
    cfg = RunConfig(
        problem_name=name,
        loss_mode=mode,
        loss_samples=16 if mode == "se" else RunConfig.loss_samples,
        model_width=128 if name == "hjb" else 0,
        problem_residual_points=5 if name == "hjb" else 40,
        problem_initial_points=4 if name in ("black-scholes", "burgers") else 0,
        problem_boundary_points=3 if name in ("black-scholes", "burgers") else 0,
    )
    problem = config_problem(cfg)
    stein = config_stein(cfg, problem, SEED)
    model = build_run_model(cfg, SEED)
    rng = np.random.default_rng(SEED)
    probes = [(slice(start, stop), 0.05 * rng.standard_normal(stop - start)) for _, start, stop in model.segments()]
    return problem, stein, model, probes[:PROBES]


@pytest.mark.parametrize("chunk", [1, 2, 2 * PROBES], ids=["chunk-1", "chunk-2", "chunk-all"])
@pytest.mark.parametrize("mode", ["sg", "se"])
@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_score_equals_one_pinn_loss_per_query(name, mode, chunk):
    problem, stein, model, probes = _setup(name, mode)
    inputs = step_inputs(problem, stein, SEED, STEP)
    theta = model.get_flat()
    outputs = pair_outputs(model, inputs.points, probes).reshape(2 * PROBES, -1)
    values = problem.transform(lambda X: outputs)(inputs.points)
    want = [pinn_loss(lambda X, v=v: v, problem, stein, SEED, STEP, inputs) for v in values]

    for lo in range(0, len(values), chunk):
        totals, terms = score(problem, inputs, [values[lo : lo + chunk]])
        assert terms.keys() == want[0][1].keys()
        for i, (total, want_terms) in enumerate(want[lo : lo + chunk]):
            assert totals[i].hex() == total.hex()
            assert {key: term[i].hex() for key, term in terms.items()} == {
                key: term.hex() for key, term in want_terms.items()
            }

    # the training loss's pairs, scored row block by row block
    got = step_loss(model, problem, stein, SEED, STEP).pairs(theta, probes)
    assert got.shape == (PROBES, 2)
    assert [value.hex() for value in got.ravel()] == [total.hex() for total, _ in want]


def test_a_monte_carlo_step_holds_less_than_one_probes_outputs():
    """A default Monte-Carlo Black-Scholes step has 130 centers of 4,097
    rows (2,048 antithetic pairs and the center).  Its row blocks are scored
    as they leave the network, so the ZO estimate, traced from its call with
    the loss already built, peaks below the 2 x rows floats of one probe's
    outputs."""
    cfg = RunConfig(loss_mode="se")
    problem = config_problem(cfg)
    model = build_run_model(cfg, SEED)
    stein = config_stein(cfg, problem, SEED)
    loss = step_loss(model, problem, stein, SEED, STEP)
    rows = len(step_inputs(problem, stein, SEED, STEP).points)
    assert rows == 130 * 4097
    tracemalloc.start()
    try:
        rge_estimate(loss, model.get_flat(), ParamView.from_segments(model.segments()), ZoConfig(seed=SEED), STEP)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * rows * 8, f"{peak / 1e6:.2f} MB"


def test_a_monte_carlo_logging_query_holds_less_than_twice_its_values():
    """The plain query of the same step, `loss(theta)`, has one forward's
    (rows,) values and hands them to `pde.score` in fixed-size slices, so
    its combines never hold arrays of all 532,610 rows: traced with the loss
    already built, it peaks below 2 x rows floats.  The slices keep the
    loss's bits: it equals one `score` call on all rows."""
    cfg = RunConfig(loss_mode="se")
    problem = config_problem(cfg)
    model = build_run_model(cfg, SEED)
    stein = config_stein(cfg, problem, SEED)
    loss = step_loss(model, problem, stein, SEED, STEP)
    theta = model.get_flat()
    inputs = step_inputs(problem, stein, SEED, STEP)
    rows = len(inputs.points)
    tracemalloc.start()
    try:
        got = loss(theta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * rows * 8, f"{peak / 1e6:.2f} MB"
    totals, _ = score(problem, inputs, [problem.transform(model)(inputs.points)[None]])
    assert got.hex() == totals[0].hex()
