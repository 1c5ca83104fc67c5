"""The batched loss scorer against one `pinn_loss` per query.

A ZO step scores all its loss queries with `pde.score`, in chunks of
queries.  Each query's total and terms must equal a `pinn_loss` on that
query's values alone, bit for bit, whatever the chunk, on every problem and
with both Stein rules; `pinn_loss` is the scorer with one query.
"""

import tracemalloc

import numpy as np
import pytest

from photopinn.config import RunConfig
from photopinn.pde import PROBLEM_NAMES, pinn_loss, score, step_inputs
from photopinn.quadrature import SteinPlan
from photopinn.training import build_run_model, config_problem, config_stein, step_loss

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
def test_score_equals_one_pinn_loss_per_query(name, mode, chunk, monkeypatch):
    problem, stein, model, probes = _setup(name, mode)
    inputs = step_inputs(problem, stein, SEED, STEP)
    theta = model.get_flat()
    outputs = model.pairs(inputs.points, probes).reshape(2 * PROBES, -1)
    values = problem.transform(lambda X: outputs)(inputs.points)
    want = [pinn_loss(lambda X, v=v: v, problem, stein, SEED, STEP, inputs) for v in values]

    for lo in range(0, len(values), chunk):
        totals, terms = score(problem, inputs, values[lo : lo + chunk])
        assert terms.keys() == want[0][1].keys()
        for i, (total, want_terms) in enumerate(want[lo : lo + chunk]):
            assert totals[i].hex() == total.hex()
            assert {key: term[i].hex() for key, term in terms.items()} == {
                key: term.hex() for key, term in want_terms.items()
            }

    # the training loss's pairs, scored in chunks of `chunk` queries
    monkeypatch.setattr(SteinPlan, "queries_per_call", lambda self, rows, budget: chunk)
    got = step_loss(model, problem, stein, SEED, STEP).pairs(theta, probes)
    assert got.shape == (PROBES, 2)
    assert [value.hex() for value in got.ravel()] == [total.hex() for total, _ in want]


@pytest.mark.parametrize(
    "fit,passes", [(0, [1] * PROBES), (3, [3, PROBES - 3]), (None, [PROBES])], ids=["one", "three", "all"]
)
@pytest.mark.parametrize("mode", ["sg", "se"])
def test_probe_groups_equal_one_pass(mode, fit, passes, monkeypatch):
    """A step's pairs run in passes of as many probes as have outputs that
    fit in the pass's block buffers, at least one; the values equal those of
    one pass over every probe, bit for bit.  `fit` sets the buffers to hold
    that many probes' outputs; None keeps them, which hold all probes of
    these small steps."""
    problem, stein, model, probes = _setup("black-scholes", mode)
    inputs = step_inputs(problem, stein, SEED, STEP)
    theta = model.get_flat()
    outputs = model.pairs(inputs.points, probes).reshape(2 * PROBES, -1)
    want = score(problem, inputs, problem.transform(lambda X: outputs)(inputs.points))[0]

    seen = []
    pairs = type(model).pairs
    monkeypatch.setattr(type(model), "pairs", lambda self, x, group: seen.append(len(group)) or pairs(self, x, group))
    if fit is not None:
        monkeypatch.setattr(type(model), "pass_bytes", property(lambda self: fit * 2 * len(inputs.points) * 8))
    got = step_loss(model, problem, stein, SEED, STEP).pairs(theta, iter(probes))
    assert seen == passes
    assert got.shape == (PROBES, 2)
    assert [value.hex() for value in got.ravel()] == [value.hex() for value in want]


@pytest.mark.parametrize("name", ["black-scholes", "burgers"])
def test_a_chunk_of_queries_combines_within_the_pass_buffers(name):
    """`SteinPlan.queries_per_call` picks the queries per combine call from
    the bytes of a pairs pass's block buffers; scoring them stays within
    those bytes."""
    cfg = RunConfig(problem_name=name)
    problem = config_problem(cfg)
    stein = config_stein(cfg, problem, SEED)
    model = build_run_model(cfg, SEED)
    inputs = step_inputs(problem, stein, SEED, STEP)
    rows = len(inputs.points)
    size = inputs.plan.queries_per_call(rows, model.pass_bytes)
    # 130 centers x 13 nodes; 1,500 x 13, in buffers 160 wide, the T of a Burgers TT layer
    assert size == {"black-scholes": 19, "burgers": 2}[name]
    values = np.random.default_rng(SEED).standard_normal((size, rows))
    tracemalloc.start()
    try:
        score(problem, inputs, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= model.pass_bytes
