"""Work reused across ZO probes against a cache-free oracle.

A network reuses the layer prefix of its previous forward and, in the phase
domain, the realized matrices of layers whose phases did not change.  The
oracle builds a fresh model for every loss query, so nothing carries over
between queries; every query through the training loss must equal it bit
for bit.
"""

import numpy as np
import pytest

from photopinn.config import RunConfig
from photopinn.models import build_model
from photopinn.pde import pinn_loss
from photopinn.photonic import PhotonicDense, PhotonicTT, apply_nonidealities, block_phase_count, stage_neighbors
from photopinn.training import build_run_model, config_problem, config_stein, evaluate_model, step_loss
from photopinn.zo import ParamView, ZoConfig, rge_estimate

SEED = 3

_CASES = [
    pytest.param(problem, domain, tensorized, "float64", id=f"{problem}-{domain}-{'tt' if tensorized else 'dense'}")
    for problem in ("black-scholes", "hjb", "burgers", "darcy")
    for domain in ("weight", "phase")
    for tensorized in (True, False)
] + [pytest.param("black-scholes", "weight", True, "float32", id="black-scholes-weight-tt-float32")]


def _tiny_config(problem, domain, tensorized, dtype):
    return RunConfig(
        problem_name=problem,
        domain=domain,
        model_tensorized=tensorized,
        model_dtype=dtype,
        model_width=128 if problem == "hjb" else 0,
        problem_residual_points=3 if problem == "hjb" else 6,
        problem_initial_points=2,
        problem_boundary_points=2,
        run_seed=SEED,
    )


@pytest.mark.parametrize("problem,domain,tensorized,dtype", _CASES)
def test_training_loss_equals_a_fresh_model_per_query(problem, domain, tensorized, dtype):
    cfg = _tiny_config(problem, domain, tensorized, dtype)
    problem_ = config_problem(cfg)
    stein = config_stein(cfg, problem_, SEED)
    model = build_run_model(cfg, SEED)
    theta = model.get_flat()
    view = ParamView.from_segments(model.segments())
    zo = ZoConfig(radius=cfg.zo_radius_effective(), distribution=cfg.zo_distribution_effective(), seed=SEED)

    def recorded(loss, values):
        def fn(th):
            values.append(loss(th))
            return values[-1]

        return fn

    for step in range(2):  # the second step brings new rows and new base parameters

        def fresh(th):
            net = build_run_model(cfg, SEED)
            net.set_flat(th)
            return pinn_loss(problem_.transform(net), problem_, stein, SEED, step)[0]

        want_values, got_values = [], []
        want, _ = rge_estimate(recorded(fresh, want_values), theta, view, zo, step)
        got, _ = rge_estimate(recorded(step_loss(model, problem_, stein, SEED, step), got_values), theta, view, zo, step)
        assert np.array_equal(got_values, want_values)
        assert np.array_equal(got, want)
        theta = theta - 0.05 * got / (np.abs(got).max() + 1e-12)


def test_writing_into_the_flat_vector_reaches_the_next_forward(rng):
    """An in-place write is seen: into layer 0, which feeds the kept input of
    layer 1, then into a core of the TT layer 1, whose reconstructed matrix
    must be rebuilt."""
    model = build_model("black-scholes", tensorized=True, seed=0)
    theta = model.get_flat()
    model.set_flat(theta)  # the layers now hold views of theta
    x = rng.uniform([0.0, 0.0], [200.0, 1.0], size=(40, 2))
    model(x)
    before = model(x)
    for segment in ("layer0.weight", "layer1.core0"):
        assert set(model._cache.kept) == {0, 1}  # the same rows twice in a row
        start, stop = next((a, b) for name, a, b in model.segments() if name == segment)
        theta[start:stop] += 0.1
        after = model(x)
        fresh = build_model("black-scholes", tensorized=True, seed=0)
        fresh.set_flat(theta.copy())
        assert not np.array_equal(after, before), segment
        assert np.array_equal(after, fresh(x)), segment
        before = after


@pytest.mark.parametrize("tensorized", [True, False], ids=["tt", "dense"])
def test_a_phase_layer_is_realized_once_per_distinct_phase_state(tensorized, monkeypatch):
    """A layer returns to its base phases after its own +/- probes; that state
    is taken from the layer's recent realizations, not realized again."""
    cfg = _tiny_config("black-scholes", "phase", tensorized, "float64")
    problem = config_problem(cfg)
    stein = config_stein(cfg, problem, SEED)
    model = build_run_model(cfg, SEED)
    calls = {}

    def count(cls, name):
        original = getattr(cls, name)

        def counted(layer, phases):
            calls[id(layer)] = calls.get(id(layer), 0) + 1
            return original(layer, phases)

        monkeypatch.setattr(cls, name, counted)

    count(PhotonicDense, "realized_weight")
    count(PhotonicTT, "realized_cores")
    phase_spans = [(a, b) for name, a, b in model.segments() if name.endswith(".phases")]
    states = [set() for _ in model.layers]

    def loss_at(step):
        loss = step_loss(model, problem, stein, SEED, step)

        def fn(th):
            for seen, (a, b) in zip(states, phase_spans):
                seen.add(th[a:b].tobytes())
            return loss(th)

        return fn

    theta = model.get_flat()
    view = ParamView.from_segments(model.segments())
    zo = ZoConfig(radius=cfg.zo_radius_effective(), distribution=cfg.zo_distribution_effective(), seed=SEED)
    for step in range(3):
        grad, _ = rge_estimate(loss_at(step), theta, view, zo, step)
        theta = theta - 0.05 * grad / (np.abs(grad).max() + 1e-12)
    assert [calls[id(layer)] for layer in model.layers] == [len(seen) for seen in states]
    assert [len(seen) for seen in states] == [9] * len(model.layers)  # base, + and - per step


@pytest.mark.parametrize("domain", ["weight", "phase"])
def test_holdout_forward_keeps_no_activation(domain):
    cfg = _tiny_config("black-scholes", domain, True, "float64")
    problem = config_problem(cfg)
    stein = config_stein(cfg, problem, SEED)
    model = build_run_model(cfg, SEED)
    loss = step_loss(model, problem, stein, SEED, 0)
    theta = model.get_flat()
    loss(theta)
    loss(theta)
    assert len(model._cache.kept) == 2
    evaluate_model(model, problem)
    assert model._cache.kept == {}


def test_layer_noise_equals_the_whole_model_pipeline():
    """Noise is local to each layer: per-layer effective phases equal one pass over all phases."""
    cfg = RunConfig(problem_name="burgers", domain="phase", noise_phase_bias=True, run_seed=SEED)
    model = build_run_model(cfg, SEED)
    pairs, pos = [], 0
    for layer in model.layers:
        for m, n in layer.block_shapes:
            v_offset = m * (m - 1) // 2 + min(m, n)
            pairs += [stage_neighbors(m) + pos, stage_neighbors(n) + v_offset + pos]
            pos += block_phase_count(m, n)
    whole = apply_nonidealities(model.phase_vector(), model.noise, np.concatenate(pairs))
    assert np.array_equal(model.effective_phases(), whole)
