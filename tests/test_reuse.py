"""Work reused across ZO probes against a cache-free oracle.

A network reuses the layer prefix of its previous forward and the realized
matrices of layers whose parameters did not change, in both domains.  The
oracle builds a fresh model for every loss query, so nothing carries over
between queries; every query through the training loss must equal it bit
for bit.
"""

import numpy as np
import pytest

from photopinn.config import RunConfig
from photopinn.models import build_model
from photopinn.nets import DenseLayer, TTLayer
from photopinn.pde import pinn_loss
from photopinn.photonic import PhotonicDense, PhotonicTT, apply_nonidealities, block_phase_count, stage_neighbors
from photopinn.training import build_run_model, config_problem, config_stein, evaluate_model, step_loss
from photopinn.zo import ParamView, ZoConfig, rge_estimate

SEED = 3

_CASES = [
    pytest.param(problem, domain, tensorized, id=f"{problem}-{domain}-{'tt' if tensorized else 'dense'}")
    for problem in ("black-scholes", "hjb", "burgers", "darcy")
    for domain in ("weight", "phase")
    for tensorized in (True, False)
]


def _tiny_config(problem, domain, tensorized):
    data_points = 2 if problem in ("black-scholes", "burgers") else 0  # HJB and Darcy have no data terms
    return RunConfig(
        problem_name=problem,
        domain=domain,
        model_tensorized=tensorized,
        model_width=128 if problem == "hjb" else 0,
        problem_residual_points=3 if problem == "hjb" else 6,
        problem_initial_points=data_points,
        problem_boundary_points=data_points,
        run_seed=SEED,
    )


@pytest.mark.parametrize("problem,domain,tensorized", _CASES)
def test_training_loss_equals_a_fresh_model_per_query(problem, domain, tensorized):
    cfg = _tiny_config(problem, domain, tensorized)
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
    """An in-place write into a vector passed to `set_flat` again, as
    `rge_estimate` does with its probe, is seen: into layer 0, which feeds the
    kept input of layer 1, then into a core of the TT layer 1, whose
    reconstructed matrix must be rebuilt."""
    model = build_model("black-scholes", tensorized=True, seed=0)
    theta = model.get_flat()
    model.set_flat(theta)
    x = rng.uniform([0.0, 0.0], [200.0, 1.0], size=(40, 2))
    model(x)
    before = model(x)
    for segment in ("layer0.weight", "layer1.core0"):
        assert set(model._cache.kept) == {0, 1}  # the same rows twice in a row
        start, stop = next((a, b) for name, a, b in model.segments() if name == segment)
        theta[start:stop] += 0.1
        model.set_flat(theta)
        after = model(x)
        fresh = build_model("black-scholes", tensorized=True, seed=0)
        fresh.set_flat(theta.copy())
        assert not np.array_equal(after, before), segment
        assert np.array_equal(after, fresh(x)), segment
        before = after


@pytest.mark.parametrize("domain", ["weight", "phase"])
def test_set_flat_copies_a_vector_of_the_model_length(domain):
    """The model owns its store: a later write into the caller's vector is
    not seen until it is passed to `set_flat` again, and a vector of another
    length is refused."""
    model = build_run_model(_tiny_config("black-scholes", domain, True), SEED)
    theta = model.get_flat()
    x = np.array([[50.0, 0.5], [120.0, 0.9]])
    before = model(x)
    model.set_flat(theta)
    theta += 0.1
    assert np.array_equal(model(x), before)
    for bad in (theta[:-1], np.append(theta, 0.0), 0.5):
        with pytest.raises(ValueError):
            model.set_flat(bad)
    assert np.array_equal(model(x), before)


@pytest.mark.parametrize("tensorized", [True, False], ids=["tt", "dense"])
@pytest.mark.parametrize("domain", ["weight", "phase"])
def test_a_phase_layer_is_realized_once_per_distinct_phase_state(domain, tensorized, monkeypatch):
    """A layer returns to its base parameters (weights or phases) after its
    own +/- probes; that state is taken from the layer's recent realizations,
    not realized again."""
    cfg = _tiny_config("black-scholes", domain, tensorized)
    problem = config_problem(cfg)
    stein = config_stein(cfg, problem, SEED)
    model = build_run_model(cfg, SEED)
    calls = {}

    def count(cls, name):
        original = getattr(cls, name)

        def counted(layer, params):
            calls[id(layer)] = calls.get(id(layer), 0) + 1
            return original(layer, params)

        monkeypatch.setattr(cls, name, counted)

    if domain == "phase":
        count(PhotonicDense, "realized_weight")
        count(PhotonicTT, "realized_cores")
    else:
        count(DenseLayer, "realize")
        count(TTLayer, "realize")
    # a layer's parameters run from the end of the previous layer's bias to the start of its own
    biases = [(a, b) for name, a, b in model.segments() if name.endswith(".bias")]
    param_spans = [(prev[1], a) for prev, (a, _) in zip([(0, 0)] + biases, biases)]
    states = [set() for _ in model.layers]

    def loss_at(step):
        loss = step_loss(model, problem, stein, SEED, step)

        def fn(th):
            for seen, (a, b) in zip(states, param_spans):
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
    groups = [len(layer.shapes) for layer in model.layers]  # probed parameter groups per layer
    assert [len(seen) for seen in states] == [3 * (1 + 2 * g) for g in groups]  # base, + and - per group and step


@pytest.mark.parametrize("domain", ["weight", "phase"])
def test_holdout_forward_keeps_no_activation(domain):
    cfg = _tiny_config("black-scholes", domain, True)
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
