"""Work reused across ZO probes against a cache-free oracle.

A network reuses the realization of a layer whose parameters did not
change, and the pairs of one ZO step run in one block-major pass over the
rows, in both domains.  The oracle builds a fresh model for every loss
query, so nothing carries over between queries.  Every plain query through the training loss
must equal it bit for bit, and so must every pair value except those of a
weight-domain weight segment below at most the output layer, which agree
within a stated bound.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from photopinn.config import RunConfig
from photopinn.models import build_model
from photopinn.nets import DenseLayer, Mlp, TTLayer
from photopinn.pde import pinn_loss, step_inputs
from photopinn.photonic import PhotonicDense, PhotonicTT, apply_nonidealities, block_phase_count, stage_neighbors
from photopinn.training import build_run_model, config_problem, config_stein, evaluate_model, step_loss
from photopinn.tensortrain import TTLayout
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


# Bounds on the pair values of a weight-domain weight segment below at most
# the output layer, whose product is split as (P + b) +/- D.  Measured on
# these cases at one to three probes per group: L+/- moved by at most
# ~6.5e-9 relative and the estimate by ~1.3e-7 of max |g_hat|, as with the
# (P +/- D) + b order before, worst on Black-Scholes, whose sigma = 1e-3 Stein
# stencil amplifies rounding by 1/sigma^2; the other problems stayed below
# ~2e-11 on L+/-.  g_hat is (L+ - L-) / (2 mu) x xi, so it loses the digits
# L+ and L- share.  Each bound leaves a factor of ~15 of room.
PAIR_LOSS_RTOL = 1e-7
PAIR_GRAD_RTOL = 3e-6


@pytest.mark.parametrize("grouping", ["per-tensor", "global"])
@pytest.mark.parametrize("problem,domain,tensorized", _CASES)
def test_pair_path_equals_a_fresh_model_per_query(problem, domain, tensorized, grouping):
    """`rge_estimate` takes the training loss's `pairs`: every L+/- and every
    entry of g_hat equals the fresh-model oracle bit for bit, except for the
    split weight segments, which agree within the bounds above.  Two probes
    per group, so a layer's base input and product serve several probes."""
    _check_pairs_against_fresh_queries(_tiny_config(problem, domain, tensorized), grouping)


@pytest.mark.parametrize("queries", [1, 3])
@pytest.mark.parametrize("problem", ["black-scholes", "burgers"])
def test_pair_path_equals_a_fresh_model_per_query_at_one_and_three_probes(problem, queries):
    """The same on the weight-domain TT models at one and three probes per
    group.  Of a TT layer's head-core probes, the first in each row block
    takes its T from the base product and the others the full split."""
    _check_pairs_against_fresh_queries(_tiny_config(problem, "weight", True), "per-tensor", queries)


@pytest.mark.parametrize("domain,tensorized", [("weight", True), ("phase", False)], ids=["weight-tt", "phase-dense"])
@pytest.mark.parametrize("problem", ["black-scholes", "burgers"])
def test_monte_carlo_pair_path_equals_a_fresh_model_per_query(problem, domain, tensorized):
    """The same with Monte-Carlo Stein pairs (`loss.mode = se`), whose plan
    draws new offsets every step, in place of the sparse grid."""
    cfg = replace(_tiny_config(problem, domain, tensorized), loss_mode="se", loss_samples=16)
    _check_pairs_against_fresh_queries(cfg, "per-tensor")


def _check_pairs_against_fresh_queries(cfg, grouping, queries=2):
    domain = cfg.domain
    problem_ = config_problem(cfg)
    stein = config_stein(cfg, problem_, SEED)
    model = build_run_model(cfg, SEED)
    theta = model.get_flat()
    view = ParamView.from_segments(model.segments())
    zo = ZoConfig(
        queries=queries,
        radius=cfg.zo_radius_effective(),
        distribution=cfg.zo_distribution_effective(),
        grouping=grouping,
        seed=SEED,
    )
    last = len(model.layers) - 1
    groups = view.groups(grouping)

    def split(name):
        """A weight-domain weight segment below at most the output layer (not the global group)."""
        head, _, tail = name.partition(".")
        return domain == "weight" and tail not in ("", "bias") and int(head[len("layer") :]) >= last - 1

    for step in range(2):  # the second step brings new rows and new base parameters
        want_values, got_values = [], []
        loss = step_loss(model, problem_, stein, SEED, step)

        def fresh(th):
            net = build_run_model(cfg, SEED)
            net.set_flat(th)
            want_values.append(pinn_loss(problem_.transform(net), problem_, stein, SEED, step)[0])
            return want_values[-1]

        def paired(th):
            raise AssertionError("a loss with pairs is asked for pairs only")

        def pairs(th, probes):
            values = loss.pairs(th, probes)
            got_values.extend(value for pair in values for value in pair)
            return values

        paired.pairs = pairs
        want, _ = rge_estimate(fresh, theta, view, zo, step)
        got, _ = rge_estimate(paired, theta, view, zo, step)
        per_group = 2 * zo.queries
        assert len(got_values) == len(want_values) == per_group * len(groups)
        for i, (name, sl) in enumerate(groups):
            pair_got, pair_want = (values[per_group * i : per_group * (i + 1)] for values in (got_values, want_values))
            if split(name):
                np.testing.assert_allclose(pair_got, pair_want, rtol=PAIR_LOSS_RTOL, atol=0, err_msg=name)
                assert np.abs(got[sl] - want[sl]).max() <= PAIR_GRAD_RTOL * np.abs(want).max(), name
            else:
                assert np.array_equal(pair_got, pair_want), name
                assert np.array_equal(got[sl], want[sl]), name
        theta = theta - 0.05 * got / (np.abs(got).max() + 1e-12)


def test_a_split_pair_is_exact_on_integers():
    """A TT layer, then a dense output layer, with small-integer cores,
    inputs and delta: every product and sum before the activation is exact,
    so the (P + b) +/- D split of a core pair, and the bias pairs, equal two
    plain forwards at theta +/- delta bit for bit.  A wrong core slot, sign
    or bias would change an exact integer."""
    layout = TTLayout((2, 3), (3, 2), (1, 2, 1))
    rng = np.random.default_rng(0)
    layers = [TTLayer(layout), DenseLayer(layout.rows, 1)]
    params = [[np.zeros(layout.core_shape(k)) for k in range(2)], [np.zeros((1, layout.rows))]]
    model = Mlp(layers, params)
    theta = rng.integers(-1, 2, model.n_params).astype(float)
    x = rng.integers(-1, 2, (40, layout.cols)).astype(float)
    # layer1.weight is left out: its pair splits the product of tanh outputs, which rounds
    segments = [(name, slice(start, stop)) for name, start, stop in model.segments() if name != "layer1.weight"]
    probes = [(sl, rng.integers(-2, 3, sl.stop - sl.start).astype(float)) for _, sl in segments]
    model.set_flat(theta)
    for (name, _), (sl, delta), got in zip(segments, probes, model.pairs(x, probes), strict=True):
        start, stop = sl.start, sl.stop
        for value, op in zip(got, (np.add, np.subtract)):
            moved = theta.copy()
            moved[start:stop] = op(theta[start:stop], delta)
            plain = Mlp(layers, params)
            plain.set_flat(moved)
            assert np.array_equal(value, plain(x)), name


# Per row, what a warm step may allocate beside its query outputs: the step's
# sample and evaluation points, and one loss query's values and Stein combine
# temporaries (measured: ~18 bytes per row on Black-Scholes).  A (rows x 128)
# hidden activation is 1,024 bytes per row.
STEP_SLACK_PER_ROW = 16 * 8


def _warm_step_peak(scale: int) -> tuple[int, int, int]:
    """(rows, probes, tracemalloc peak) of the second per-tensor step of a
    Black-Scholes TT model with its point counts (100 residual, 10 initial,
    10 per boundary side) times `scale`.  Tracing starts before the model is
    built, so the peak counts what the first step left behind too."""
    cfg = RunConfig(
        problem_name="black-scholes",
        model_tensorized=True,
        problem_residual_points=100 * scale,
        problem_initial_points=10 * scale,
        problem_boundary_points=10 * scale,
    )
    problem = config_problem(cfg)
    stein = config_stein(cfg, problem, SEED)
    tracemalloc.start()
    try:
        model = build_run_model(cfg, SEED)
        theta = model.get_flat()
        view = ParamView.from_segments(model.segments())
        zo = ZoConfig(seed=SEED)
        rge_estimate(step_loss(model, problem, stein, SEED, 0), theta, view, zo, 0)
        tracemalloc.reset_peak()
        rge_estimate(step_loss(model, problem, stein, SEED, 1), theta, view, zo, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = len(step_inputs(problem, stein, SEED, 1).points)
    return rows, len(view.groups(zo.grouping)) * zo.queries, peak


def test_a_warm_step_grows_with_rows_by_its_query_outputs_only():
    """No array a step holds or allocates grows with rows x width: at four
    times the rows, a warm per-tensor step's peak grows by its query outputs
    (2 x probes x rows floats) and a few row-length vectors, not by a
    (rows x 128) hidden activation."""
    _warm_step_peak(1)  # the first traced step of a process also counts one-time allocations (~0.6 MB)
    rows1, probes, peak1 = _warm_step_peak(1)
    rows4, _, peak4 = _warm_step_peak(4)
    assert rows4 == 4 * rows1
    grown = rows4 - rows1
    assert peak4 - peak1 <= (2 * probes * 8 + STEP_SLACK_PER_ROW) * grown < 2 * 128 * 8 * grown


def test_writing_into_the_flat_vector_reaches_the_next_forward(rng):
    """An in-place write into a vector passed to `set_flat` again, as a
    caller may do with its probe, is seen: the pairs on the same rows follow
    a write into layer 0, and a write into a core of the TT layer 1 rebuilds
    its realized matrix."""
    model = build_model("black-scholes", tensorized=True, seed=0)
    theta = model.get_flat()
    x = rng.uniform([0.0, 0.0], [200.0, 1.0], size=(40, 2))
    spans = {name: slice(start, stop) for name, start, stop in model.segments()}
    probe, delta = spans["layer2.bias"], np.array([0.01])
    model.set_flat(theta)
    before = model.pairs(x, [(probe, delta)])[0]
    for segment in ("layer0.weight", "layer1.core0"):
        theta[spans[segment]] += 0.1
        model.set_flat(theta)
        after = model.pairs(x, [(probe, delta)])[0]
        for value, op in zip(after, (np.add, np.subtract)):
            moved = theta.copy()
            moved[probe] = op(theta[probe], delta)
            fresh = build_model("black-scholes", tensorized=True, seed=0)
            fresh.set_flat(moved)
            assert np.array_equal(value, fresh(x)), segment
        assert not np.array_equal(after[0], before[0]), segment
        before = after
    theta[spans["layer1.core1"]] += 0.1
    model.set_flat(theta)
    fresh = build_model("black-scholes", tensorized=True, seed=0)
    fresh.set_flat(theta.copy())
    assert np.array_equal(model(x), fresh(x))


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
def test_a_layer_is_realized_once_per_state_a_step_needs(domain, tensorized, monkeypatch):
    """Over a ZO step's pairs a layer is realized at its base parameters
    once, then per parameter group at both probe states (phases, or a weight
    below two or more layers), or once at the direction (a weight below at
    most the output layer), but for a TT layer's head core, whose direction
    keeps the base realization's tail.  The logging query realizes each
    layer at the new parameters once, and the hold-out evaluation after it
    reuses that."""
    cfg = _tiny_config("black-scholes", domain, tensorized)
    problem = config_problem(cfg)
    stein = config_stein(cfg, problem, SEED)
    model = build_run_model(cfg, SEED)
    calls = {id(layer): 0 for layer in model.layers}

    def count(cls, name):
        original = getattr(cls, name)

        def counted(layer, params):
            calls[id(layer)] += 1
            return original(layer, params)

        monkeypatch.setattr(cls, name, counted)

    if domain == "phase":
        count(PhotonicDense, "realized_weight")
        count(PhotonicTT, "realized_cores")
    else:
        count(DenseLayer, "realize")
        count(TTLayer, "realize")
    last = len(model.layers) - 1
    per_group = [1 if domain == "weight" and k >= last - 1 else 2 for k in range(len(model.layers))]
    heads = [per_group[k] == 1 and isinstance(layer, TTLayer) for k, layer in enumerate(model.layers)]
    per_step = [1 + per_group[k] * len(layer.shapes) - heads[k] for k, layer in enumerate(model.layers)]

    def realized():
        return [calls[id(layer)] for layer in model.layers]

    theta = model.get_flat()
    view = ParamView.from_segments(model.segments())
    zo = ZoConfig(radius=cfg.zo_radius_effective(), distribution=cfg.zo_distribution_effective(), seed=SEED)
    for step in range(3):
        grad, _ = rge_estimate(step_loss(model, problem, stein, SEED, step), theta, view, zo, step)
        theta = theta - 0.05 * grad / (np.abs(grad).max() + 1e-12)
        assert realized() == [(step + 1) * n for n in per_step]
    step_loss(model, problem, stein, SEED, 3)(theta)
    evaluate_model(model, problem)
    assert realized() == [3 * n + 1 for n in per_step]


@pytest.mark.parametrize("domain", ["weight", "phase"])
def test_holdout_forward_keeps_no_activation(domain):
    """Neither a step's pairs nor a hold-out forward leave an array behind:
    once the block buffers and realizations exist, the model holds after
    both what it held before."""
    cfg = _tiny_config("black-scholes", domain, True)
    problem = config_problem(cfg)
    stein = config_stein(cfg, problem, SEED)
    model = build_run_model(cfg, SEED)
    loss = step_loss(model, problem, stein, SEED, 0)
    theta = model.get_flat()
    probes = [(slice(start, stop), np.full(stop - start, 0.01)) for _, start, stop in model.segments()]
    loss.pairs(theta, probes)
    evaluate_model(model, problem)
    tracemalloc.start()
    try:
        loss.pairs(theta, probes)
        evaluate_model(model, problem)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 8 * 1024  # a hold-out output column alone is 20,301 x 8 bytes


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
