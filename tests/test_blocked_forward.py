"""The blocked forward against a single-GEMM oracle, and its memory bound.

Forwards run in blocks of `BLOCK_ROWS` rows.  The oracle below multiplies
all rows by each layer's whole matrix at once, as the unblocked forward did;
the blocked forward must equal it bit for bit on either side of every block
edge, on a one-off call and on a call that restarts from kept activations.
"""

import tracemalloc

import numpy as np
import pytest

from photopinn.config import RunConfig
from photopinn.models import build_model
from photopinn.nets import BLOCK_ROWS, TTLayer
from photopinn.photonic import PhotonicTT
from photopinn.pde import get_problem
from photopinn.tensortrain import TTCores, tt_reconstruct
from photopinn.training import build_run_model

B = BLOCK_ROWS
ROWS = [1, B - 1, B, B + 1, 2 * B + 146]
_ACT = {"tanh": np.tanh, "sine": np.sin}


def _weight_layers(model):
    """Per layer: (matrix, bias) of a weight-domain model, read from its flat vector."""
    theta = model.get_flat()
    seg = {name: theta[start:stop] for name, start, stop in model.segments()}
    out = []
    for k, lay in enumerate(model.layers):
        if isinstance(lay, TTLayer):
            cores = [seg[f"layer{k}.core{j}"].reshape(lay.layout.core_shape(j)) for j in range(lay.layout.L)]
            matrix = tt_reconstruct(TTCores(lay.layout, cores))
        else:
            matrix = seg[f"layer{k}.weight"].reshape(lay.n_out, lay.n_in)
        out.append((matrix, seg[f"layer{k}.bias"]))
    return out


def _phase_layers(model):
    """Per layer: (matrix, bias) of a phase-domain model, realized from its effective phases."""
    effective = model.effective_phases()
    theta = model.get_flat()
    spans = dict((name, (start, stop)) for name, start, stop in model.segments())
    out, pos = [], 0
    for k, lay in enumerate(model.layers):
        size = int(np.prod(lay.phase_shape))
        phases = effective[pos : pos + size].reshape(lay.phase_shape)
        pos += size
        if isinstance(lay, PhotonicTT):
            matrix = tt_reconstruct(lay.realized_cores(phases))
        else:
            matrix = lay.realized_weight(phases)
        start, stop = spans[f"layer{k}.bias"]
        out.append((matrix, theta[start:stop]))
    return out


def oracle(model, x, domain):
    """One GEMM per layer over all rows: the unblocked forward."""
    layers = _weight_layers(model) if domain == "weight" else _phase_layers(model)
    h = (x - model.input_shift) * model.input_scale
    act = _ACT[model.activation]
    for k, (matrix, bias) in enumerate(layers):
        h = h @ matrix.T
        h += bias
        if k < len(layers) - 1:
            act(h, out=h)
    if model.output_scale != 1.0:
        h = h * model.output_scale
    return h[:, 0]


def _model(domain, tensorized):
    cfg = RunConfig(problem_name="burgers", domain=domain, model_tensorized=tensorized, run_seed=2)
    return build_run_model(cfg, 2)


_MODELS = pytest.mark.parametrize(
    "domain,tensorized",
    [(d, t) for d in ("weight", "phase") for t in (True, False)],
    ids=["weight-tt", "weight-dense", "phase-tt", "phase-dense"],
)


@_MODELS
@pytest.mark.parametrize("rows", ROWS)
def test_one_off_forward_equals_one_gemm_per_layer(domain, tensorized, rows):
    model = _model(domain, tensorized)
    x = np.random.default_rng(rows).uniform([-1.0, 0.0], [1.0, 1.0], size=(rows, 2))
    got = model(x)
    assert model._cache.kept == {}
    assert np.array_equal(got, oracle(model, x, domain))


@_MODELS
@pytest.mark.parametrize("rows", ROWS)
def test_forward_from_kept_activations_equals_one_gemm_per_layer(domain, tensorized, rows):
    """Probes on layers 1 and 2 restart from full-size kept activations; the
    layers after the first recomputed one run through the block buffers."""
    model = _model(domain, tensorized)
    x = np.random.default_rng(rows).uniform([-1.0, 0.0], [1.0, 1.0], size=(rows, 2))
    theta = model.get_flat()
    model(x)
    model(x)  # the same rows twice in a row: keeps the input and output of layer 0
    assert set(model._cache.kept) == {0, 1}
    spans = {name: (start, stop) for name, start, stop in model.segments()}
    for name in ("layer1.bias", "layer2.bias"):
        start, stop = spans[name]
        theta[start:stop] += 0.01
        model.set_flat(theta)
        got = model(x)
        k = int(name[len("layer")])
        assert set(model._cache.kept) == {k, k + 1}
        assert np.array_equal(got, oracle(model, x, domain)), name


@pytest.mark.parametrize("tensorized", [True, False], ids=["tt", "dense"])
def test_one_off_holdout_forward_peaks_below_a_few_blocks(tensorized):
    """A Black-Scholes hold-out forward (20,301 rows x width 128) holds no
    full-size hidden activation: its peak is bounded by BLOCK_ROWS, not by
    the row count."""
    model = build_model("black-scholes", tensorized=tensorized, seed=0)
    pts = get_problem("black-scholes").holdout_points()
    assert len(pts) == 20_301
    width = model.layers[0].n_out
    tracemalloc.start()
    try:
        model(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    full_activation = len(pts) * width * 8
    assert peak < 3 * B * width * 8 < full_activation


@pytest.mark.parametrize("domain", ["weight", "phase"])
def test_global_probes_keep_no_full_size_hidden_activation(domain):
    """Probes that change every layer, as under global grouping, restart from
    layer 0 each time, so the forward keeps only the input of layer 0: a
    repeated-rows forward peaks below one full-size hidden activation.  A
    later probe on layer 1 recomputes layer 0 once and keeps its output from
    then on.  Every forward equals a fresh model's."""
    model = _model(domain, True)
    rows = 3 * B + 146
    x = np.random.default_rng(0).uniform([-1.0, 0.0], [1.0, 1.0], size=(rows, 2))
    rng = np.random.default_rng(1)
    theta = model.get_flat()
    full_activation = rows * model.layers[0].n_out * 8

    def fresh_forward():
        fresh = _model(domain, True)
        fresh.set_flat(theta)
        return fresh(x)

    model(x)
    for _ in range(3):
        theta += 0.01 * rng.standard_normal(theta.shape)
        model.set_flat(theta)
        tracemalloc.start()
        try:
            got = model(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < full_activation
        assert set(model._cache.kept) == {0}
        assert np.array_equal(got, fresh_forward())
    start, stop = next((a, b) for name, a, b in model.segments() if name == "layer1.bias")
    for kept in ({0, 1}, {1, 2}):
        theta[start:stop] += 0.01
        model.set_flat(theta)
        got = model(x)
        assert set(model._cache.kept) == kept
        assert np.array_equal(got, fresh_forward())


@_MODELS
def test_a_per_tensor_probe_keeps_the_output_of_its_restart_layer(domain, tensorized, monkeypatch):
    """What a forward keeps follows from its own query.  On the same rows, in
    `rge_estimate`'s order, a probe on layer 0 leaves layers 1 and 2 unchanged
    and so keeps layer 0's output at once; the - probe on layer 1 then starts
    from it and applies layer 0 on no block.  Every forward equals a fresh
    model's."""
    cfg = RunConfig(problem_name="black-scholes", domain=domain, model_tensorized=tensorized)
    model = build_run_model(cfg, 0)
    layer0 = model.layers[0]
    applies = []
    apply = type(layer0).apply

    def counted(self, *args):
        applies.append(self is layer0)
        apply(self, *args)

    monkeypatch.setattr(type(layer0), "apply", counted)
    x = np.random.default_rng(0).uniform([0.0, 0.0], [200.0, 1.0], size=(2 * B + 146, 2))
    base = model.get_flat()
    layer0_seg, layer1_seg = (
        next(slice(a, b) for name, a, b in model.segments() if name.startswith(f"layer{k}.")) for k in (0, 1)
    )

    def query(shift, segment):
        theta = base.copy()
        theta[segment] += shift
        model.set_flat(theta)
        applies.clear()
        got = model(x)
        layer0_applies = sum(applies)
        fresh = build_run_model(cfg, 0)
        fresh.set_flat(theta)
        assert np.array_equal(got, fresh(x))
        return layer0_applies

    assert query(0.0, layer0_seg) == 3  # base: new rows, one apply per row block
    assert query(0.01, layer0_seg) == 3
    assert set(model._cache.kept) == {0, 1}
    assert query(0.01, layer1_seg) == 3  # layer 0 returns to its base parameters
    assert set(model._cache.kept) == {0, 1}
    assert query(-0.01, layer1_seg) == 0
    assert set(model._cache.kept) == {1, 2}
