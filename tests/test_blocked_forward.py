"""The blocked forward against a single-GEMM oracle, and its memory bound.

Forwards run in blocks of `BLOCK_ROWS` rows.  The oracle below multiplies
all rows by each layer at once, as the unblocked forward did: a dense layer
by its matrix, a TT layer by one `tt_forward` call over all rows; the
blocked forward must equal it bit for bit on either side of every block
edge, on a plain call and on the probe pairs of one block-major pass.
"""

import tracemalloc

import numpy as np
import pytest

from photopinn.config import RunConfig
from photopinn.models import build_model
from photopinn import nets
from photopinn.nets import BLOCK_ROWS, DenseLayer, Mlp, TTLayer
from photopinn.photonic import PhotonicTT
from photopinn.pde import get_problem
from photopinn.tensortrain import TTCores, TTLayout, tt_forward, tt_head, tt_init
from photopinn.training import build_run_model

B = BLOCK_ROWS
# Either side of the first block edge, and 2,047-2,049 and 4,242 rows: many
# blocks, a lone last row joined to the block before it (2,049 = 8 x 256 + 1),
# and a partial last block.
ROWS = sorted({1, B - 1, B, B + 1, 2 * B + 146, 2047, 2048, 2049, 4242})
_ACT = {"tanh": np.tanh, "sine": np.sin}


def _weight_layers(model):
    """Per layer: (matrix or TT cores, bias) of a weight-domain model, read from its flat vector."""
    theta = model.get_flat()
    seg = {name: theta[start:stop] for name, start, stop in model.segments()}
    out = []
    for k, lay in enumerate(model.layers):
        if isinstance(lay, TTLayer):
            cores = [seg[f"layer{k}.core{j}"].reshape(lay.layout.core_shape(j)) for j in range(lay.layout.L)]
            matrix = TTCores(lay.layout, cores)
        else:
            matrix = seg[f"layer{k}.weight"].reshape(lay.n_out, lay.n_in)
        out.append((matrix, seg[f"layer{k}.bias"]))
    return out


def _phase_layers(model):
    """Per layer: (matrix or TT cores, bias) of a phase-domain model, realized from its effective phases."""
    effective = model.effective_phases()
    theta = model.get_flat()
    spans = dict((name, (start, stop)) for name, start, stop in model.segments())
    out, pos = [], 0
    for k, lay in enumerate(model.layers):
        size = int(np.prod(lay.phase_shape))
        phases = effective[pos : pos + size].reshape(lay.phase_shape)
        pos += size
        if isinstance(lay, PhotonicTT):
            matrix = lay.realized_cores(phases)
        else:
            matrix = lay.realized_weight(phases)
        start, stop = spans[f"layer{k}.bias"]
        out.append((matrix, theta[start:stop]))
    return out


def oracle(model, x, domain):
    """One product per layer over all rows: the unblocked forward."""
    layers = _weight_layers(model) if domain == "weight" else _phase_layers(model)
    h = (x - model.input_shift) * model.input_scale
    act = _ACT[model.activation]
    for k, (matrix, bias) in enumerate(layers):
        h = tt_forward(matrix, h) if isinstance(matrix, TTCores) else h @ matrix.T
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
    assert np.array_equal(got, oracle(model, x, domain))


@_MODELS
@pytest.mark.parametrize("rows", ROWS)
def test_pairs_equal_one_gemm_per_layer(domain, tensorized, rows):
    """The pairs of one step, in one pass and in `rge_estimate`'s order, on
    either side of every block edge: the bias pairs, the phase pairs and the
    weight pairs below two or more layers equal the oracle at theta +/- delta
    bit for bit; the weight pairs below at most the output layer take the
    (P + b) +/- D split and agree within rounding."""
    model = _model(domain, tensorized)
    x = np.random.default_rng(rows).uniform([-1.0, 0.0], [1.0, 1.0], size=(rows, 2))
    theta = model.get_flat()
    last = len(model.layers) - 1
    rng = np.random.default_rng(5)
    segments = model.segments()
    probes = [(slice(start, stop), 0.01 * rng.standard_normal(stop - start)) for _, start, stop in segments]
    model.set_flat(theta)
    for (name, _, _), (sl, delta), got in zip(segments, probes, model.pairs(x, probes), strict=True):
        k = int(name[len("layer") : name.index(".")])
        split = domain == "weight" and not name.endswith(".bias") and k >= last - 1
        for value, op in zip(got, (np.add, np.subtract)):
            moved = theta.copy()
            moved[sl] = op(theta[sl], delta)
            fresh = _model(domain, tensorized)
            fresh.set_flat(moved)
            want = oracle(fresh, x, domain)
            if split:
                np.testing.assert_allclose(value, want, rtol=0, atol=1e-13 * np.abs(want).max(), err_msg=name)
            else:
                assert np.array_equal(value, want), name


@pytest.mark.parametrize("tensorized", [True, False], ids=["tt", "dense"])
def test_one_off_holdout_forward_peaks_below_a_few_blocks(tensorized):
    """A Black-Scholes hold-out forward (20,301 rows x width 128) holds no
    full-size hidden activation: its peak is two block buffers, the output
    column and the realized layers (at most four 128 x 128 matrices with
    their parameter copies), bounded by BLOCK_ROWS, not by the row count."""
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
    assert peak < 2 * (B + 1) * width * 8 + len(pts) * 8 + 4 * width * width * 8 < full_activation


@pytest.mark.parametrize("domain", ["weight", "phase"])
def test_global_probes_keep_no_full_size_hidden_activation(domain):
    """A pair over every segment, as under global grouping, runs every layer
    at theta +/- delta: it peaks below one full-size hidden activation, and
    each of its values equals a fresh model's."""
    model = _model(domain, True)
    rows = 24 * B + 146  # many blocks and a partial one
    x = np.random.default_rng(0).uniform([-1.0, 0.0], [1.0, 1.0], size=(rows, 2))
    rng = np.random.default_rng(1)
    theta = model.get_flat()
    full_activation = rows * model.layers[0].n_out * 8
    model(x)
    for _ in range(3):
        theta += 0.01 * rng.standard_normal(theta.shape)
        delta = 0.01 * rng.standard_normal(theta.shape)
        model.set_flat(theta)
        tracemalloc.start()
        try:
            got = model.pairs(x, [(slice(0, len(theta)), delta)])[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < full_activation
        for value, op in zip(got, (np.add, np.subtract)):
            fresh = _model(domain, True)
            fresh.set_flat(op(theta, delta))
            assert np.array_equal(value, fresh(x))


def _count_applies(model, monkeypatch) -> dict:
    """Per layer of `model` (by id), how many times its `apply` runs from now on."""
    counts = {id(layer): 0 for layer in model.layers}
    for cls in {type(layer) for layer in model.layers}:
        apply = cls.apply

        def counted(self, *args, apply=apply):
            counts[id(self)] += 1
            apply(self, *args)

        monkeypatch.setattr(cls, "apply", counted)
    return counts


@pytest.mark.parametrize(
    "domain,tensorized,applies",
    [
        ("weight", True, [3, 7, 14]),
        ("weight", False, [3, 6, 10]),
        ("phase", True, [3, 7, 11]),
        ("phase", False, [3, 7, 11]),
    ],
    ids=["weight-tt", "weight-dense", "phase-tt", "phase-dense"],
)
def test_a_step_applies_the_layers_below_each_probe_once(domain, tensorized, applies, monkeypatch):
    """Black-Scholes layer applies per row block over one step's pairs, in
    one pass.  A layer is applied once for its base product,
    once per direction (a weight-domain weight below at most the output
    layer), twice per pair that realizes both states of it, and twice per
    pair on a layer below it; never for a pair on a layer above it.  Layer 1
    of the TT model: 2 x 2 for the two pairs of layer 0, 1 for its product,
    2 for the directions of cores 1 and 2; core 0's direction takes the T
    of the base product and is no apply (`tensortrain.tt_head`).
    """
    cfg = RunConfig(problem_name="black-scholes", domain=domain, model_tensorized=tensorized)
    model = build_run_model(cfg, 0)
    counts = _count_applies(model, monkeypatch)
    x = np.random.default_rng(0).uniform([0.0, 0.0], [200.0, 1.0], size=(2 * B + 146, 2))
    rng = np.random.default_rng(1)
    model.pairs(x, [(slice(start, stop), 0.01 * rng.standard_normal(stop - start)) for _, start, stop in model.segments()])
    assert [counts[id(layer)] for layer in model.layers] == [3 * n for n in applies]  # three row blocks


@pytest.mark.parametrize("heads", [1, 2, 3])
def test_one_head_core_probe_per_layer_and_block_reads_the_base_T(heads, monkeypatch):
    """Of several probes of a TT layer's head core in one pass, the first
    takes its D from the T of each block's base product (`tt_head`); the
    others multiply through the full split, since the bias probes overwrite
    that T first.  With one delta for all of them, every head probe's
    outputs are equal bit for bit, whichever path made them."""
    model = build_run_model(RunConfig(problem_name="black-scholes", model_tensorized=True), 0)
    spans = {name: slice(start, stop) for name, start, stop in model.segments()}
    head, bias = spans["layer1.core0"], spans["layer1.bias"]
    rng = np.random.default_rng(1)
    delta = 0.01 * rng.standard_normal(head.stop - head.start)
    probes = [(bias, 0.01 * rng.standard_normal(bias.stop - bias.start))] + [(head, delta)] * heads
    counts = _count_applies(model, monkeypatch)
    reads = []
    monkeypatch.setattr(nets, "tt_head", lambda *args: reads.append(args) or tt_head(*args))
    x = np.random.default_rng(0).uniform([0.0, 0.0], [200.0, 1.0], size=(2 * B + 146, 2))
    got = model.pairs(x, probes)
    assert (len(reads), counts[id(model.layers[1])]) == (3, 3 * heads)  # three row blocks
    for value in got[2:]:
        assert np.array_equal(value, got[1])


@pytest.mark.parametrize("domain", ["weight", "phase"])
def test_global_probes_run_no_base_forward(domain, monkeypatch):
    """A pass whose probes are all global applies each layer twice per probe
    and row block, at theta + delta and theta - delta, and never realizes or
    applies a layer at theta."""
    cfg = RunConfig(problem_name="black-scholes", domain=domain)
    model = build_run_model(cfg, 0)
    counts = _count_applies(model, monkeypatch)
    monkeypatch.setattr(type(model), "_realization", lambda self, k: pytest.fail("realized at theta"))
    x = np.random.default_rng(0).uniform([0.0, 0.0], [200.0, 1.0], size=(2 * B + 146, 2))
    rng = np.random.default_rng(1)
    n = model.n_params
    model.pairs(x, [(slice(0, n), 0.01 * rng.standard_normal(n)) for _ in range(2)])
    assert [counts[id(layer)] for layer in model.layers] == [2 * 2 * 3] * len(model.layers)


def test_pairs_under_a_tt_output_layer_equal_fresh_forwards():
    """A TT output layer puts its T in the buffer a direction's D would hold,
    so the weight below it takes both probe states instead: the pairs of
    layer 0 equal two fresh forwards bit for bit, across block edges."""
    lay = TTLayout((4, 4), (1, 1), (1, 2, 1))  # 16 -> 1, T 8 floats per row
    rng = np.random.default_rng(0)
    params = [[0.3 * rng.standard_normal((16, 2))], tt_init(lay, 1).cores]
    model = Mlp([DenseLayer(2, 16), TTLayer(lay)], params)
    x = rng.uniform(-1.0, 1.0, size=(2 * B + 146, 2))
    theta = model.get_flat()
    probes = [
        (slice(start, stop), 0.01 * rng.standard_normal(stop - start))
        for name, start, stop in model.segments()
        if name.startswith("layer0.")
    ]
    got = model.pairs(x, probes)
    for (sl, delta), values in zip(probes, got, strict=True):
        for value, op in zip(values, (np.add, np.subtract)):
            moved = theta.copy()
            moved[sl] = op(theta[sl], delta)
            fresh = Mlp([DenseLayer(2, 16), TTLayer(lay)], params)
            fresh.set_flat(moved)
            assert np.array_equal(value, fresh(x))
