"""Phase-domain realization against independent oracles.

The per-rotator loop below is the reference the stage-batched mesh kernel
must reproduce bit for bit; blocks, layers and whole models are checked
against explicit U Sigma V^T products, block-by-block assembly and dense
TT reconstruction.
"""

import numpy as np
import pytest

from photopinn.config import ConfigError, RunConfig
from photopinn.photonic import (
    MziMesh,
    NoiseModel,
    PhotonicDense,
    PhotonicMlp,
    PhotonicTT,
    SvdBlock,
    block_phase_count,
    clements_placements,
    mesh_matrices,
    mzi_rotation,
    quantize_phases,
    random_phases,
    stage_neighbors,
    mzi_count,
    svd_matrices,
)
from photopinn.models import phase_layers
from photopinn.photonic.model import _layer_pairs
from photopinn.tensortrain import TTLayout, tt_reconstruct
from photopinn.training import _save_model, build_run_model, config_architecture, load_model, train

TWO_PI = 2.0 * np.pi


def reference_meshes(phases, n):
    """One rotator at a time, in placement order, for every mesh of a
    (B, n(n-1)/2) batch: the pre-batching algorithm."""
    u = np.broadcast_to(np.eye(n), (len(phases), n, n)).copy()
    c = np.cos(phases)
    s = np.sin(phases)
    for k, (i, j, _) in enumerate(clements_placements(n)):
        ck, sk = c[:, k, None], s[:, k, None]
        ri = ck * u[:, i] + sk * u[:, j]
        rj = -sk * u[:, i] + ck * u[:, j]
        u[:, i] = ri
        u[:, j] = rj
    return u


def reference_mesh(phases, n):
    return reference_meshes(np.asarray(phases)[None], n)[0]


def u64(a):
    """The bytes of a float64 array: unlike `np.array_equal`, tells -0.0 from +0.0."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def explicit_block(phases, m, n, scale):
    nu = m * (m - 1) // 2
    k = min(m, n)
    sig = np.zeros((m, n))
    sig[np.arange(k), np.arange(k)] = scale * np.cos(phases[nu : nu + k])
    return reference_mesh(phases[:nu], m) @ sig @ reference_mesh(phases[nu + k :], n)


@pytest.mark.parametrize("n", range(1, 10))
def test_batched_mesh_equals_per_rotator_loop(n, rng):
    """Byte for byte, for batches of 1, 7 and 512 meshes, also with phases of
    exactly +0.0 and -0.0, whose zero sines make the signs of zero entries
    depend on the order of the arithmetic."""
    for batch in (1, 7, 512):
        phases = rng.uniform(-TWO_PI, 2.0 * TWO_PI, size=(batch, n * (n - 1) // 2))
        phases[::3, ::2] = 0.0
        phases[1::3, 1::2] = -0.0
        want = reference_meshes(phases, n)
        got = mesh_matrices(phases)
        assert got.shape == (batch, n, n) and got.flags.c_contiguous
        assert np.array_equal(u64(got), u64(want))


def test_mesh_bytes_keep_signed_zeros(rng):
    """The byte comparison above is stricter than `np.array_equal`: the
    reference meshes it checks hold -0.0 entries."""
    phases = rng.uniform(-TWO_PI, 2.0 * TWO_PI, size=(512, 3))
    phases[1::3, 1::2] = -0.0
    want = reference_meshes(phases, 3)
    assert np.any((want == 0.0) & np.signbit(want))
    assert np.array_equal(u64(mesh_matrices(phases)), u64(want))


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_mesh_is_orthogonal_with_n_choose_2_rotators(n, rng):
    mesh = MziMesh.random(n, rng)
    assert mesh.n_rotators == n * (n - 1) // 2 == len(clements_placements(n))
    u = mesh.matrix()
    np.testing.assert_allclose(u @ u.T, np.eye(n), atol=1e-12)
    assert np.array_equal(u, reference_mesh(mesh.phases, n))


def test_two_mode_mesh_is_one_rotation():
    assert np.array_equal(MziMesh(2, [0.3]).matrix(), mzi_rotation(0.3))


@pytest.mark.parametrize("n", range(2, 10))
def test_stage_neighbors_pair_consecutive_rotators_of_one_stage(n):
    by_stage = {}
    for k, (_, _, stage) in enumerate(clements_placements(n)):
        by_stage.setdefault(stage, []).append(k)
    want = [(a, b) for ks in by_stage.values() for a, b in zip(ks[:-1], ks[1:])]
    assert stage_neighbors(n).tolist() == [list(p) for p in want]


@pytest.mark.parametrize(
    "m,n", [(8, 8), (4, 6), (6, 4), (1, 4), (8, 2), (1, 1), (5, 5), (10, 10), (5, 8), (8, 5)]
)
def test_svd_block_equals_explicit_u_sigma_vt(m, n, rng):
    """Byte for byte, one block and batches of 1, 7 and 64: square blocks
    realize U and V in one mesh batch, rectangular ones in two."""
    block = SvdBlock.random(m, n, 0.7, rng)
    phases = np.concatenate([block.u_mesh.phases, block.sigma_phases, block.v_mesh.phases])
    assert len(phases) == block.n_phases() == block_phase_count(m, n)
    assert np.array_equal(u64(block.matrix()), u64(explicit_block(phases, m, n, 0.7)))
    for batch in (1, 7, 64):
        phases = rng.uniform(-TWO_PI, 2.0 * TWO_PI, size=(batch, block_phase_count(m, n)))
        scales = rng.uniform(0.5, 2.0, size=batch)
        got = svd_matrices(phases, m, n, scales)
        want = np.stack([explicit_block(phases[b], m, n, scales[b]) for b in range(batch)])
        assert np.array_equal(u64(got), u64(want))


def test_dense_layer_assembles_block_grid_row_major(rng):
    layer = PhotonicDense(11, 13, block=4)  # 4 x 3 grid, trimmed to 13 x 11
    phases = random_phases(layer, rng)
    want = np.zeros((16, 12))
    for p in range(4):
        for q in range(3):
            want[4 * p : 4 * p + 4, 4 * q : 4 * q + 4] = explicit_block(phases[3 * p + q], 4, 4, layer.scale)
    assert np.array_equal(layer.realized_weight(phases), want[:13, :11])


def _small_model(rng, noise=None):
    layers = [
        PhotonicDense(3, 16, block=4),
        PhotonicTT(TTLayout((4, 4), (4, 4), (1, 2, 1))),
        PhotonicDense(16, 1, block=4),
    ]
    return PhotonicMlp(
        layers,
        [random_phases(layer, rng) for layer in layers],
        noise=noise,
        input_shift=np.array([0.1, 0.2, 0.3]),
        input_scale=np.array([2.0, 1.0, 0.5]),
        output_scale=3.0,
    )


def test_noiseless_model_equals_forward_through_realized_weights(rng):
    model = _small_model(rng, NoiseModel.disabled())
    spans = {name: slice(start, stop) for name, start, stop in model.segments()}
    theta = model.get_flat()
    for k in range(3):
        theta[spans[f"layer{k}.bias"]] = rng.uniform(-0.5, 0.5, size=model.layers[k].n_out)
    model.set_flat(theta)
    assert np.array_equal(model.effective_phases(), model.phase_vector())

    x = rng.uniform(-1.0, 1.0, size=(9, 3))
    h = (x - model.input_shift) * model.input_scale
    phases = model.phase_vector()
    pos = 0
    for k, layer in enumerate(model.layers):
        n_ph = int(np.prod(layer.phase_shape))
        ph = phases[pos : pos + n_ph].reshape(layer.phase_shape)
        pos += n_ph
        if isinstance(layer, PhotonicTT):
            w = tt_reconstruct(layer.realized_cores(ph))
        else:
            w = layer.realized_weight(ph)
        h = h @ w.T + theta[spans[f"layer{k}.bias"]]
        if k < len(model.layers) - 1:
            h = np.tanh(h)
    np.testing.assert_allclose(model(x), 3.0 * h[:, 0], rtol=1e-12, atol=1e-14)
    assert model(x[0]) == pytest.approx(model(x)[0], rel=1e-12)


def test_noise_changes_effective_phases_only(rng):
    model = _small_model(rng, NoiseModel(bits=6, crosstalk=0.01, seed=4))
    theta = model.get_flat()
    eff = model.effective_phases()
    assert eff.shape == (model.n_phases,)
    assert not np.array_equal(eff, model.phase_vector())
    assert np.array_equal(model.get_flat(), theta)


@pytest.mark.parametrize("bits", [1, 3, 8, 12])
def test_quantize_phases_is_idempotent(bits, rng):
    phases = rng.uniform(-3 * TWO_PI, 3 * TWO_PI, size=200)
    q = quantize_phases(phases, bits)
    assert np.array_equal(quantize_phases(q, bits), q)
    assert np.all((q >= 0.0) & (q < TWO_PI))


@pytest.mark.parametrize("bits", [1, 3, 8, 12])
def test_quantize_phases_wraps_like_float_modulo(bits, rng):
    """The level wrap q - 2^b floor(q / 2^b) gives the bytes of the float
    `%` it replaced: on negatives, exact half levels (round half to even),
    signed zeros, NaN and infinities."""
    lsb = TWO_PI / (1 << bits)
    levels = np.arange(-3 * (1 << bits), 3 * (1 << bits) + 1)
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, -1e-300, 1e300, -1e300]
    phases = np.concatenate(
        [levels * lsb, (levels + 0.5) * lsb, (levels - 0.5) * lsb, rng.uniform(-20.0, 20.0, 500), special]
    )
    with np.errstate(invalid="ignore"):
        want = (np.round(phases / lsb) % (1 << bits)) * lsb
        got = quantize_phases(phases, bits)
    assert np.array_equal(u64(got), u64(want))


def test_flat_round_trip_owns_its_copy(rng):
    model = _small_model(rng)
    theta = rng.uniform(0.0, TWO_PI, size=model.n_params)
    model.set_flat(theta)
    got = model.get_flat()
    assert np.array_equal(got, theta)
    got[:] = 0.0
    theta[:] = 0.0
    assert not np.array_equal(model.get_flat(), theta)
    assert model.n_phases + sum(layer.n_out for layer in model.layers) == model.n_params


@pytest.mark.parametrize("domain", ["phase", "weight"])
def test_checkpoint_round_trip(domain, tmp_path, rng):
    cfg = RunConfig(problem_name="black-scholes", domain=domain)
    model = build_run_model(cfg, seed=5)
    theta = model.get_flat() + 0.1 * rng.standard_normal(model.n_params)
    model.set_flat(theta)
    _save_model(tmp_path / "checkpoint.npz", cfg, model, 5, 7)
    loaded, spec = load_model(tmp_path / "checkpoint.npz")
    assert spec["seed"] == 5 and spec["iteration"] == 7 and spec["domain"] == domain
    assert type(loaded) is type(model)
    assert np.array_equal(loaded.get_flat(), theta)
    x = np.array([[50.0, 0.5], [120.0, 0.9]])
    assert np.array_equal(loaded(x), model(x))


_WIDTHS_THAT_MISS_THE_FOLD = [("black-scholes", 64), ("hjb", 256), ("burgers", 50), ("darcy", 64)]


@pytest.mark.parametrize(
    "domain,problem,width",
    [pytest.param("phase", p, w, id=f"{p}-{w}") for p, w in _WIDTHS_THAT_MISS_THE_FOLD]
    + [pytest.param("weight", p, w, id=f"{p}-{w}-weight") for p, w in _WIDTHS_THAT_MISS_THE_FOLD],
)
def test_phase_model_rejects_width_that_misses_the_fold(domain, problem, width, tmp_path):
    cfg = RunConfig(
        problem_name=problem,
        domain=domain,
        model_tensorized=True,
        model_width=width,
        run_out_dir=str(tmp_path),
    )
    with pytest.raises(ConfigError, match="model.width"):
        build_run_model(cfg, seed=0)
    with pytest.raises(ConfigError, match="model.width"):
        train(cfg)
    assert not (tmp_path / problem / "seed0").exists()  # nothing written before the build


def reference_layer_pairs(layer):
    """The per-block loop: each block's stage neighbors in U, then in V, offset by the block's start."""
    pairs = [np.empty((0, 2), dtype=np.intp)]
    pos = 0
    for m, n in layer.block_shapes:
        v_offset = m * (m - 1) // 2 + min(m, n)
        pairs.append(np.concatenate([stage_neighbors(m), stage_neighbors(n) + v_offset]) + pos)
        pos += block_phase_count(m, n)
    return np.concatenate(pairs)


@pytest.mark.parametrize("tensorized", [True, False], ids=["tt", "dense"])
@pytest.mark.parametrize("problem", ["black-scholes", "hjb", "burgers", "darcy"])
def test_layer_pairs_equal_the_per_block_loop(problem, tensorized):
    model = build_run_model(RunConfig(problem_name=problem, domain="phase", model_tensorized=tensorized), 0)
    for layer in model.layers:
        assert np.array_equal(_layer_pairs(layer), reference_layer_pairs(layer))


@pytest.mark.parametrize("tensorized", [True, False], ids=["tt", "dense"])
@pytest.mark.parametrize("problem", ["black-scholes", "hjb", "burgers", "darcy"])
def test_mzi_counts_are_the_phase_counts_of_the_trained_layers(problem, tensorized):
    cfg = RunConfig(problem_name=problem, domain="phase", model_tensorized=tensorized)
    model = build_run_model(cfg, 0)
    phases = [stop - start for name, start, stop in model.segments() if name.endswith(".phases")]
    layers = phase_layers(config_architecture(cfg))
    assert [mzi_count(layer) for layer in layers] == phases
    assert sum(phases) == model.n_phases
    if problem == "burgers" and tensorized:  # rectangular core blocks: (5, 8) and (8, 5), 43 phases each
        assert [layer.block_shapes for layer in layers[1:4]] == [[(5, 8), (10, 10), (8, 5)]] * 3
        assert phases[1:4] == [43 + 100 + 43] * 3
