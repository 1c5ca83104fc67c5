"""Phase-parameterized networks: every weight matrix realized by MZI phases.

Dense layers become ceil(M/k) x ceil(N/k) grids of k x k SVD blocks (k = 8);
tensor-train layers realize each core unfolding (r_k-1 * m_k) x (n_k * r_k)
as one rectangular SVD block, reshaped back into the 4-way core, and
reconstruct the matrix those cores represent once, when realized.  Either
way a realized layer is one (out, in) matrix, which every row block of a
forward multiplies by (see `nets.PrefixCache`).  Biases stay digital.

The model's flat vector theta (per layer: all phases, then that layer's bias)
is the only store of phases and biases; it matches the weight models' segment
interface so the same optimizer drives both domains.  Layers hold only static
per-block data (block shapes and singular-value scales).  A layer realizes
all of its blocks in one batched pass (meshes are applied stage by stage, see
`mesh.mesh_matrices`) from its effective phases.

Crosstalk adjacency: rotators that are neighbors within the same stage of the
same mesh couple with the model's coefficient; attenuator phases and
cross-mesh pairs do not couple.  Noise is therefore local to a layer:
quantization and gain act per device and no crosstalk pair crosses a block,
so a layer's effective phases depend on its own programmed phases only.

A forward realizes a layer again only when that layer's programmed phases
changed since the previous forward, as a chip reprograms only the phase
shifters a probe touched; it then reuses the layer prefix of the previous
call like `nets.TensorizedMlp` (see `nets.PrefixCache`), a layer counting as
changed when its phases or its bias did.  Each layer also keeps its last
`REALIZED_KEEP` realized (phases, matrix) states, so phases that return to
a recent state, as a layer's base phases do after its own +/- probes, are
not realized again.  All these checks compare values against copies, so
writing into the flat vector in place is seen.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..nets import _ACTIVATIONS, PrefixCache, _normalize_into, _same_bits
from ..tensortrain import TTCores, TTLayout, tt_forward, tt_reconstruct
from .mesh import stage_neighbors
from .noise import FrozenNoise, NoiseModel, apply_nonidealities
from .svd import block_phase_count, svd_matrices

__all__ = ["PhotonicDense", "PhotonicTT", "PhotonicMlp", "DENSE_BLOCK_SIZE", "random_phases"]

DENSE_BLOCK_SIZE = 8

# Realized states kept per layer: its base phases and one +/- probe pair.
REALIZED_KEEP = 3


def _block_neighbors(m: int, n: int) -> np.ndarray:
    """Stage-adjacent rotator pairs of one m x n block, as indices into its phases."""
    v_offset = m * (m - 1) // 2 + min(m, n)
    return np.concatenate([stage_neighbors(m), stage_neighbors(n) + v_offset])


class PhotonicDense:
    """n_out x n_in weight as a row-major grid of k x k SVD blocks.

    Its phases arrive as a (blocks, phases per block) array.
    """

    def __init__(self, n_in: int, n_out: int, block: int = DENSE_BLOCK_SIZE):
        self.n_in = n_in
        self.n_out = n_out
        self.block = block
        self.scale = _sigma_scale(block, block, np.sqrt(2.0 / (n_in + n_out)))
        self.rows = -(-n_out // block)
        self.cols = -(-n_in // block)
        self.block_shapes = [(block, block)] * (self.rows * self.cols)
        self.phase_shape = (self.rows * self.cols, block_phase_count(block, block))

    def realized_weight(self, phases: np.ndarray) -> np.ndarray:
        k = self.block
        mats = svd_matrices(phases, k, k, self.scale)
        grid = mats.reshape(self.rows, self.cols, k, k).transpose(0, 2, 1, 3)
        return grid.reshape(self.rows * k, self.cols * k)[: self.n_out, : self.n_in]


class PhotonicTT:
    """TT layer with one rectangular SVD block per core; phases arrive as one vector."""

    def __init__(self, layout: TTLayout, target_std: float | None = None):
        self.layout = layout
        if target_std is None:
            target_std = (2.0 / (layout.rows + layout.cols)) ** 0.5
        per_core = (target_std**2 / np.prod(layout.ranks)) ** (1.0 / (2 * layout.L))
        self.block_shapes = []
        self.scales = []
        for k in range(layout.L):
            r0, m, n, r1 = layout.core_shape(k)
            self.block_shapes.append((r0 * m, n * r1))
            self.scales.append(_sigma_scale(r0 * m, n * r1, per_core))
        self.n_in = layout.cols
        self.n_out = layout.rows
        self.phase_shape = (sum(block_phase_count(a, b) for a, b in self.block_shapes),)

    def realized_cores(self, phases: np.ndarray) -> TTCores:
        cores = []
        pos = 0
        for k, ((a, b), scale) in enumerate(zip(self.block_shapes, self.scales)):
            stop = pos + block_phase_count(a, b)
            mat = svd_matrices(phases[None, pos:stop], a, b, scale)[0]
            cores.append(mat.reshape(self.layout.core_shape(k)))
            pos = stop
        return TTCores(self.layout, cores)


def _sigma_scale(a: int, b: int, entry_std: float) -> float:
    # W = U diag(s cos phi) V^T with Haar-ish U, V: entry variance is about
    # s^2 E[cos^2] min(a,b) / (a b); solve for s given the target entry std.
    return float(entry_std * np.sqrt(2.0 * a * b / min(a, b)))


def random_phases(layer, rng: np.random.Generator) -> np.ndarray:
    """Initial phases of one layer, uniform on [0, 2*pi), in the layer's phase shape.

    Blocks draw in order, each its U, Sigma and V phases in turn.
    """
    return rng.uniform(0.0, 2.0 * np.pi, size=layer.phase_shape)


class PhotonicMlp:
    """Phase-domain twin of TensorizedMlp; same call/segment interface.

    `phases` holds one initial phase array per layer; biases start at zero.
    """

    def __init__(
        self,
        layers: list,
        phases: list[np.ndarray],
        activation: str = "tanh",
        noise: NoiseModel | None = None,
        input_shift: np.ndarray | None = None,
        input_scale: np.ndarray | None = None,
        output_scale: float = 1.0,
    ):
        if len(phases) != len(layers):
            raise ValueError(f"need one phase array per layer, got {len(phases)} for {len(layers)}")
        self.layers = layers
        self.activation = activation
        self.noise = noise if noise is not None else NoiseModel.disabled()
        dim = layers[0].n_in
        self.input_shift = np.zeros(dim) if input_shift is None else np.asarray(input_shift, float)
        self.input_scale = np.ones(dim) if input_scale is None else np.asarray(input_scale, float)
        self.output_scale = float(output_scale)
        self._index_layout()
        for layer, ph in zip(layers, phases):
            if np.shape(ph) != layer.phase_shape:
                raise ValueError(f"expected phases of shape {layer.phase_shape}, got {np.shape(ph)}")
        self._theta = np.zeros(self._dim)
        self._theta[self._phase_index] = np.concatenate([np.ravel(ph) for ph in phases])
        frozen = self.noise.freeze(self.n_phases)
        self._frozen = [FrozenNoise(frozen.gain[sl], frozen.bias[sl]) for sl in self._phase_slices]
        self._pairs = [_layer_pairs(layer) for layer in layers]
        self._realized = [None] * len(layers)  # per layer: (TT cores or None, (out, in) matrix)
        self._recent = [[] for _ in layers]  # per layer: recent (programmed phases, realized), oldest first
        self._cache = PrefixCache()

    # -- flat store: per layer, all phases then the bias --------------------

    def _index_layout(self) -> None:
        self._segments = []  # (name, start, stop) in theta
        self._phase_slices = []  # per layer: its slice of the phase vector
        self._bias_slices = []  # per layer: its bias slice of theta
        pos = 0
        n_phases = 0
        for li, layer in enumerate(self.layers):
            n_ph = int(np.prod(layer.phase_shape))
            self._segments.append((f"layer{li}.phases", pos, pos + n_ph))
            self._segments.append((f"layer{li}.bias", pos + n_ph, pos + n_ph + layer.n_out))
            self._phase_slices.append(slice(n_phases, n_phases + n_ph))
            self._bias_slices.append(slice(pos + n_ph, pos + n_ph + layer.n_out))
            pos += n_ph + layer.n_out
            n_phases += n_ph
        self._dim = pos
        self.n_phases = n_phases
        self._phase_index = np.concatenate(
            [np.arange(start, stop) for _, start, stop in self._segments[0::2]]
        )

    def segments(self):
        return list(self._segments)

    @property
    def n_params(self) -> int:
        return self._dim

    def get_flat(self) -> np.ndarray:
        return self._theta.copy()

    def set_flat(self, theta: np.ndarray) -> None:
        self._theta[:] = theta

    def phase_vector(self) -> np.ndarray:
        return self._theta[self._phase_index]

    def _effective(self, k: int) -> np.ndarray:
        """Effective phases of layer k, from its programmed phases alone."""
        _, start, stop = self._segments[2 * k]
        return apply_nonidealities(self._theta[start:stop], self.noise, self._pairs[k], self._frozen[k])

    def effective_phases(self) -> np.ndarray:
        return np.concatenate([self._effective(k) for k in range(len(self.layers))])

    def _realize(self, k: int):
        """Layer k at its programmed phases: a recent state equal by value, else realized anew."""
        _, start, stop = self._segments[2 * k]
        phases = self._theta[start:stop]
        recent = self._recent[k]
        for i, (seen, realized) in enumerate(recent):
            if _same_bits(seen, phases):
                recent.append(recent.pop(i))
                return realized
        layer = self.layers[k]
        effective = self._effective(k).reshape(layer.phase_shape)
        if isinstance(layer, PhotonicTT):
            cores = layer.realized_cores(effective)
            realized = (cores, tt_reconstruct(cores))
        else:
            realized = (None, layer.realized_weight(effective))
        recent.append((phases.copy(), realized))
        del recent[:-REALIZED_KEEP]
        return realized

    def _first_changed(self) -> int:
        """Realize every layer whose phases changed; the first layer whose phases or bias changed."""
        first = len(self.layers)
        for k in range(len(self.layers)):
            _, start, stop = self._segments[2 * k]
            phases_changed = self._cache.changed((k, "phases"), self._theta[start:stop])
            if phases_changed:
                self._realized[k] = self._realize(k)
            if self._cache.changed((k, "bias"), self._theta[self._bias_slices[k]]) or phases_changed:
                first = min(first, k)
        return first

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        act = _ACTIVATIONS[self.activation]
        last = len(self.layers) - 1

        def embed(rows, out):
            _normalize_into(rows, self.input_shift, self.input_scale, out)

        def layer(k, h, out):
            cores, matrix = self._realized[k]
            if cores is None:
                np.matmul(h, matrix.T, out=out)
            else:
                tt_forward(cores, h, out=out, matrix=matrix)
            out += self._theta[self._bias_slices[k]]
            if k < last:
                act(out, out=out)

        first = self._first_changed()
        widths = [self.layers[0].n_in] + [lay.n_out for lay in self.layers]
        h = self._cache.forward(np.atleast_2d(x), first, widths, embed, layer)
        if self.output_scale != 1.0:
            h = h * self.output_scale
        if h.shape[1] == 1:
            h = h[:, 0]
        return h[0] if single else h


def _layer_pairs(layer) -> np.ndarray:
    """Crosstalk pairs of one layer, as indices into its phases, block by block.

    Each run of equal block shapes computes its neighbors once and offsets
    them by every block's start at once.
    """
    pairs = [np.empty((0, 2), dtype=np.intp)]
    pos = 0
    for (m, n), run in itertools.groupby(layer.block_shapes):
        size, count = block_phase_count(m, n), len(list(run))
        starts = pos + size * np.arange(count)
        pairs.append((_block_neighbors(m, n) + starts[:, None, None]).reshape(-1, 2))
        pos += size * count
    return np.concatenate(pairs)
