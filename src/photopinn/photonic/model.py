"""Phase-parameterized networks: every weight matrix realized by MZI phases.

Dense layers become ceil(M/k) x ceil(N/k) grids of k x k SVD blocks (k = 8);
tensor-train layers realize each core unfolding (r_k-1 * m_k) x (n_k * r_k)
as one rectangular SVD block, reshaped back into the 4-way core, and
reconstruct the matrix those cores represent once, when realized.  A layer
realizes its blocks from its effective phases through `svd_matrices`: a
dense layer all of its blocks in one call, a TT layer one call per core; a
square shape's U and V meshes go to `mesh.mesh_matrices` as one batch.
The mesh kernel holds its batch as the innermost axis, so its elementwise
ops run over hundreds of contiguous values (the meshes) rather than over a
block's 8 columns, and it updates the stages in place, with no fresh
temporary per op; the more meshes per call, the more of each op's fixed
cost they share.  Biases stay digital.  Storage, reuse and the ZO probe
pairs are `nets.Mlp`'s; a layer's parameters are its phases.  Only this
module maps a layer to SVD blocks; `cost.mzi_count` counts the same layers.

Crosstalk adjacency: rotators that are neighbors within the same stage of the
same mesh couple with the model's coefficient; attenuator phases and
cross-mesh pairs do not couple.  Noise is therefore local to a layer:
quantization and gain act per device and no crosstalk pair crosses a block,
so a layer's effective phases depend on its own programmed phases only.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..nets import Mlp
from ..tensortrain import TTCores, TTLayout, tt_forward, tt_reconstruct
from .noise import FrozenNoise, NoiseModel, apply_nonidealities
from .svd import block_neighbors, block_phase_count, svd_matrices

__all__ = ["PhotonicDense", "PhotonicTT", "PhotonicMlp", "DENSE_BLOCK_SIZE", "random_phases"]

DENSE_BLOCK_SIZE = 8


class PhotonicDense:
    """n_out x n_in weight as a row-major grid of k x k SVD blocks.

    Its phases arrive as a (blocks, phases per block) array.
    """

    multilinear = False  # phases enter the realized weight through sines and cosines

    def __init__(self, n_in: int, n_out: int, block: int = DENSE_BLOCK_SIZE):
        self.n_in = n_in
        self.n_out = n_out
        self.block = block
        self.scale = _sigma_scale(block, block, np.sqrt(2.0 / (n_in + n_out)))
        self.rows = -(-n_out // block)
        self.cols = -(-n_in // block)
        self.block_shapes = [(block, block)] * (self.rows * self.cols)
        self.phase_shape = (self.rows * self.cols, block_phase_count(block, block))
        self.shapes = [("phases", self.phase_shape)]

    def realize(self, phases: np.ndarray) -> np.ndarray:
        return self.realized_weight(phases.reshape(self.phase_shape))

    def apply(self, h: np.ndarray, out: np.ndarray, realized: np.ndarray, bias: np.ndarray | None = None) -> None:
        np.matmul(h, realized.T, out=out)
        if bias is not None:
            out += bias

    def realized_weight(self, phases: np.ndarray) -> np.ndarray:
        k = self.block
        mats = svd_matrices(phases, k, k, self.scale)
        grid = mats.reshape(self.rows, self.cols, k, k).transpose(0, 2, 1, 3)
        return grid.reshape(self.rows * k, self.cols * k)[: self.n_out, : self.n_in]


class PhotonicTT:
    """TT layer with one rectangular SVD block per core; phases arrive as one vector."""

    multilinear = False  # phases enter the realized cores through sines and cosines

    def __init__(self, layout: TTLayout):
        self.layout = layout
        target_std = (2.0 / (layout.rows + layout.cols)) ** 0.5  # Glorot, as a dense layer
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
        self.shapes = [("phases", self.phase_shape)]

    def realize(self, phases: np.ndarray):
        cores = self.realized_cores(phases)
        return cores, tt_reconstruct(cores)

    def apply(self, h: np.ndarray, out: np.ndarray, realized, bias: np.ndarray | None = None) -> None:
        cores, matrix = realized
        tt_forward(cores, h, out=out, matrix=matrix)
        if bias is not None:
            out += bias

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


class PhotonicMlp(Mlp):
    """Phase-domain network: `nets.Mlp` over programmed phases, realized through the noise map.

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
        super().__init__(layers, [[ph] for ph in phases], activation, input_shift, input_scale, output_scale)
        self.noise = noise if noise is not None else NoiseModel.disabled()
        ends = np.cumsum([0] + [sl.stop - sl.start for sl in self._param_slices])
        self.n_phases = int(ends[-1])
        frozen = self.noise.freeze(self.n_phases)
        self._frozen = [FrozenNoise(frozen.gain[a:b], frozen.bias[a:b]) for a, b in zip(ends, ends[1:])]
        self._pairs = [_layer_pairs(layer) for layer in layers]

    def phase_vector(self) -> np.ndarray:
        return np.concatenate([self._theta[sl] for sl in self._param_slices])

    def _effective(self, k: int, params: np.ndarray) -> np.ndarray:
        """Effective phases of layer k, from its programmed phases `params` alone."""
        return apply_nonidealities(params, self.noise, self._pairs[k], self._frozen[k])

    def effective_phases(self) -> np.ndarray:
        return np.concatenate([self._effective(k, self._theta[sl]) for k, sl in enumerate(self._param_slices)])


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
        pairs.append((block_neighbors(m, n) + starts[:, None, None]).reshape(-1, 2))
        pos += size * count
    return np.concatenate(pairs)
