"""MLP solution networks over one flat parameter vector, in either domain.

`Mlp` is the network: layers chained with an activation on every hidden
layer, affinely normalized inputs and a rescaled output (fixed conditioning
taken from `models.architecture`), and one flat float64 vector theta of
trainables with named segments, which is what the zeroth-order optimizer
perturbs.  A layer kind supplies only its shapes and two steps: `realize`
maps its parameters to what a forward multiplies by, and `apply` multiplies
a block of rows by it.  The weight-domain kinds here are `DenseLayer` and
`TTLayer` (model `TensorizedMlp`); the phase-domain kinds and their noise
map live in `photonic.model` (model `PhotonicMlp`).

Forwards stream the input through the network in blocks of `BLOCK_ROWS`
rows: each block passes through every layer before the next block starts,
so an activation that is not kept is never larger than BLOCK_ROWS x width.
Every block writes into buffers the forward's `PrefixCache` owns and
recycles.

What a forward keeps follows from its query alone.  On the previous call's
rows, a query restarts at the first layer whose parameters or bias it
changed, from the activation kept for it, and keeps that layer's output too
exactly when some layer is unchanged: with three or more layers every
per-tensor probe leaves one, no global probe does.  New rows keep nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensortrain import TTCores, TTLayout, tt_forward, tt_reconstruct

__all__ = ["Mlp", "DenseLayer", "TTLayer", "TensorizedMlp", "PrefixCache", "BLOCK_ROWS"]

# Rows per forward block.  Block edges fall on multiples of every GEMM row
# unroll, so each row meets the same BLAS kernel as in one GEMM over all rows
# and the forward is byte-identical to the unblocked one (checked on every
# loss query of the 16 problem x domain x layer-kind models over 4 ZO steps).
# A Black-Scholes loss query (1,170 rows) fits in one block.
BLOCK_ROWS = 2048

_ACTIVATIONS = {
    "tanh": np.tanh,
    "sine": np.sin,
}


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality, the condition under which recomputing repeats a result bit for bit."""
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and np.array_equal(a.view(f"u{a.itemsize}"), b.view(f"u{b.itemsize}"))
    )


def _take(pool: dict, shape: tuple) -> np.ndarray:
    """An array of `shape` from `pool` (removed from it), else a new one."""
    for key, arr in pool.items():
        if arr.shape == shape:
            return pool.pop(key)
    return np.empty(shape)


class PrefixCache:
    """What one network's last forward left for its next: the input rows, at
    most two activations (kept by the rule in the module docstring), and the
    block buffers.

    Memory: the kept activations are full-size (rows x width); every other
    intermediate lives in one of two block buffers (a layer's input and its
    output), each of (BLOCK_ROWS + 1) x the widest layer input.  The
    buffers persist across calls, and new kept activations reuse the arrays
    of the ones they replace, so a forward allocates no array per block.
    A fresh (block x width) array per layer and block would be served by
    mmap above glibc's mmap threshold and page-faulted in anew every time.
    """

    def __init__(self):
        self.rows: np.ndarray | None = None
        self.kept: dict[int, np.ndarray] = {}  # layer index -> the activation that feeds it
        self._blocks: np.ndarray | None = None  # two flat block buffers, see the class docstring

    def _block(self, parity: int, rows: int, width: int) -> np.ndarray:
        """A contiguous (rows, width) view into block buffer `parity`."""
        return self._blocks[parity, : rows * width].reshape(rows, width)

    def forward(self, x: np.ndarray, changed: list[bool], widths, embed, layer):
        """The last layer's output for 2-D rows x, computed block by block.

        `widths[k]` is the width of layer k's input and `widths[-1]` that of
        the output.  `embed(rows, out)` writes the input of layer 0 for a
        block of rows into `out`, and `layer(k, h, out)` writes the output of
        layer k (activated, except the last) for its input h into `out`;
        neither may change h or keep `out`.  `changed[k]` says whether layer
        k's parameters or bias differ from the previous call's.
        """
        n_layers = len(widths) - 1
        first_changed = changed.index(True) if any(changed) else n_layers
        n = len(x)
        repeat = self.rows is not None and _same_bits(self.rows, x)
        pool, self.kept = self.kept, {}  # drop stale entries before computing
        start = max((k for k in pool if k <= first_changed), default=None) if repeat else None
        h = pool.pop(start, None)
        if repeat:
            if h is None:
                start, h = 0, _take(pool, (n, widths[0]))
                embed(x, h)
            self.kept[start] = h
            if start + 1 < n_layers and not all(changed):
                self.kept[start + 1] = _take(pool, (n, widths[start + 1]))
        else:
            self.rows = None
        del pool  # frees what the new kept activations did not reuse, before computing
        size = (BLOCK_ROWS + 1) * max(widths[:-1])  # a block has at most BLOCK_ROWS + 1 rows
        if self._blocks is None or self._blocks.shape[1] < size:
            self._blocks = np.empty((2, size))
        out = np.empty((n, widths[-1]))
        edges = list(range(0, n, BLOCK_ROWS)) + [n]
        if len(edges) > 2 and n - edges[-2] == 1:
            del edges[-2]  # a lone last row would take numpy's GEMV path, not GEMM: join it to the block before
        for lo, hi in zip(edges, edges[1:]):
            rows, m = slice(lo, hi), hi - lo
            if repeat:
                first, a = start, h[rows]
            else:
                first, a = 0, self._block(0, m, widths[0])
                embed(x[rows], a)
            for k in range(first, n_layers):
                if k + 1 == n_layers:
                    dest = out[rows]
                elif k + 1 in self.kept:
                    dest = self.kept[k + 1][rows]
                else:
                    dest = self._block((k + 1) % 2, m, widths[k + 1])
                layer(k, a, dest)
                a = dest
        if not repeat:
            self.rows = x.copy()  # after the forward, so the copy does not add to its peak
        return out


class Mlp:
    """Feed-forward net over one flat float64 parameter vector theta.

    theta holds, per layer, its parameters (one segment per entry of the
    layer's `shapes`) and then its bias; `params` gives each layer's initial
    parameters, one array per entry of its `shapes`, and biases start at
    zero.  `set_flat` copies into theta, so the model owns its store.

    A forward realizes a layer (`realize`: a weight copy, a TT matrix, or a
    matrix realized from MZI phases) only when the layer's parameters
    changed, as a chip reprograms only the phase shifters a probe touched.
    Each layer keeps its last 1 + 2 x len(shapes) realized states:
    per-tensor ZO probes each entry of a layer's `shapes` in turn, one +/-
    pair each, before the layer's base parameters return, and that base
    state is then taken from the kept ones instead of being realized again.
    With a copy of each layer's last bias, that tells per layer whether the
    query changed it, which is all `PrefixCache` reads.  All these checks
    compare values against copies, bit for bit, so an in-place write into a
    vector the caller passes to `set_flat` again is seen.
    """

    def __init__(
        self,
        layers: list,
        params: list,
        activation: str = "tanh",
        input_shift: np.ndarray | None = None,
        input_scale: np.ndarray | None = None,
        output_scale: float = 1.0,
    ):
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        if len(params) != len(layers):
            raise ValueError(f"need initial parameters for each of {len(layers)} layers, got {len(params)}")
        self.layers = layers
        self.activation = activation
        dim = layers[0].n_in
        self.input_shift = np.zeros(dim) if input_shift is None else np.asarray(input_shift, float)
        self.input_scale = np.ones(dim) if input_scale is None else np.asarray(input_scale, float)
        self.output_scale = float(output_scale)
        self._segments = []  # (name, start, stop) in theta
        self._param_slices = []  # per layer: its parameters in theta
        self._bias_slices = []  # per layer: its bias in theta
        chunks = []
        pos = 0
        for k, (layer, arrays) in enumerate(zip(layers, params)):
            start = pos
            for (name, shape), arr in zip(layer.shapes, arrays, strict=True):
                if np.shape(arr) != tuple(shape):
                    raise ValueError(f"layer {k} {name}: expected shape {tuple(shape)}, got {np.shape(arr)}")
                chunks.append(np.ravel(arr))
                self._segments.append((f"layer{k}.{name}", pos, pos + arr.size))
                pos += arr.size
            chunks.append(np.zeros(layer.n_out))
            self._segments.append((f"layer{k}.bias", pos, pos + layer.n_out))
            self._param_slices.append(slice(start, pos))
            self._bias_slices.append(slice(pos, pos + layer.n_out))
            pos += layer.n_out
        self._theta = np.concatenate(chunks, dtype=np.float64)
        self._recent = [[] for _ in layers]  # per layer: (parameters, realized), the one in use last
        self._bias = [None for _ in layers]  # per layer: a copy of the bias in use last
        self._cache = PrefixCache()

    # -- flat store: per layer, its parameters then its bias ----------------

    def segments(self) -> list[tuple[str, int, int]]:
        """Named, disjoint (name, start, stop) spans covering all trainables."""
        return list(self._segments)

    @property
    def n_params(self) -> int:
        return len(self._theta)

    def get_flat(self) -> np.ndarray:
        return self._theta.copy()

    def set_flat(self, theta: np.ndarray) -> None:
        if np.shape(theta) != self._theta.shape:
            raise ValueError(f"flat vector of shape {np.shape(theta)} != ({len(self._theta)},) trainables")
        self._theta[:] = theta

    # -- forward ---------------------------------------------------------------

    def _effective(self, k: int) -> np.ndarray:
        """Layer k's parameters as its layer realizes them; in the weight domain, as stored."""
        return self._theta[self._param_slices[k]]

    def _changed(self) -> list[bool]:
        """Bring every layer's realized state up to date; per layer, whether its parameters or bias changed."""
        changed = []
        for k, layer in enumerate(self.layers):
            params = self._theta[self._param_slices[k]]
            recent = self._recent[k]
            hit = next((i for i in reversed(range(len(recent))) if _same_bits(recent[i][0], params)), None)
            params_changed = hit != len(recent) - 1
            if hit is None:
                recent.append((params.copy(), layer.realize(self._effective(k))))
                del recent[: -(1 + 2 * len(layer.shapes))]
            else:
                recent.append(recent.pop(hit))
            bias = self._theta[self._bias_slices[k]]
            bias_changed = self._bias[k] is None or not _same_bits(self._bias[k], bias)
            if bias_changed:
                self._bias[k] = bias.copy()
            changed.append(params_changed or bias_changed)
        return changed

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        act = _ACTIVATIONS[self.activation]
        last = len(self.layers) - 1

        def embed(rows, out):
            np.subtract(rows, self.input_shift, out=out)
            out *= self.input_scale

        def layer(k, h, out):
            self.layers[k].apply(h, out, self._recent[k][-1][1], self._theta[self._bias_slices[k]])
            if k < last:
                act(out, out=out)

        widths = [self.layers[0].n_in] + [lay.n_out for lay in self.layers]
        out = self._cache.forward(np.atleast_2d(x), self._changed(), widths, embed, layer)
        if self.output_scale != 1.0:
            out *= self.output_scale
        if out.shape[1] == 1:
            out = out[:, 0]
        return out[0] if single else out


class TensorizedMlp(Mlp):
    """Weight-domain network of `DenseLayer` and `TTLayer` layers."""


@dataclass(frozen=True)
class DenseLayer:
    """A dense (n_out, n_in) weight matrix; realized as a copy of its segment."""

    n_in: int
    n_out: int

    @property
    def shapes(self):
        return [("weight", (self.n_out, self.n_in))]

    def realize(self, params: np.ndarray) -> np.ndarray:
        return params.reshape(self.n_out, self.n_in).copy()

    def apply(self, h: np.ndarray, out: np.ndarray, realized: np.ndarray, bias: np.ndarray) -> None:
        np.matmul(h, realized.T, out=out)
        out += bias


@dataclass(frozen=True)
class TTLayer:
    """A weight matrix in tensor-train format; realized as (cores, their reconstructed matrix)."""

    layout: TTLayout

    @property
    def n_in(self) -> int:
        return self.layout.cols

    @property
    def n_out(self) -> int:
        return self.layout.rows

    @property
    def shapes(self):
        return [(f"core{k}", self.layout.core_shape(k)) for k in range(self.layout.L)]

    def realize(self, params: np.ndarray):
        ends = np.cumsum([math.prod(shape) for _, shape in self.shapes])
        pieces = np.split(params, ends[:-1])
        cores = TTCores(self.layout, [p.reshape(shape).copy() for p, (_, shape) in zip(pieces, self.shapes)])
        return cores, tt_reconstruct(cores)

    def apply(self, h: np.ndarray, out: np.ndarray, realized, bias: np.ndarray) -> None:
        cores, matrix = realized
        tt_forward(cores, h, out=out, matrix=matrix)
        out += bias
