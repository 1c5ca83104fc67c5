"""MLP solution networks with dense or tensor-train hidden layers.

A `TensorizedMlp` owns its trainable arrays and exposes them as one flat
vector with named segments, which is what the zeroth-order optimizer
perturbs.  Inputs can be affinely normalized and the output rescaled; both are
fixed (non-trainable) problem-conditioning choices taken from the model's
architecture (`models.architecture`).

Forwards stream the input through the network in blocks of `BLOCK_ROWS`
rows: each block passes through every layer before the next block starts,
so an activation that is not kept is never larger than BLOCK_ROWS x width.
Each layer's (out, in) matrix is built once per parameter change (a TT
layer's reconstruction, see `tensortrain`), not once per block, and every
block writes into buffers the forward's `PrefixCache` owns and recycles.

Forwards also reuse work across zeroth-order probes (`PrefixCache`).  When
a call's input rows equal the previous call's, bit for bit, the forward
restarts at the first layer whose parameters changed since that call, from
the stored activation that feeds it.  Parameters are compared by value
against copies taken at the previous call, never by object identity:
`set_flat` stores views of the caller's vector, which the caller may change
in place.  At most two full-size activations are kept (the input and the
output of the first recomputed layer), and only when the same rows arrive
twice in a row, so a one-off forward such as the hold-out evaluation keeps
none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensortrain import TTCores, TTLayout, tt_forward, tt_init, tt_reconstruct

__all__ = ["DenseLayer", "TTLayer", "TensorizedMlp", "PrefixCache", "BLOCK_ROWS"]

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


def _take(pool: dict, shape: tuple, dtype) -> np.ndarray:
    """An array of `shape` from `pool` (removed from it), else a new one."""
    for key, arr in pool.items():
        if arr.shape == shape and arr.dtype == dtype:
            return pool.pop(key)
    return np.empty(shape, dtype)


def _normalize_into(rows: np.ndarray, shift: np.ndarray, scale: np.ndarray, out: np.ndarray) -> None:
    """(rows - shift) * scale into `out`, rounded once to its dtype."""
    if out.dtype == rows.dtype:
        np.subtract(rows, shift, out=out)
        out *= scale
    else:
        out[...] = (rows - shift) * scale


class PrefixCache:
    """What one network's last forward left for its next: the input rows, a
    copy of every parameter array, at most two activations, and the block
    buffers.

    Per-tensor ZO probes change one layer at a time, so a probe on layer k
    restarts from the kept input of layer k, and the first probe on layer
    k + 1 recomputes layer k at the base parameters from that same input.

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
        self._seen: dict = {}
        self._blocks: np.ndarray | None = None  # two flat block buffers, see the class docstring

    def changed(self, key, value: np.ndarray) -> bool:
        """Whether `value` differs from the copy recorded under `key`; records a new copy if so."""
        old = self._seen.get(key)
        if old is not None and _same_bits(old, value):
            return False
        self._seen[key] = np.array(value, copy=True)
        return True

    def _block(self, parity: int, rows: int, width: int) -> np.ndarray:
        """A contiguous (rows, width) view into block buffer `parity`."""
        return self._blocks[parity, : rows * width].reshape(rows, width)

    def forward(self, x: np.ndarray, first_changed: int, widths, embed, layer, dtype=np.float64):
        """The last layer's output for 2-D rows x, computed block by block.

        `widths[k]` is the width of layer k's input and `widths[-1]` that of
        the output.  `embed(rows, out)` writes the input of layer 0 for a
        block of rows into `out`, and `layer(k, h, out)` writes the output of
        layer k (activated, except the last) for its input h into `out`;
        neither may change h or keep `out`.  `first_changed` is the first
        layer whose parameters differ from the previous call's.
        """
        n_layers = len(widths) - 1
        n = len(x)
        repeat = self.rows is not None and _same_bits(self.rows, x)
        pool, self.kept = self.kept, {}  # drop stale entries before computing
        start = max((k for k in pool if k <= first_changed), default=None) if repeat else None
        h = pool.pop(start, None)
        if repeat:
            if h is None:
                start, h = 0, _take(pool, (n, widths[0]), dtype)
                embed(x, h)
            self.kept[start] = h
            if start + 1 < n_layers:
                self.kept[start + 1] = _take(pool, (n, widths[start + 1]), dtype)
        else:
            self.rows = None
        del pool  # frees what the new kept activations did not reuse, before computing
        size = (BLOCK_ROWS + 1) * max(widths[:-1])  # a block has at most BLOCK_ROWS + 1 rows
        if self._blocks is None or self._blocks.shape[1] < size or self._blocks.dtype != dtype:
            self._blocks = np.empty((2, size), dtype)
        out = np.empty((n, widths[-1]), dtype)
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


@dataclass
class DenseLayer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)

    @classmethod
    def init(cls, n_in: int, n_out: int, rng: np.random.Generator) -> "DenseLayer":
        std = np.sqrt(2.0 / (n_in + n_out))
        return cls(weight=std * rng.standard_normal((n_out, n_in)), bias=np.zeros(n_out))

    @property
    def n_in(self) -> int:
        return self.weight.shape[1]

    @property
    def n_out(self) -> int:
        return self.weight.shape[0]

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.matmul(x, self.weight.T, out=out)
        out += self.bias
        return out

    def arrays(self):
        return [("weight", self.weight), ("bias", self.bias)]

    def set_arrays(self, arrays):
        self.weight, self.bias = arrays


@dataclass
class TTLayer:
    cores: TTCores
    bias: np.ndarray

    @classmethod
    def init(cls, layout: TTLayout, seed: int) -> "TTLayer":
        return cls(cores=tt_init(layout, seed), bias=np.zeros(layout.rows))

    @property
    def n_in(self) -> int:
        return self.cores.layout.cols

    @property
    def n_out(self) -> int:
        return self.cores.layout.rows

    def apply(self, x: np.ndarray, out: np.ndarray | None = None, matrix: np.ndarray | None = None) -> np.ndarray:
        """x times the layer's weight plus bias; `matrix` is `tt_reconstruct(self.cores)` if the caller holds it."""
        out = tt_forward(self.cores, x, out=out, matrix=matrix)
        out += self.bias
        return out

    def arrays(self):
        named = [(f"core{k}", core) for k, core in enumerate(self.cores.cores)]
        named.append(("bias", self.bias))
        return named

    def set_arrays(self, arrays):
        *cores, bias = arrays
        self.cores = TTCores(self.cores.layout, list(cores))
        self.bias = bias


class TensorizedMlp:
    """Feed-forward net: layers chained with an activation on every hidden layer.

    Calls reuse the layer prefix of the previous call (see `PrefixCache`).  A
    TT layer's matrix is reconstructed when the cache reports one of its
    cores changed, and reused by every block until then.
    """

    def __init__(
        self,
        layers: list,
        activation: str = "tanh",
        input_shift: np.ndarray | None = None,
        input_scale: np.ndarray | None = None,
        output_scale: float = 1.0,
        dtype=np.float64,
    ):
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.layers = layers
        self.activation = activation
        self.dtype = np.dtype(dtype)
        dim = layers[0].n_in
        self.input_shift = np.zeros(dim) if input_shift is None else np.asarray(input_shift, float)
        self.input_scale = np.ones(dim) if input_scale is None else np.asarray(input_scale, float)
        self.output_scale = float(output_scale)
        self._cache = PrefixCache()
        self._matrices: dict[int, np.ndarray] = {}  # TT layer index -> its reconstructed matrix
        if self.dtype != np.float64:
            self.set_flat(self.get_flat())  # cast layer arrays

    @property
    def n_in(self) -> int:
        return self.layers[0].n_in

    @property
    def n_out(self) -> int:
        return self.layers[-1].n_out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        act = _ACTIVATIONS[self.activation]
        last = len(self.layers) - 1

        def embed(rows, out):
            _normalize_into(rows, self.input_shift, self.input_scale, out)

        def layer(k, h, out):
            if k in self._matrices:
                self.layers[k].apply(h, out, self._matrices[k])
            else:
                self.layers[k].apply(h, out)
            if k < last:
                act(out, out=out)

        first = len(self.layers)
        for k, lay in enumerate(self.layers):
            changed = [self._cache.changed((k, name), arr) for name, arr in lay.arrays()]
            if any(changed):
                first = min(first, k)
            if isinstance(lay, TTLayer) and any(changed[:-1]):  # a core changed (the bias is last)
                self._matrices[k] = tt_reconstruct(lay.cores)
        widths = [self.n_in] + [lay.n_out for lay in self.layers]
        out = self._cache.forward(np.atleast_2d(x), first, widths, embed, layer, self.dtype)
        if self.output_scale != 1.0:
            out *= self.output_scale
        if out.shape[1] == 1:
            out = out[:, 0]
        return (out[0] if single else out).astype(np.float64, copy=False)

    # -- flat parameter store -------------------------------------------------

    def segments(self) -> list[tuple[str, int, int]]:
        """Named, disjoint (name, start, stop) spans covering all trainables."""
        spans = []
        pos = 0
        for li, layer in enumerate(self.layers):
            for name, arr in layer.arrays():
                spans.append((f"layer{li}.{name}", pos, pos + arr.size))
                pos += arr.size
        return spans

    @property
    def n_params(self) -> int:
        return sum(stop - start for _, start, stop in self.segments())

    def get_flat(self) -> np.ndarray:
        return np.concatenate(
            [arr.ravel() for layer in self.layers for _, arr in layer.arrays()]
        ).astype(np.float64, copy=False)

    def set_flat(self, theta: np.ndarray) -> None:
        pos = 0
        for layer in self.layers:
            new = []
            for _, arr in layer.arrays():
                seg = theta[pos : pos + arr.size].reshape(arr.shape)
                new.append(seg.astype(self.dtype, copy=False))
                pos += arr.size
            layer.set_arrays(new)
        if pos != len(theta):
            raise ValueError(f"flat vector length {len(theta)} != {pos} trainables")
