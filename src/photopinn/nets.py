"""MLP solution networks over one flat parameter vector, in either domain.

`Mlp` is the network: layers chained with an activation on every hidden
layer, affinely normalized inputs and a rescaled output (fixed conditioning
taken from `models.architecture`), and one flat float64 vector theta of
trainables with named segments, which is what the zeroth-order optimizer
perturbs.  A layer kind supplies its shapes, whether its realization is
linear in each segment (`multilinear`), and two steps: `realize` maps its
parameters to what a forward multiplies by, and `apply` multiplies a block
of rows by it.  The weight-domain kinds here are `DenseLayer` and `TTLayer`
(model `TensorizedMlp`); the phase-domain kinds and their noise map live in
`photonic.model` (model `PhotonicMlp`).

Each layer keeps one realization, of the parameters it was last realized
at, and realizes again only when they change: a hold-out evaluation reuses
the realizations of the logging query before it.

Forwards stream their rows through the network in blocks of `BLOCK_ROWS`
rows: each block passes through every layer before the next block starts,
in two block buffers the network's `PrefixCache` owns and recycles, so an
intermediate is never larger than BLOCK_ROWS x width.  A plain call keeps
nothing.

`Mlp.pair(x, sl, delta)` gives the outputs at theta with theta[sl] + delta
and with theta[sl] - delta: the two loss queries of one ZO probe.  The pairs
of a step share one base forward.  The cache keeps the probed layer k's base
input h_k and pre-bias product P_k = h_k W_k^T for the step's rows, and turns
P_k into h_{k+1} in place when the pairs move up a layer; the layers above k
run at their base realizations.  Layer k's pre-activations z+ and z- depend
on what the pair probes:

- a bias: z = P_k + (b +/- delta), byte-identical to two plain forwards;
- a segment of a multilinear layer (a dense weight or one TT core) with at
  most the output layer above it: D = h_k dir^T, where dir is the layer
  realized from its base parameters with that segment set to delta, and
  z = (P_k +/- D) + b.  W is linear in the segment, so this is
  h_k (W +/- dir)^T + b rounded in another order: on the Black-Scholes
  loss at sigma = 1e-3, which amplifies rounding by 1/sigma^2, the loss
  values move by up to ~5e-9 relative (tests/test_reuse.py states the bound);
- any other segment (phases, or a deeper weight layer): both states
  realized, as a chip reprograms its shifters; byte-identical;
- a slice over several segments (global grouping), or any slice that is
  not one whole segment: two plain forwards.
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


def _row_blocks(n: int) -> list[slice]:
    """Slices of at most BLOCK_ROWS rows covering n rows."""
    edges = list(range(0, n, BLOCK_ROWS)) + [n]
    if len(edges) > 2 and n - edges[-2] == 1:
        del edges[-2]  # a lone last row would take numpy's GEMV path, not GEMM: join it to the block before
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


class PrefixCache:
    """What the pairs of one ZO step share, and the block buffers of every forward.

    The pairs' base forward: the rows and base theta it ran at, the probed
    layer `layer`, its base input `h` and, once a pair needed it, its
    pre-bias product `product`.

    Memory: `h` and `product` are views into two full-size buffers, each
    grown to the widest (rows x width) view it has held, so until a pair
    needs a hidden product, layer 0's input takes only rows x inputs; every
    other intermediate lives in one of two block buffers, each
    (BLOCK_ROWS + 1) x the widest layer.  The buffers persist across calls,
    so a forward allocates no array per block and, once warm, the pairs none
    per step: a fresh (block x width) array per layer and block would be
    served by mmap above glibc's mmap threshold and page-faulted in anew
    every time.  A plain forward drops the full-size buffers, so a hold-out
    evaluation does not hold them.
    """

    def __init__(self, widest: int):
        self.widest = widest  # columns of a block buffer: the widest layer
        self.rows: np.ndarray | None = None
        self.theta: np.ndarray | None = None
        self.layer = 0
        self.h: np.ndarray | None = None
        self.product: np.ndarray | None = None
        self._slot = 0  # the full-size buffer h lives in; product lives in the other
        self._full: list = [None, None]
        self._blocks: np.ndarray | None = None

    def holds(self, x: np.ndarray, theta: np.ndarray) -> bool:
        """Whether the base forward ran on rows x at theta."""
        return self.rows is not None and _same_bits(self.rows, x) and _same_bits(self.theta, theta)

    def start(self, x: np.ndarray, theta: np.ndarray, width: int) -> np.ndarray:
        """Begin a base forward on rows x at theta; returns the (rows x width) array for h."""
        self.rows, self.theta, self.layer, self.product = x.copy(), theta.copy(), 0, None
        self.h = self._full_view(self._slot, width)
        return self.h

    def new_product(self, width: int) -> np.ndarray:
        """The (rows x width) array for the product, in the buffer h does not use."""
        self.product = self._full_view(1 - self._slot, width)
        return self.product

    def advance(self) -> None:
        """The product, now activated, is the next layer's input."""
        self.h, self.product, self._slot, self.layer = self.product, None, 1 - self._slot, self.layer + 1

    def release(self) -> None:
        self.rows = self.theta = self.h = self.product = None
        self._full = [None, None]

    def block(self, parity: int, rows: int, width: int) -> np.ndarray:
        """A contiguous (rows, width) view into block buffer `parity`."""
        if self._blocks is None:
            self._blocks = np.empty((2, (BLOCK_ROWS + 1) * self.widest))  # a block has at most BLOCK_ROWS + 1 rows
        return self._blocks[parity, : rows * width].reshape(rows, width)

    def _full_view(self, slot: int, width: int) -> np.ndarray:
        """A contiguous (rows, width) view into full-size buffer `slot`, grown if too small."""
        size = len(self.rows) * width
        if self._full[slot] is None or len(self._full[slot]) < size:
            self._full[slot] = None  # free the old buffer before allocating
            self._full[slot] = np.empty(size)
        return self._full[slot][:size].reshape(len(self.rows), width)


class Mlp:
    """Feed-forward net over one flat float64 parameter vector theta.

    theta holds, per layer, its parameters (one segment per entry of the
    layer's `shapes`) and then its bias; `params` gives each layer's initial
    parameters, one array per entry of its `shapes`, and biases start at
    zero.  `set_flat` copies into theta, so the model owns its store.

    Realizations and the pairs' base forward are reused only while the
    parameters they came from compare equal bit for bit to copies, so an
    in-place write into a vector the caller passes to `set_flat` again is
    seen.
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
        self._segment_layer = {}  # (start, stop) of a segment -> its layer
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
                self._segment_layer[pos, pos + arr.size] = k
                pos += arr.size
            chunks.append(np.zeros(layer.n_out))
            self._segments.append((f"layer{k}.bias", pos, pos + layer.n_out))
            self._segment_layer[pos, pos + layer.n_out] = k
            self._param_slices.append(slice(start, pos))
            self._bias_slices.append(slice(pos, pos + layer.n_out))
            pos += layer.n_out
        self._theta = np.concatenate(chunks, dtype=np.float64)
        self._widths = [dim] + [layer.n_out for layer in layers]  # layer k maps width k to width k + 1
        self._realized = [None for _ in layers]  # per layer: (parameters, realization), the last realized
        self._cache = PrefixCache(max(self._widths))

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

    def _effective(self, k: int, params: np.ndarray) -> np.ndarray:
        """Layer k's `params` as its layer realizes them; in the weight domain, as given."""
        return params

    def _realization(self, k: int):
        """Layer k realized at theta, reused while its parameters keep their bits."""
        params = self._theta[self._param_slices[k]]
        last = self._realized[k]
        if last is None or not _same_bits(last[0], params):
            last = self._realized[k] = (params.copy(), self.layers[k].realize(self._effective(k, params)))
        return last[1]

    def _bias(self, k: int) -> np.ndarray:
        return self._theta[self._bias_slices[k]]

    def _embed(self, x: np.ndarray, out: np.ndarray) -> None:
        """Layer 0's input for rows x: the affinely normalized coordinates."""
        np.subtract(x, self.input_shift, out=out)
        out *= self.input_scale

    def _activate(self, k: int, z: np.ndarray) -> None:
        """The activation, in place, on the output of every layer but the last."""
        if k < len(self.layers) - 1:
            _ACTIVATIONS[self.activation](z, out=z)

    def _run(self, first: int, a: np.ndarray, parity: int, dest: np.ndarray, realized: list) -> None:
        """Layers first.. at `realized` on block a, held in block buffer `parity`; the last writes dest."""
        last = len(self.layers) - 1
        for k in range(first, last + 1):
            parity ^= 1
            out = dest if k == last else self._cache.block(parity, len(a), self._widths[k + 1])
            self.layers[k].apply(a, out, realized[k], self._bias(k))
            self._activate(k, out)
            a = out

    def _output(self, out: np.ndarray) -> np.ndarray:
        if self.output_scale != 1.0:
            out *= self.output_scale
        return out[..., 0] if out.shape[-1] == 1 else out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        x = np.atleast_2d(x)
        self._cache.release()
        realized = [self._realization(k) for k in range(len(self.layers))]
        out = np.empty((len(x), self._widths[-1]))
        for rows in _row_blocks(len(x)):
            a = self._cache.block(0, rows.stop - rows.start, self._widths[0])
            self._embed(x[rows], a)
            self._run(0, a, 0, out[rows], realized)
        out = self._output(out)
        return out[0] if single else out

    def pair(self, x: np.ndarray, sl: slice, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The outputs for 2-D rows x at theta with theta[sl] + delta and with
        theta[sl] - delta, by the rules in the module docstring."""
        k = self._segment_layer.get((sl.start, sl.stop))
        if k is None:
            return self._plain_pair(x, sl, delta)
        x = np.asarray(x, dtype=float)
        last, cache = len(self.layers) - 1, self._cache
        layer, bias, params = self.layers[k], self._bias(k), self._theta[self._param_slices[k]]
        realized = [self._realization(j) for j in range(len(self.layers))]
        if not cache.holds(x, self._theta) or cache.layer > k:
            self._embed(x, cache.start(x, self._theta, self._widths[0]))
        while cache.layer < k:
            p = self._product(realized)
            p += self._bias(cache.layer)
            self._activate(cache.layer, p)
            cache.advance()

        biases = direction = states = None
        if sl.start == self._bias_slices[k].start:
            biases = [bias + delta, bias - delta]
        else:
            part = slice(sl.start - self._param_slices[k].start, sl.stop - self._param_slices[k].start)
            if layer.multilinear and k >= last - 1:
                moved = params.copy()
                moved[part] = delta
                direction = layer.realize(moved)
            else:
                states = []
                for op in (np.add, np.subtract):
                    moved = params.copy()
                    moved[part] = op(params[part], delta)
                    states.append(layer.realize(self._effective(k, moved)))
        product = self._product(realized) if states is None else None

        out = np.empty((2, len(x), self._widths[-1]))
        for rows in _row_blocks(len(x)):
            m, h = rows.stop - rows.start, cache.h[rows]
            if direction is not None:
                d = cache.block(0, m, self._widths[k + 1])  # block buffer 0 holds D; layer k's output goes to 1
                layer.apply(h, d, direction)
            for i, op in enumerate((np.add, np.subtract)):
                z = out[i, rows] if k == last else cache.block(1, m, self._widths[k + 1])
                if biases is not None:
                    np.add(product[rows], biases[i], out=z)
                elif direction is not None:
                    op(product[rows], d, out=z)
                    z += bias
                else:
                    layer.apply(h, z, states[i], bias)
                if k < last:
                    self._activate(k, z)
                    self._run(k + 1, z, 1, out[i, rows], realized)
        return tuple(self._output(out))

    def _product(self, realized: list) -> np.ndarray:
        """The probed layer's base pre-bias product h W^T, computed once per base forward and layer."""
        cache = self._cache
        if cache.product is None:
            k = cache.layer
            p = cache.new_product(self._widths[k + 1])
            for rows in _row_blocks(len(p)):
                self.layers[k].apply(cache.h[rows], p[rows], realized[k])
        return cache.product

    def _plain_pair(self, x: np.ndarray, sl: slice, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Two plain forwards, for a slice that is not one segment."""
        base = self._theta.copy()
        try:
            self._theta[sl] = base[sl] + delta
            plus = self(x)
            self._theta[sl] = base[sl] - delta
            return plus, self(x)
        finally:
            self._theta[:] = base


class TensorizedMlp(Mlp):
    """Weight-domain network of `DenseLayer` and `TTLayer` layers."""


@dataclass(frozen=True)
class DenseLayer:
    """A dense (n_out, n_in) weight matrix; realized as a copy of its segment."""

    n_in: int
    n_out: int
    multilinear = True  # the realization is linear in the weight

    @property
    def shapes(self):
        return [("weight", (self.n_out, self.n_in))]

    def realize(self, params: np.ndarray) -> np.ndarray:
        return params.reshape(self.n_out, self.n_in).copy()

    def apply(self, h: np.ndarray, out: np.ndarray, realized: np.ndarray, bias: np.ndarray | None = None) -> None:
        np.matmul(h, realized.T, out=out)
        if bias is not None:
            out += bias


@dataclass(frozen=True)
class TTLayer:
    """A weight matrix in tensor-train format; realized as (cores, their reconstructed matrix)."""

    layout: TTLayout
    multilinear = True  # the reconstruction is linear in each core, the others fixed

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

    def apply(self, h: np.ndarray, out: np.ndarray, realized, bias: np.ndarray | None = None) -> None:
        cores, matrix = realized
        tt_forward(cores, h, out=out, matrix=matrix)
        if bias is not None:
            out += bias
