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

Every forward is one pass over its rows in blocks of `BLOCK_ROWS` rows, or
of the widest layer's width where that is larger: each block passes through
every layer before the next block starts.  Intermediates live in block
buffers of (block rows + 1) x the widest layer,
two for a plain forward and four for `pairs`, allocated once per pass and
freed when it ends.  So no array of a pass grows with rows x width, only its
inputs and outputs grow with the rows, and a forward keeps nothing: the
memory bound of a pass is its block buffers, the realizations it makes
(they grow with the parameters and the probes, not the rows), and its
inputs and outputs.

`Mlp.pairs(x, probes)` gives, per probe (sl, delta), the outputs at theta
with theta[sl] + delta and with theta[sl] - delta: all loss queries of one
ZO step in one pass.  Each probe's direction or probe states are realized
once, before the first block.  Per block, one base forward runs
layer by layer at theta; at layer k it holds the base input h_k (buffer 0 or
1) and the pre-bias product P_k = h_k W_k^T (the other one), and every probe
of layer k takes its two outputs from them, in buffers 2 and 3, with the
layers above k at their base realizations.  Layer k's pre-activations z+ and
z- depend on what the probe moves:

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
- a slice that is not one whole segment (global grouping): every layer at
  theta +/- delta, from layer 0; byte-identical.  A pass whose probes are
  all of this kind runs no base forward.

Its outputs are 2 x probes x rows x outputs floats.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .tensortrain import TTCores, TTLayout, tt_forward, tt_reconstruct

__all__ = ["Mlp", "DenseLayer", "TTLayer", "TensorizedMlp", "BLOCK_ROWS"]

# Rows per forward block, at least.  The four block buffers of a `pairs` pass
# at width 128 take 1 MiB, half the 2 MiB L2 of one core of the x86-64 host
# these were sized on; 512 rows ran as fast but fill all of it.  A wider net
# takes blocks of its widest layer's width: each block's GEMM re-reads the
# layer matrix, which no longer stays in L2, and 256-row blocks made a
# 512-wide HJB step 3.5% slower than 512-row ones.  Every row meets the same
# BLAS kernel as in one GEMM over all rows, so the forward is byte-identical
# to the unblocked one (checked on every loss query of the 16 problem x
# domain x layer-kind models over 4 ZO steps, and on training runs at 2,048,
# 512 and 256 rows).
BLOCK_ROWS = 256

_ACTIVATIONS = {
    "tanh": np.tanh,
    "sine": np.sin,
}

_SIGNS = (np.add, np.subtract)  # the + and - probe states


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality, the condition under which recomputing repeats a result bit for bit."""
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and np.array_equal(a.view(f"u{a.itemsize}"), b.view(f"u{b.itemsize}"))
    )


def _row_blocks(n: int, size: int) -> list[slice]:
    """Slices of at most `size` rows covering n rows."""
    edges = list(range(0, n, size)) + [n]
    if len(edges) > 2 and n - edges[-2] == 1:
        del edges[-2]  # a lone last row would take numpy's GEMV path, not GEMM: join it to the block before
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


@dataclass(frozen=True)
class _Probe:
    """One probe of a `pairs` pass, realized: layer k and what moves there.

    Exactly one of `biases`, `direction` and `states` is set for a probe of
    one segment of layer k; a probe of any other slice has k = -1 and
    `states`, the (+, -) realizations of every layer, with `biases`.
    """

    k: int
    biases: tuple | None = None  # b +/- delta; per state, every layer's bias when k = -1
    direction: object = None
    states: tuple | None = None


class Mlp:
    """Feed-forward net over one flat float64 parameter vector theta.

    theta holds, per layer, its parameters (one segment per entry of the
    layer's `shapes`) and then its bias; `params` gives each layer's initial
    parameters, one array per entry of its `shapes`, and biases start at
    zero.  `set_flat` copies into theta, so the model owns its store.

    A realization is reused only while the parameters it came from compare
    equal bit for bit to a copy, so an in-place write into a vector the
    caller passes to `set_flat` again is seen.  A call is one plain forward;
    `pairs` runs all probe pairs of a ZO step in one pass (module docstring).
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
        self._block_rows = max(BLOCK_ROWS, *self._widths)
        self._realized = [None for _ in layers]  # per layer: (parameters, realization), the last realized
        self._blocks: np.ndarray | None = None  # the block buffers of the running pass

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
            last = self._realized[k] = None  # free the old realization before making the new one
            last = self._realized[k] = (params.copy(), self.layers[k].realize(self._effective(k, params)))
        return last[1]

    def _bias(self, k: int) -> np.ndarray:
        return self._theta[self._bias_slices[k]]

    @contextmanager
    def _pass_buffers(self, count: int):
        """`count` block buffers for the pass run inside; a block has at most _block_rows + 1 rows.

        One allocation per pass, none per block or layer.  They are freed
        when the pass ends, so they never sit beside a realization's
        temporaries, which run before a pass's first block.
        """
        self._blocks = np.empty((count, (self._block_rows + 1) * max(self._widths)))
        try:
            yield
        finally:
            self._blocks = None

    def _block(self, slot: int, rows: int, width: int) -> np.ndarray:
        """A contiguous (rows, width) view into block buffer `slot` of the running pass."""
        return self._blocks[slot, : rows * width].reshape(rows, width)

    def _embed(self, x: np.ndarray, rows: slice) -> np.ndarray:
        """Layer 0's input for x[rows], in block buffer 0: the affinely normalized coordinates."""
        out = self._block(0, rows.stop - rows.start, self._widths[0])
        np.subtract(x[rows], self.input_shift, out=out)
        out *= self.input_scale
        return out

    def _activate(self, k: int, z: np.ndarray) -> None:
        """The activation, in place, on the output of every layer but the last."""
        if k < len(self.layers) - 1:
            _ACTIVATIONS[self.activation](z, out=z)

    def _run(self, first: int, a: np.ndarray, slots: tuple, dest: np.ndarray, realized, biases) -> None:
        """Layers first.. at `realized` and `biases` on block a: their outputs
        alternate between block buffers slots[1] and slots[0], and the last
        layer writes dest.  a must not sit in slots[1]."""
        last = len(self.layers) - 1
        for k in range(first, last + 1):
            slots = slots[::-1]
            out = dest if k == last else self._block(slots[0], len(a), self._widths[k + 1])
            self.layers[k].apply(a, out, realized[k], biases[k])
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
        realized = [self._realization(k) for k in range(len(self.layers))]
        biases = [self._bias(k) for k in range(len(self.layers))]
        out = np.empty((len(x), self._widths[-1]))
        with self._pass_buffers(2):
            for rows in _row_blocks(len(x), self._block_rows):
                self._run(0, self._embed(x, rows), (0, 1), out[rows], realized, biases)
        out = self._output(out)
        return out[0] if single else out

    def pairs(self, x: np.ndarray, probes) -> np.ndarray:
        """The outputs for 2-D rows x at theta with theta[sl] + delta and with
        theta[sl] - delta, per probe (sl, delta) of the iterable `probes`: an
        array (probes, 2, rows), by the rules in the module docstring.  Each
        delta is read once, before the first block."""
        x = np.asarray(x, dtype=float)
        plans = [self._probe(sl, delta) for sl, delta in probes]
        top = max((p.k for p in plans), default=-1)  # the base forward runs up to the top probed layer
        whole = [(i, p) for i, p in enumerate(plans) if p.k < 0]  # the probes of no single segment
        by_layer = [[(i, p) for i, p in enumerate(plans) if p.k == k] for k in range(top + 1)]
        # the base product P_k feeds the layers above k, and the bias and direction probes of layer k
        needs_product = [k < top or any(p.states is None for _, p in by_layer[k]) for k in range(top + 1)]
        realized = [self._realization(j) for j in range(len(self.layers))] if top >= 0 else None
        biases = [self._bias(j) for j in range(len(self.layers))]
        out = np.empty((len(plans), 2, len(x), self._widths[-1]))
        with self._pass_buffers(4):
            for rows in _row_blocks(len(x), self._block_rows):
                h = self._embed(x, rows)
                for i, p in whole:
                    for s in range(2):
                        self._run(0, h, (3, 2), out[i, s, rows], p.states[s], p.biases[s])
                for k in range(top + 1):
                    product = None
                    if needs_product[k]:
                        product = self._block((k + 1) % 2, len(h), self._widths[k + 1])
                        self.layers[k].apply(h, product, realized[k])
                    for i, p in by_layer[k]:
                        self._probe_outputs(k, p, h, product, out[i, :, rows], realized, biases)
                    if k < top:
                        product += biases[k]
                        self._activate(k, product)
                        h = product
        return self._output(out)

    def _probe(self, sl: slice, delta: np.ndarray) -> _Probe:
        """What a probe (sl, delta) moves, realized once for the whole pass."""
        k = self._segment_layer.get((sl.start, sl.stop))
        if k is None:
            states, biases = [], []
            for op in _SIGNS:
                moved = self._theta.copy()
                moved[sl] = op(self._theta[sl], delta)
                states.append([layer.realize(self._effective(j, moved[self._param_slices[j]]))
                               for j, layer in enumerate(self.layers)])
                biases.append([moved[b] for b in self._bias_slices])
            return _Probe(-1, biases=tuple(biases), states=tuple(states))
        bias = self._bias(k)
        if sl.start == self._bias_slices[k].start:
            return _Probe(k, biases=(bias + delta, bias - delta))
        layer, params = self.layers[k], self._theta[self._param_slices[k]]
        part = slice(sl.start - self._param_slices[k].start, sl.stop - self._param_slices[k].start)
        if layer.multilinear and k >= len(self.layers) - 2:
            moved = params.copy()
            moved[part] = delta
            return _Probe(k, direction=layer.realize(moved))
        states = []
        for op in _SIGNS:
            moved = params.copy()
            moved[part] = op(params[part], delta)
            states.append(layer.realize(self._effective(k, moved)))
        return _Probe(k, states=tuple(states))

    def _probe_outputs(self, k, p: _Probe, h, product, dest, realized, biases) -> None:
        """Both outputs of probe p on layer k for one block, from its base input
        h and pre-bias product; dest is (2, block rows, outputs)."""
        last = len(self.layers) - 1
        layer = self.layers[k]
        if p.direction is not None:
            d = self._block(3, len(h), self._widths[k + 1])
            layer.apply(h, d, p.direction)
        for s, op in enumerate(_SIGNS):
            z = dest[s] if k == last else self._block(2, len(h), self._widths[k + 1])
            if p.states is not None:
                layer.apply(h, z, p.states[s], biases[k])
            elif p.direction is not None:
                op(product, d, out=z)
                z += biases[k]
            else:
                np.add(product, p.biases[s], out=z)
            if k < last:
                self._activate(k, z)
                self._run(k + 1, z, (2, 3), dest[s], realized, biases)


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
