"""MLP solution networks with dense or tensor-train hidden layers.

A `TensorizedMlp` owns its trainable arrays and exposes them as one flat
vector with named segments, which is what the zeroth-order optimizer
perturbs.  Inputs can be affinely normalized and the output rescaled; both are
fixed (non-trainable) problem-conditioning choices taken from the model's
architecture (`models.architecture`).

Forwards reuse work across zeroth-order probes (`PrefixCache`).  When a call's
input rows equal the previous call's, bit for bit, the forward restarts at the
first layer whose parameters changed since that call, from the stored
activation that feeds it.  Parameters are compared by value against copies
taken at the previous call, never by object identity: `set_flat` stores views
of the caller's vector, which the caller may change in place.  At most two
activations are kept (the input and the output of the first recomputed
layer), and only when the same rows arrive twice in a row, so a one-off
forward such as the hold-out evaluation keeps none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensortrain import TTCores, TTLayout, tt_forward, tt_init

__all__ = ["DenseLayer", "TTLayer", "TensorizedMlp", "PrefixCache"]

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


class PrefixCache:
    """What one network's last forward left for its next: the input rows, a
    copy of every parameter array, and at most two activations.

    Per-tensor ZO probes change one layer at a time, so a probe on layer k
    restarts from the kept input of layer k, and the first probe on layer
    k + 1 recomputes layer k at the base parameters from that same input.
    """

    def __init__(self):
        self.rows: np.ndarray | None = None
        self.kept: dict[int, np.ndarray] = {}  # layer index -> the activation that feeds it
        self._seen: dict = {}

    def changed(self, key, value: np.ndarray) -> bool:
        """Whether `value` differs from the copy recorded under `key`; records a new copy if so."""
        old = self._seen.get(key)
        if old is not None and _same_bits(old, value):
            return False
        self._seen[key] = np.array(value, copy=True)
        return True

    def forward(self, x: np.ndarray, first_changed: int, n_layers: int, embed, layer):
        """The last layer's output for 2-D rows x.

        `embed(x)` gives the input of layer 0 and `layer(k, h)` the output of
        layer k (activated, except the last) for its input h; neither may
        change its argument in place.  `first_changed` is the first layer
        whose parameters differ from the previous call's.
        """
        repeat = self.rows is not None and _same_bits(self.rows, x)
        start = max((k for k in self.kept if k <= first_changed), default=None) if repeat else None
        h = self.kept.get(start)
        self.kept = {}  # drop stale entries before computing
        if not repeat:
            self.rows = None
        if h is None:
            start, h = 0, embed(x)
        if repeat:
            self.kept[start] = h
        for k in range(start, n_layers):
            h = layer(k, h)
            if repeat and k == start and k + 1 < n_layers:
                self.kept[k + 1] = h
        if not repeat:
            self.rows = x.copy()  # after the forward, so the copy does not add to its peak
        return h


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

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = x @ self.weight.T
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

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = tt_forward(self.cores, x)
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

    Calls reuse the layer prefix of the previous call (see `PrefixCache`).
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

        def embed(rows):
            h = (rows - self.input_shift) * self.input_scale
            return h if h.dtype == self.dtype else h.astype(self.dtype)

        def layer(k, h):
            h = self.layers[k].apply(h)
            if k < last:
                act(h, out=h)
            return h

        changed = [
            [self._cache.changed((k, name), arr) for name, arr in lay.arrays()]
            for k, lay in enumerate(self.layers)
        ]
        first = next((k for k, c in enumerate(changed) if any(c)), len(self.layers))
        out = self._cache.forward(np.atleast_2d(x), first, len(self.layers), embed, layer)
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
