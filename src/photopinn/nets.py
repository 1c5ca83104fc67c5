"""MLP solution networks with dense or tensor-train hidden layers.

A `TensorizedMlp` owns its trainable arrays and exposes them as one flat
vector with named segments, which is what the zeroth-order optimizer
perturbs.  Inputs can be affinely normalized and the output rescaled; both are
fixed (non-trainable) problem-conditioning choices taken from the model's
architecture (`models.architecture`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensortrain import TTCores, TTLayout, tt_forward, tt_init

__all__ = ["DenseLayer", "TTLayer", "TensorizedMlp"]

_ACTIVATIONS = {
    "tanh": np.tanh,
    "sine": np.sin,
}


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
    """Feed-forward net: layers chained with an activation on every hidden layer."""

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
        h = (np.atleast_2d(x) - self.input_shift) * self.input_scale
        if h.dtype != self.dtype:
            h = h.astype(self.dtype)
        act = _ACTIVATIONS[self.activation]
        for layer in self.layers[:-1]:
            h = layer.apply(h)
            act(h, out=h)
        out = self.layers[-1].apply(h)
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
