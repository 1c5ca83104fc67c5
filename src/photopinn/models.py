"""Per-benchmark network architectures and the two factories that build them.

`architecture()` is the only source of layer shapes, tensor-train folds and
input/output conditioning.  The weight-domain factory (`build_model`), the
phase layers (`phase_layers`, which `build_phase_model` trains and whose
phases `photonic.cost.mzi_count` counts as devices), the parameter counts and
the checkpoints are all derived from its result:

    black-scholes : 2 -> 128 -> 128 -> 1, tanh; hidden fold (4,4,8)x(8,4,4)
    hjb           : 21 -> W -> W -> 1, sine; input and hidden layers folded
                    (W = 512 or 128)
    burgers/darcy : 2 -> 100 -> 100 -> 100 -> 100 -> 1, tanh;
                    the three 100x100 layers folded (4,5,5)x(5,5,4)

TT variants fold exactly these layers; the rest stay dense.  Input
coordinates are affinely mapped to about [-1, 1] and the output is rescaled
to the solution's magnitude where the raw ranges would otherwise be hostile
to tanh nets (Black-Scholes prices reach ~10^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError
from .nets import DenseLayer, TensorizedMlp, TTLayer
from .pde import PROBLEM_NAMES
from .pde import black_scholes as bs
from .tensortrain import TTLayout, tt_init

__all__ = ["Architecture", "architecture", "build_model", "phase_layers", "build_phase_model"]

# HJB (input fold, hidden fold) per width, each as (in_factors, out_factors)
_HJB_FOLDS = {
    512: (((1, 1, 3, 7), (8, 4, 4, 4)), ((4, 4, 4, 8), (8, 4, 4, 4))),
    128: (((1, 1, 3, 7), (2, 4, 4, 4)), ((4, 4, 8), (8, 4, 4))),
}


@dataclass(frozen=True)
class Architecture:
    """One network: per layer an (n_in, n_out) dense shape or a TTLayout.

    `draw_order` lists layers in the order their initial values are drawn
    from the seed's generator; it is fixed so every seed keeps its initial
    theta in both domains.
    """

    layers: tuple
    draw_order: tuple[int, ...]
    activation: str
    input_shift: tuple[float, ...] | None = None
    input_scale: tuple[float, ...] | None = None
    output_scale: float = 1.0


def architecture(
    problem: str, tensorized: bool = True, rank: int = 2, width: int | None = None
) -> Architecture:
    """The network for `problem`; raises ConfigError when it cannot be built."""
    if tensorized and rank < 1:
        raise ConfigError(f"model.rank must be >= 1, got {rank}")

    def tt(in_factors, out_factors):
        return TTLayout(in_factors, out_factors, (1,) + (rank,) * (len(in_factors) - 1) + (1,))

    if problem == "black-scholes":
        w = width or 128
        hidden = tt((4, 4, 8), (8, 4, 4)) if tensorized else (w, w)
        arch = Architecture(
            layers=((2, w), hidden, (w, 1)),
            draw_order=(1, 0, 2),
            activation="tanh",
            input_shift=(bs.X_MAX / 2.0, bs.HORIZON / 2.0),
            input_scale=(2.0 / bs.X_MAX, 2.0 / bs.HORIZON),
            output_scale=bs.STRIKE,
        )
    elif problem == "hjb":
        w = width or 512
        if not tensorized:
            first, hidden = (21, w), (w, w)
        elif w in _HJB_FOLDS:
            first, hidden = (tt(*fold) for fold in _HJB_FOLDS[w])
        else:
            raise ConfigError(f"hjb: no tensor-train fold for model.width={w}")
        arch = Architecture(layers=(first, hidden, (w, 1)), draw_order=(0, 1, 2), activation="sine")
    elif problem in ("burgers", "darcy"):
        w = width or 100
        hidden = tt((4, 5, 5), (5, 5, 4)) if tensorized else (w, w)
        burgers = problem == "burgers"
        arch = Architecture(
            layers=((2, w), hidden, hidden, hidden, (w, 1)),
            draw_order=(1, 2, 3, 0, 4),
            activation="tanh",
            input_shift=(0.0, 0.5) if burgers else (0.5, 0.5),
            input_scale=(1.0, 2.0) if burgers else (2.0, 2.0),
        )
    else:
        raise ConfigError(f"unknown problem {problem!r}; choose from {', '.join(PROBLEM_NAMES)}")
    if w < 1:
        raise ConfigError(f"{problem}: model.width must be >= 1, got {w}")
    shapes = [(l.cols, l.rows) if isinstance(l, TTLayout) else l for l in arch.layers]
    for k in range(len(shapes) - 1):
        if shapes[k][1] != shapes[k + 1][0]:
            raise ConfigError(
                f"{problem}: model.width={w} does not fit the tensor-train fold "
                f"(layer {k} has {shapes[k][1]} outputs, layer {k + 1} takes {shapes[k + 1][0]})"
            )
    return arch


def build_model(
    problem: str,
    tensorized: bool = True,
    rank: int = 2,
    width: int | None = None,
    seed: int = 0,
) -> TensorizedMlp:
    """Weight-domain model: dense layers draw Glorot-normal weights from
    default_rng(seed) in draw order; the j-th TT layer is initialized from
    seed + 1 + j."""
    arch = architecture(problem, tensorized, rank, width)
    layers = [TTLayer(l) if isinstance(l, TTLayout) else DenseLayer(*l) for l in arch.layers]
    rng = np.random.default_rng(seed)
    tt_layers = [k for k, layer in enumerate(layers) if isinstance(layer, TTLayer)]
    params = [None] * len(layers)
    for k in arch.draw_order:
        layer = layers[k]
        if isinstance(layer, TTLayer):
            params[k] = tt_init(layer.layout, seed + 1 + tt_layers.index(k)).cores
        else:
            std = np.sqrt(2.0 / (layer.n_in + layer.n_out))
            params[k] = [std * rng.standard_normal((layer.n_out, layer.n_in))]
    return TensorizedMlp(layers, params, arch.activation, arch.input_shift, arch.input_scale, arch.output_scale)


def phase_layers(arch: Architecture) -> list:
    """The photonic realization of each layer: a PhotonicTT per TTLayout, else a PhotonicDense."""
    from .photonic.model import PhotonicDense, PhotonicTT

    return [PhotonicTT(l) if isinstance(l, TTLayout) else PhotonicDense(*l) for l in arch.layers]


def build_phase_model(
    problem: str,
    tensorized: bool = True,
    rank: int = 2,
    width: int | None = None,
    seed: int = 0,
    noise: NoiseModel | None = None,
) -> PhotonicMlp:
    """Phase-domain model: every layer draws its phases from default_rng(seed) in draw order."""
    from .photonic.model import PhotonicMlp, random_phases

    arch = architecture(problem, tensorized, rank, width)
    layers = phase_layers(arch)
    rng = np.random.default_rng(seed)
    phases = [None] * len(layers)
    for k in arch.draw_order:
        phases[k] = random_phases(layers[k], rng)
    return PhotonicMlp(
        layers, phases, arch.activation, noise, arch.input_shift, arch.input_scale, arch.output_scale
    )
