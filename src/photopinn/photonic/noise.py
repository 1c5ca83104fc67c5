"""Hardware non-ideality pipeline for programmed MZI phases.

Effective phases are produced from programmed ones in this order:

    quantize to b bits on [0, 2*pi)  ->  per-device gain 1 + dgamma
    ->  crosstalk coupling between adjacent rotators  ->  + frozen phase bias.

Gain deviations and biases are drawn once per device from the model seed and
stay frozen for a whole run; only the quantized input changes between loss
queries.  The biases are drawn after the gains, and only when
`phase_bias` is on, so the gains do not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["NoiseModel", "FrozenNoise", "quantize_phases", "apply_nonidealities"]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class NoiseModel:
    bits: int | None = 8  # None disables quantization
    gamma_std: float = 0.002
    crosstalk: float = 0.005  # coupling onto adjacent rotators
    phase_bias: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.bits is not None and self.bits < 1:
            raise ValueError("bits must be >= 1 or None")
        if self.gamma_std < 0:
            raise ValueError("gamma_std must be >= 0")
        if not (0.0 <= self.crosstalk < 1.0):
            raise ValueError("crosstalk must be in [0, 1)")

    @classmethod
    def disabled(cls) -> "NoiseModel":
        return cls(bits=None, gamma_std=0.0, crosstalk=0.0, phase_bias=False)

    def freeze(self, n_phases: int) -> "FrozenNoise":
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, n_phases)))
        dgamma = rng.normal(0.0, self.gamma_std, size=n_phases)
        bias = rng.uniform(0.0, TWO_PI, size=n_phases) if self.phase_bias else None
        return FrozenNoise(gain=1.0 + dgamma, bias=bias)


@dataclass(frozen=True)
class FrozenNoise:
    gain: np.ndarray
    bias: np.ndarray | None  # None when the model adds no phase bias


def quantize_phases(phases: np.ndarray, bits: int | None) -> np.ndarray:
    """Uniform b-bit rounding on [0, 2*pi); idempotent."""
    if bits is None:
        return np.asarray(phases, dtype=float)
    levels = float(1 << bits)
    lsb = TWO_PI / levels
    q = np.round(np.asarray(phases, dtype=float) / lsb)
    # q mod levels, as q - levels * floor(q / levels): the same bits as float
    # `%` (signed zeros, NaN and inf included) at a fifth of its cost
    wraps = np.floor(q / levels)
    wraps *= levels
    q -= wraps
    q *= lsb
    return q


def apply_nonidealities(
    phases: np.ndarray,
    model: NoiseModel,
    pairs: np.ndarray | None = None,
    frozen: FrozenNoise | None = None,
) -> np.ndarray:
    """Map programmed phases to effective device phases.

    `pairs` is an (E, 2) index array of mutually adjacent rotators (the
    crosstalk matrix has 1 on the diagonal and `model.crosstalk` at those
    symmetric entries).  `frozen` carries the per-device gain and bias; it is
    drawn from the model seed when not supplied.
    """
    phases = np.asarray(phases, dtype=float)
    if frozen is None:
        frozen = model.freeze(len(phases))
    eff = quantize_phases(phases, model.bits)
    eff = frozen.gain * eff
    if model.crosstalk > 0.0 and pairs is not None and len(pairs):
        coupled = eff.copy()
        np.add.at(coupled, pairs[:, 0], model.crosstalk * eff[pairs[:, 1]])
        np.add.at(coupled, pairs[:, 1], model.crosstalk * eff[pairs[:, 0]])
        eff = coupled
    if model.phase_bias:
        eff = eff + frozen.bias
    return eff
