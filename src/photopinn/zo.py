"""Randomized zeroth-order gradient estimation and parameter updates.

The central-difference estimator over a parameter group g with N probes is

    g_hat = (1/N) * sum_i (L(theta + mu xi_i) - L(theta - mu xi_i)) / (2 mu) * xi_i,

with xi_i i.i.d. zero-mean unit-variance (gaussian or rademacher) restricted
to g's coordinates.  Each probe costs two loss queries; with per-tensor
grouping every named segment gets its own probes and query pair.  Probe
streams are keyed by (seed, step, group, query) so results do not depend on
evaluation order or worker count.

A loss that offers `pair(theta, sl, delta)` is asked for both values of a
probe at once, L(theta with theta[sl] +/- delta), so it can share work
between them and across the probes of a step (`training.step_loss` shares one
base forward, `nets.Mlp.pair`).  A plain callable is queried twice, at two
probe vectors; both ways count two queries per probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ZoConfig",
    "ParamView",
    "DivergenceError",
    "rge_estimate",
    "zo_sgd_step",
    "AdamState",
    "zo_adam_step",
]


class DivergenceError(RuntimeError):
    """Loss became non-finite during gradient estimation."""


@dataclass(frozen=True)
class ZoConfig:
    queries: int = 1
    radius: float = 0.01
    distribution: str = "gaussian"
    grouping: str = "per-tensor"
    seed: int = 0

    def __post_init__(self):
        if self.queries < 1:
            raise ValueError("queries must be >= 1")
        if self.radius <= 0:
            raise ValueError("radius must be > 0")
        if self.distribution not in ("gaussian", "rademacher"):
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.grouping not in ("global", "per-tensor"):
            raise ValueError(f"unknown grouping {self.grouping!r}")


@dataclass(frozen=True)
class ParamView:
    """Disjoint named segments (name, start, stop) covering a flat store of size dim."""

    segments: tuple[tuple[str, int, int], ...]
    dim: int

    def __post_init__(self):
        covered = 0
        last = 0
        for name, start, stop in self.segments:
            if start != last or stop <= start:
                raise ValueError(f"segment {name} not contiguous with predecessors")
            covered += stop - start
            last = stop
        if covered != self.dim:
            raise ValueError(f"segments cover {covered} of {self.dim} coordinates")

    @classmethod
    def from_segments(cls, segments: Sequence[tuple[str, int, int]]) -> "ParamView":
        segments = tuple(segments)
        return cls(segments=segments, dim=segments[-1][2] if segments else 0)

    def groups(self, grouping: str) -> list[tuple[str, slice]]:
        if grouping == "global":
            return [("all", slice(0, self.dim))]
        return [(name, slice(start, stop)) for name, start, stop in self.segments]


def _draw(rng: np.random.Generator, size: int, distribution: str) -> np.ndarray:
    if distribution == "rademacher":
        return rng.integers(0, 2, size=size).astype(float) * 2.0 - 1.0
    return rng.standard_normal(size)


def rge_estimate(
    loss: Callable[[np.ndarray], float],
    theta: np.ndarray,
    view: ParamView,
    cfg: ZoConfig,
    step: int = 0,
) -> tuple[np.ndarray, int]:
    """Estimate the gradient of `loss` at theta; returns (estimate, n_loss_queries).

    `loss` maps theta to a float.  When it has `pair`, each probe is one
    `pair(theta, sl, mu * xi)` call instead of two calls at theta[sl] +/- mu * xi;
    the estimate then differs from the plain one only as far as the pair's
    values differ from the two queries (for `training.step_loss`: not at all,
    or within the tolerance the `nets` module docstring states).
    """
    pair = getattr(loss, "pair", None)
    grad = np.zeros_like(theta)
    queries = 0
    mu = cfg.radius
    for gi, (gname, sl) in enumerate(view.groups(cfg.grouping)):
        width = sl.stop - sl.start
        acc = np.zeros(width)
        for qi in range(cfg.queries):
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, step, gi, qi)))
            xi = _draw(rng, width, cfg.distribution)
            delta = mu * xi
            if pair is not None:
                lp, lm = (float(value) for value in pair(theta, sl, delta))
            else:
                probe = theta.copy()
                probe[sl] = theta[sl] + delta
                lp = float(loss(probe))
                probe[sl] = theta[sl] - delta
                lm = float(loss(probe))
            queries += 2
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise DivergenceError(
                    f"non-finite loss at step={step} group={gname!r} "
                    f"perturbation key=({cfg.seed},{step},{gi},{qi}): L+={lp} L-={lm}"
                )
            acc += (lp - lm) / (2.0 * mu) * xi
        grad[sl] = acc / cfg.queries
    return grad, queries


def zo_sgd_step(params: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
    """Plain descent update, in place."""
    params -= lr * grad
    return params


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, dim: int) -> "AdamState":
        return cls(m=np.zeros(dim), v=np.zeros(dim), t=0)


def zo_adam_step(
    state: AdamState,
    params: np.ndarray,
    grad: np.ndarray,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[AdamState, np.ndarray]:
    """Bias-corrected Adam moment update applied to the ZO gradient estimate."""
    state.t += 1
    state.m = beta1 * state.m + (1.0 - beta1) * grad
    state.v = beta2 * state.v + (1.0 - beta2) * grad**2
    mhat = state.m / (1.0 - beta1**state.t)
    vhat = state.v / (1.0 - beta2**state.t)
    params -= lr * mhat / (np.sqrt(vhat) + eps)
    return state, params
