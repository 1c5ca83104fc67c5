"""Randomized zeroth-order gradient estimation and parameter updates.

The central-difference estimator over a parameter group g with N probes is

    g_hat = (1/N) * sum_i (L(theta + mu xi_i) - L(theta - mu xi_i)) / (2 mu) * xi_i,

with xi_i i.i.d. zero-mean unit-variance (gaussian or rademacher) restricted
to g's coordinates.  Each probe costs two loss queries; with per-tensor
grouping every named segment gets its own probes and query pair.  Probe
streams are keyed by (seed, step, group, query) so results do not depend on
evaluation order or worker count.

A loss that offers `pairs(theta, probes)` is asked for every value of a
step at once: per probe (sl, delta), L(theta with theta[sl] +/- delta), so it
can share work across all of them (`training.step_loss` runs them all in
one block-major pass, `nets.Mlp.pairs`, and scores each row block as it
leaves the network).  A plain callable is queried twice per probe, at two
probe vectors; both ways count two queries per probe.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    `loss` maps theta to a float.  Every probe of the step is drawn first,
    each from its own key, then evaluated: when `loss` has `pairs`, all of
    them in one `pairs(theta, probes)` call, where the iterator `probes`
    yields (sl, mu * xi) once per probe, in group order and probe order
    within a group; otherwise two calls at theta[sl] +/- mu * xi each.  The
    estimate then differs from the plain one only as far as the pairs'
    values differ from the two queries (for `training.step_loss`: not at
    all, or within the tolerance the `nets` module docstring states).
    Values are checked and accumulated in group order, so a non-finite one
    raises for the first group that has one.
    """
    mu = cfg.radius
    groups = view.groups(cfg.grouping)
    keys = [(gi, qi) for gi in range(len(groups)) for qi in range(cfg.queries)]
    xis = []
    for gi, qi in keys:
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, step, gi, qi)))
        xis.append(_draw(rng, groups[gi][1].stop - groups[gi][1].start, cfg.distribution))
    probes = ((groups[gi][1], mu * xi) for (gi, _), xi in zip(keys, xis))  # each delta made as it is asked for
    pairs = getattr(loss, "pairs", None)
    values = iter(pairs(theta, probes) if pairs is not None else (_two_queries(loss, theta, *p) for p in probes))
    grad = np.zeros_like(theta)
    for gi, (gname, sl) in enumerate(groups):
        acc = np.zeros(sl.stop - sl.start)
        for qi in range(cfg.queries):
            lp, lm = (float(value) for value in next(values))
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise DivergenceError(
                    f"non-finite loss at step={step} group={gname!r} "
                    f"perturbation key=({cfg.seed},{step},{gi},{qi}): L+={lp} L-={lm}"
                )
            acc += (lp - lm) / (2.0 * mu) * xis[gi * cfg.queries + qi]
        grad[sl] = acc / cfg.queries
    return grad, 2 * len(keys)


def _two_queries(loss, theta: np.ndarray, sl: slice, delta: np.ndarray) -> tuple[float, float]:
    """L(theta with theta[sl] + delta) and L(theta with theta[sl] - delta), as two plain calls."""
    probe = theta.copy()
    probe[sl] = theta[sl] + delta
    lp = loss(probe)
    probe[sl] = theta[sl] - delta
    return lp, loss(probe)


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
