"""20-dimensional Hamilton-Jacobi-Bellman benchmark.

    u_t + lap_x u - 0.05 |grad_x u|^2 = -2   on [0,1]^20 x [0,1],
    u(x, 1) = |x|_1.

The exact solution is u(x, t) = |x|_1 + 1 - t.  The terminal condition is
enforced by construction through the transformed solution network

    u(x, t) = (1 - t) f(x, t) + |x|_1,

so training only needs the residual term: `problem()`, the benchmark's
descriptor, has no data term.
"""

from __future__ import annotations

import numpy as np

from .problems import PinnProblem

SPATIAL_DIM = 20
GRAD_PENALTY = 0.05
RHS = -2.0
HOLDOUT_SEED = 90210  # fixed seed for the random hold-out cloud

__all__ = ["SPATIAL_DIM", "GRAD_PENALTY", "RHS", "hjb_exact", "hjb_transform", "residual", "problem"]


def hjb_exact(x, t):
    """|x|_1 + 1 - t for x of shape (..., d) and matching t."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    return np.sum(np.abs(x), axis=-1) + 1.0 - t


def hjb_transform(net):
    """Wrap a raw network f(x, t) into (1 - t) f + |x|_1; input is (B, d+1) with t last."""

    def solution(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        t = X[:, -1]
        return (1.0 - t) * np.asarray(net(X), dtype=float) + np.sum(np.abs(X[:, :-1]), axis=1)

    return solution


def residual(bundle, X):
    du, d2 = bundle["first"], bundle["second"]
    grad_sq = np.sum(du[..., :SPATIAL_DIM] ** 2, axis=-1)
    lap = np.sum(d2[..., :SPATIAL_DIM], axis=-1)
    return du[..., -1] + lap - GRAD_PENALTY * grad_sq - RHS


def problem() -> PinnProblem:
    """The descriptor at its defaults, which `problems.get_problem` overrides."""
    return PinnProblem(
        name="hjb",
        lo=np.zeros(SPATIAL_DIM + 1),
        hi=np.ones(SPATIAL_DIM + 1),
        residual=residual,
        residual_points=100,
        holdout_points=lambda: np.random.default_rng(HOLDOUT_SEED).uniform(size=(10_000, SPATIAL_DIM + 1)),
        sigma_default=0.1,
        transform=hjb_transform,
        reference=lambda X: hjb_exact(X[:, :-1], X[:, -1]),
    )
