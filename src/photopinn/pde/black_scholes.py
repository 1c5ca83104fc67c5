"""Black-Scholes call-option benchmark: closed-form price and PDE data.

    u_t + (1/2) vol^2 x^2 u_xx + r x u_x - r u = 0   on [0, 200] x [0, 1],
    u(x, 1) = max(x - K, 0),  u(0, t) = 0,  u(200, t) = 200 - K exp(-r (1-t)).

Parameters are fixed at vol = 0.2, r = 0.05, K = 100, T = 1.
`bs_exact` imports `scipy.special` on first use: no training step needs it,
and importing SciPy at module load would be most of a run's start-up time.
"""

from __future__ import annotations

import numpy as np

VOL = 0.2
RATE = 0.05
STRIKE = 100.0
HORIZON = 1.0
X_MAX = 200.0

__all__ = ["VOL", "RATE", "STRIKE", "HORIZON", "X_MAX", "bs_exact", "bs_terminal", "bs_boundary_hi"]


def bs_exact(x, t):
    """Closed-form call price u(x, t); handles the x = 0 and t = T limits."""
    from scipy.special import ndtr

    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    x, t = np.broadcast_arrays(x, t)
    tau = HORIZON - t
    out = np.empty_like(x)

    expired = tau <= 1e-14
    out[expired] = np.maximum(x[expired] - STRIKE, 0.0)

    live = ~expired
    xv = x[live]
    tv = tau[live]
    zero = xv <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        sq = VOL * np.sqrt(tv)
        d1 = (np.log(xv / STRIKE) + (RATE + 0.5 * VOL**2) * tv) / sq
        d2 = d1 - sq
        val = xv * ndtr(d1) - STRIKE * np.exp(-RATE * tv) * ndtr(d2)
    val[zero] = 0.0
    out[live] = val
    return out if out.ndim else float(out)


def bs_terminal(x):
    return np.maximum(np.asarray(x, dtype=float) - STRIKE, 0.0)


def bs_boundary_hi(t):
    """Value on the x = 200 boundary: 200 - K exp(-r (T - t))."""
    return X_MAX - STRIKE * np.exp(-RATE * (HORIZON - np.asarray(t, dtype=float)))
