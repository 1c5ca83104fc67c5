"""Viscous Burgers benchmark and its reference solution.

    u_t + u u_x = nu u_xx   on [-1, 1] x [0, 1],   nu = 0.01 / pi,
    u(x, 0) = -sin(pi x),   u(-1, t) = u(1, t) = 0.

The Cole-Hopf substitution u = -2 nu phi_x / phi reduces this to a heat
equation, giving the integral representation

    u(x, t) = -int sin(pi(x - eta)) g(eta) deta / int g(eta) deta,
    g(eta)  = exp(-cos(pi(x - eta)) / (2 pi nu) - eta^2 / (4 nu t)),

which `burgers_exact` evaluates by adaptive quadrature with explicit split
points at the exponent peaks (eta = 0 and eta = x -+ 1).  Both integrands are
benign in float64 because the num/den ratio cancels the large common scale.
(The equivalent Fourier-Bessel series is NOT used: its denominator loses all
significant digits where phi is exponentially small, i.e. near x = 0.)

The tests cross-check it against an independent conservative Godunov upwind
finite-difference solve.  `burgers_cole_hopf_quad` imports `scipy.integrate`
on first use: only an oracle build needs it, and importing SciPy at module
load would be most of a run's start-up time.
"""

from __future__ import annotations

import numpy as np

NU = 0.01 / np.pi
_A = 1.0 / (2.0 * np.pi * NU)  # = 50

__all__ = ["NU", "burgers_exact", "burgers_cole_hopf_quad", "burgers_initial", "holdout_axes"]


def holdout_axes() -> tuple[np.ndarray, np.ndarray]:
    """The x and t nodes of the hold-out grid; the oracle raster holds the reference on them."""
    return np.linspace(-1.0, 1.0, 256), np.linspace(0.0, 1.0, 101)


def burgers_initial(x):
    return -np.sin(np.pi * np.asarray(x, dtype=float))


def burgers_cole_hopf_quad(x: float, t: float) -> float:
    """Pointwise Cole-Hopf evaluation by adaptive quadrature.

    The exponent has up to three peaks (eta = 0 from the heat kernel and
    eta = x -+ 1 where the cosine term is maximal), so the line is split into
    one window per peak and each piece is normalized by its peak value before
    quadrature.  This stays accurate down to very small t, where the kernel
    peak is extremely narrow.
    """
    from scipy.integrate import quad

    if t <= 0.0:
        return float(-np.sin(np.pi * x))
    var4 = 4.0 * NU * t

    def exponent(eta):
        return -np.cos(np.pi * (x - eta)) * _A - eta**2 / var4

    # Everything beyond |eta| = H is smaller than exp(-margin) relative to the
    # dominant peak, because exponent <= A - eta^2/var4 while the maximum is
    # at least -A.  Within [-H, H] give each surviving peak its own window.
    margin = 120.0
    H = np.sqrt((margin + 2.0 * _A) * var4)
    peaks = [p for p in (x - 1.0, 0.0, x + 1.0) if abs(p) < H] or [0.0]
    scale = max(exponent(p) for p in peaks)
    bounds = [-H] + [0.5 * (a + b) for a, b in zip(peaks[:-1], peaks[1:])] + [H]
    num = 0.0
    den = 0.0
    for lo, hi, peak in zip(bounds[:-1], bounds[1:], peaks):
        if exponent(peak) - scale < -margin:
            continue
        g = lambda e: np.exp(exponent(e) - scale)
        num += quad(lambda e: np.sin(np.pi * (x - e)) * g(e), lo, hi, points=[peak], limit=400)[0]
        den += quad(g, lo, hi, points=[peak], limit=400)[0]
    return float(-num / den)


def burgers_exact(x, t):
    """Vectorized wrapper around the quadrature evaluation."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    xb, tb = np.broadcast_arrays(x, t)
    out = np.array([burgers_cole_hopf_quad(xi, ti) for xi, ti in zip(xb.ravel(), tb.ravel())])
    out = out.reshape(xb.shape)
    return out if out.ndim else float(out)
