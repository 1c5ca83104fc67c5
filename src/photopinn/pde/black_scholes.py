"""Black-Scholes call-option benchmark: closed-form price and PDE data.

    u_t + (1/2) vol^2 x^2 u_xx + r x u_x - r u = 0   on [0, 200] x [0, 1],
    u(x, 1) = max(x - K, 0),  u(0, t) = 0,  u(200, t) = 200 - K exp(-r (1-t)).

Parameters are fixed at vol = 0.2, r = 0.05, K = 100, T = 1.

The closed form needs the standard normal CDF, and this module computes it
with NumPy alone, so no Black-Scholes run loads SciPy (importing
`scipy.special` took ~21 MB of a run's ~66 MB peak RSS).  `normal_cdf` is
Phi(z) = (1 + erf(z / sqrt 2)) / 2 with erf and erfc from the rational
approximations of S. Moshier's Cephes library (`ndtr.c`), the algorithm
SciPy's `ndtr` follows, coefficient for coefficient.  Against
`scipy.special.ndtr` on 2,000,001 points over [-40, 40] it agreed bit for
bit where |z| < sqrt 2 (the erf branch), and elsewhere to 1.1e-16 absolute
and 5.7e-16 relative where ndtr >= 1e-300: the last bits of `exp`.
"""

from __future__ import annotations

import math

import numpy as np

VOL = 0.2
RATE = 0.05
STRIKE = 100.0
HORIZON = 1.0
X_MAX = 200.0

__all__ = ["VOL", "RATE", "STRIKE", "HORIZON", "X_MAX", "bs_exact", "bs_terminal", "bs_boundary_hi", "normal_cdf"]

# Cephes ndtr.c as rational functions num(t) / den(t), one row each, highest
# power first; each den is monic and a leading 0 pads num to the same length.
# erf(x) = x num(x^2) / den(x^2) for |x| < 1, and erfc(x) = exp(-x^2) num(x) / den(x)
# for 1 <= x < 8 (_ERFC_MID) and x >= 8 (_ERFC_FAR).
_ERF = np.array([
    [0.0, 9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
     7.00332514112805075473e3, 5.55923013010394962768e4],
    [1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
     2.26290000613890934246e4, 4.92673942608635921086e4],
])
_ERFC_MID = np.array([
    [2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
     4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
     9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2],
    [1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
     9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
     1.65666309194161350182e3, 5.57535340817727675546e2],
])
_ERFC_FAR = np.array([
    [0.0, 5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
     6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0],
    [1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
     1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0],
])
_MAXLOG = 7.09782712893383996843e2  # exp(-x^2) underflows to 0 beyond x^2 = log(DBL_MAX)


def _num_den(t: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """Both rows of `coefs` at t by Horner's rule: a (2, len(t)) array (numerator, denominator)."""
    y = coefs[:, :1] * t
    for k in range(1, coefs.shape[1] - 1):
        y += coefs[:, k : k + 1]
        y *= t
    y += coefs[:, -1:]
    return y


def _lower_tail(a: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """erfc(a) / 2 = exp(-a^2) num(a) / den(a) / 2 for a >= 1, written over a."""
    num, den = _num_den(a, coefs)
    np.multiply(a, a, out=a)
    np.negative(a, out=a)
    np.exp(a, out=a)
    a *= num
    a /= den
    a *= 0.5
    return a


def normal_cdf(z, out=None) -> np.ndarray:
    """Standard normal CDF, elementwise (Cephes `ndtr`, see the module docstring).

    With x = z / sqrt 2, entries with |x| < 1 come from erf and the rest
    from the lower tail erfc(|x|) / 2, reflected to 1 - that for x > 0;
    each branch runs only on its own entries.  `out` (which may be z
    itself) starts as |x|, and each branch reads its entries from it before
    writing them.
    """
    z = np.asarray(z, dtype=float)
    upper = z > 0.0
    out = np.abs(z, out=np.empty_like(z) if out is None else out)
    out *= math.sqrt(0.5)
    near = out < 1.0
    below8 = out < 8.0
    mid = below8 & ~near
    far = ~below8  # also takes NaN, which stays NaN

    v = out[near]
    num, den = _num_den(v * v, _ERF)
    num *= v
    num /= den
    num *= 0.5  # erf(|x|) / 2
    np.negative(num, out=num, where=~upper[near])
    num += 0.5
    out[near] = num

    out[mid] = _lower_tail(out[mid], _ERFC_MID)

    a = out[far]
    under = a > math.sqrt(_MAXLOG)
    a[under] = 0.0  # keeps inf / inf out of the polynomials; these entries are 0
    a = _lower_tail(a, _ERFC_FAR)
    a[under] = 0.0
    out[far] = a

    np.subtract(1.0, out, out=out, where=upper & ~near)
    return out


def bs_exact(x, t):
    """Closed-form call price u(x, t); the payoff max(x - K, 0) where t = T or x <= 0."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    x, t = np.broadcast_arrays(x, t)
    tau = HORIZON - t
    out = np.empty_like(x)
    np.maximum(x - STRIKE, 0.0, out=out)  # the payoff, left where the formula does not apply
    live = ~(tau <= 1e-14) & (x > 0.0)  # a NaN t stays live, so its price is NaN
    xv = x[live]
    tv = tau[live]
    sq = VOL * np.sqrt(tv)
    d = np.empty((2, len(xv)))  # d1 and d2, for one normal_cdf call that overwrites them
    np.divide(np.log(xv / STRIKE) + (RATE + 0.5 * VOL**2) * tv, sq, out=d[0])
    np.subtract(d[0], sq, out=d[1])
    n1, n2 = normal_cdf(d, out=d)

    out[live] = xv * n1 - STRIKE * np.exp(-RATE * tv) * n2
    return out if out.ndim else float(out)


def bs_terminal(x):
    return np.maximum(np.asarray(x, dtype=float) - STRIKE, 0.0)


def bs_boundary_hi(t):
    """Value on the x = 200 boundary: 200 - K exp(-r (T - t))."""
    return X_MAX - STRIKE * np.exp(-RATE * (HORIZON - np.asarray(t, dtype=float)))
