import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def central_diff_grad(f, x, h=1e-4):
    """Finite-difference gradient oracle, independent of the smoothing path."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def central_diff_hess_diag(f, x, h=1e-3):
    x = np.asarray(x, dtype=float)
    d = np.zeros_like(x)
    f0 = f(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        d[i] = (f(x + e) + f(x - e) - 2 * f0) / h**2
    return d


def scalar_net(net):
    """Adapt a batch net to a scalar-point callable for the FD oracles."""
    return lambda x: float(net(np.asarray(x)[None, :])[0])


def pair_outputs(model, x, probes):
    """`model.pairs` as one (probes, 2, rows) array: a copy of each row block it yields, joined."""
    return np.concatenate([out.copy() for _, out in model.pairs(x, probes)], axis=-1)
