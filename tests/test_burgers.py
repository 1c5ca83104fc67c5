"""Burgers reference: the Cole-Hopf quadrature against an independent FD solve."""

import numpy as np
import pytest

from photopinn.pde.burgers import NU, burgers_exact


def burgers_fd_solve(n_x, t_out):
    """Conservative Godunov upwind finite-difference solve on n_x nodes.

    Returns (x nodes, u values of shape (len(t_out), n_x)) for increasing t_out.
    """
    x = np.linspace(-1.0, 1.0, n_x)
    dx = x[1] - x[0]
    dt = 0.2 * min(dx**2 / (2.0 * NU), dx)  # diffusion-limited explicit step
    u = -np.sin(np.pi * x)
    out = np.empty((len(t_out), n_x))
    t = 0.0
    for oi, t_end in enumerate(t_out):
        while t < t_end - 1e-12:
            step = min(dt, t_end - t)
            # Godunov flux for the convex flux u^2/2: max over shock, min over fan
            ul, ur = u[:-1], u[1:]
            flux = np.where(ul <= ur, np.minimum(ul**2, ur**2), np.maximum(ul**2, ur**2)) / 2.0
            flux[(ul <= 0.0) & (ur >= 0.0)] = 0.0  # sonic point inside the fan
            diff = NU * (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dx**2
            u = u.copy()
            u[1:-1] += step * (-(flux[1:] - flux[:-1]) / dx + diff)
            u[0] = 0.0
            u[-1] = 0.0
            t += step
        out[oi] = u
    return x, out


T_OUT = np.array([0.25, 0.5, 1.0])
X_CHECK = np.linspace(-1.0, 1.0, 17)  # every 32nd node of the 513-node grid


@pytest.fixture(scope="module")
def exact():
    return burgers_exact(X_CHECK[None, :], T_OUT[:, None])


def fd_error(n_x, exact):
    x, u = burgers_fd_solve(n_x, T_OUT)
    stride = (n_x - 1) // (len(X_CHECK) - 1)
    assert np.allclose(x[::stride], X_CHECK)
    return np.abs(u[:, ::stride] - exact).max()


def test_exact_matches_initial_condition():
    assert np.allclose(burgers_exact(X_CHECK, 0.0), -np.sin(np.pi * X_CHECK), atol=1e-15)


def test_exact_agrees_with_fd_and_fd_error_halves_with_the_grid(exact):
    # measured max errors: 6.3e-3 (513 nodes), 3.3e-3 (1025 nodes); first order
    coarse, fine = fd_error(513, exact), fd_error(1025, exact)
    assert coarse < 8e-3
    assert fine < 4e-3
    assert fine < 0.6 * coarse
