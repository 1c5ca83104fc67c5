"""Darcy-flow benchmark: piecewise-constant permeability on the unit square.

    div(k(x) grad u(x)) = 1   on (0, 1)^2,    u = 0 on the boundary.

The permeability raster assigns one value per cell.  Because k is piecewise
constant the PDE residual inside cells reduces to k(x) * lap u(x) - 1.  The
reference solution is a sparse direct solve of the flux-form five-point
discretization with harmonic-mean face permeabilities, on the same 241 x 241
node grid used for residual sampling.  The boundary condition is built into
the solution network through the multiplier x1 (1 - x1) x2 (1 - x2).
`darcy_fd_solve` imports `scipy.sparse` on first use: only an oracle build
needs it, and importing SciPy at module load would be most of a run's
start-up time.
"""

from __future__ import annotations

import importlib.resources

import numpy as np

from .raster import Raster, load_raster

GRID_N = 241
FORCING = 1.0

__all__ = [
    "GRID_N",
    "FORCING",
    "default_permeability",
    "darcy_boundary_multiplier",
    "darcy_transform",
    "darcy_fd_solve",
]


def default_permeability() -> Raster:
    """The raster shipped with the package (values in {3, 12} on 241 x 241 cells)."""
    ref = importlib.resources.files("photopinn") / "data" / "darcy_k_default.txt"
    with importlib.resources.as_file(ref) as path:
        return load_raster(path)


def darcy_boundary_multiplier(points: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(points)
    return pts[:, 0] * (1.0 - pts[:, 0]) * pts[:, 1] * (1.0 - pts[:, 1])


def darcy_transform(net):
    """Hard zero boundary: u = x1(1-x1) x2(1-x2) * f(x)."""

    def solution(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return darcy_boundary_multiplier(X) * np.asarray(net(X), dtype=float)

    return solution


def darcy_fd_solve(k_field: Raster, n: int = GRID_N) -> Raster:
    """Direct sparse solve of div(k grad u) = FORCING with u = 0 on the boundary.

    Five-point flux discretization on an n x n node grid over [0, 1]^2;
    face permeabilities are harmonic means of the cell values at the
    neighboring nodes, the standard choice for discontinuous coefficients.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    h = 1.0 / (n - 1)
    xs = np.linspace(0.0, 1.0, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    k_nodes = k_field.lookup_cell(np.column_stack([X.ravel(), Y.ravel()])).reshape(n, n)

    def hmean(a, b):
        return 2.0 * a * b / (a + b)

    m = n - 2  # interior nodes per axis
    idx = -np.ones((n, n), dtype=int)
    idx[1:-1, 1:-1] = np.arange(m * m).reshape(m, m)

    rows, cols, vals = [], [], []
    rhs = np.full(m * m, FORCING)
    for i in range(1, n - 1):
        for j in range(1, n - 1):
            me = idx[i, j]
            diag = 0.0
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                kf = hmean(k_nodes[i, j], k_nodes[i + di, j + dj])
                diag -= kf / h**2
                nb = idx[i + di, j + dj]
                if nb >= 0:
                    rows.append(me)
                    cols.append(nb)
                    vals.append(kf / h**2)
                # boundary neighbor contributes 0 (Dirichlet)
            rows.append(me)
            cols.append(me)
            vals.append(diag)
    A = sp.csr_matrix((vals, (rows, cols)), shape=(m * m, m * m))
    u_int = spla.spsolve(A, rhs)
    u = np.zeros((n, n))
    u[1:-1, 1:-1] = u_int.reshape(m, m)
    return Raster(values=u, extent=(0.0, 1.0, 0.0, 1.0))


def darcy_discrete_residual(u: Raster, k_field: Raster) -> float:
    """Max abs defect of the discrete operator on the interior; solver check."""
    n = u.rows
    h = 1.0 / (n - 1)
    xs = np.linspace(0.0, 1.0, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    k_nodes = k_field.lookup_cell(np.column_stack([X.ravel(), Y.ravel()])).reshape(n, n)
    v = u.values

    def hmean(a, b):
        return 2.0 * a * b / (a + b)

    ke = hmean(k_nodes[1:-1, 1:-1], k_nodes[2:, 1:-1])
    kw = hmean(k_nodes[1:-1, 1:-1], k_nodes[:-2, 1:-1])
    kn = hmean(k_nodes[1:-1, 1:-1], k_nodes[1:-1, 2:])
    ks = hmean(k_nodes[1:-1, 1:-1], k_nodes[1:-1, :-2])
    lap = (
        ke * (v[2:, 1:-1] - v[1:-1, 1:-1])
        - kw * (v[1:-1, 1:-1] - v[:-2, 1:-1])
        + kn * (v[1:-1, 2:] - v[1:-1, 1:-1])
        - ks * (v[1:-1, 1:-1] - v[1:-1, :-2])
    ) / h**2
    return float(np.max(np.abs(lap - FORCING)))
