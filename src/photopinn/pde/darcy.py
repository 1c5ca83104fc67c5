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

`problem()` is the benchmark's descriptor, and `reference_grid` its
hold-out reference, the solve, which `oracle build` writes once.
"""

from __future__ import annotations

import importlib.resources
from functools import partial

import numpy as np

from .problems import PinnProblem, grid_points
from .raster import Raster, load_raster

GRID_N = 241
FORCING = 1.0

__all__ = [
    "GRID_N", "FORCING", "default_permeability", "darcy_transform", "darcy_fd_solve",
    "residual", "problem", "reference_grid",
]


def default_permeability() -> Raster:
    """The raster shipped with the package (values in {3, 12} on 241 x 241 cells)."""
    ref = importlib.resources.files("photopinn") / "data" / "darcy_k_default.txt"
    with importlib.resources.as_file(ref) as path:
        return load_raster(path)


def darcy_transform(net):
    """Hard zero boundary: u = x1(1-x1) x2(1-x2) * f(x)."""

    def solution(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return X[:, 0] * (1.0 - X[:, 0]) * X[:, 1] * (1.0 - X[:, 1]) * np.asarray(net(X), dtype=float)

    return solution


def _face_permeabilities(k_field: Raster, n: int) -> list[np.ndarray]:
    """Per interior node of the n x n grid, the harmonic mean of its cell value
    and each neighbor's, neighbors in the order +x1, -x1, +x2, -x2: four (n-2, n-2) arrays."""
    xs = np.linspace(0.0, 1.0, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    k = k_field.lookup_cell(np.column_stack([X.ravel(), Y.ravel()])).reshape(n, n)
    mid = k[1:-1, 1:-1]
    return [2.0 * mid * nb / (mid + nb) for nb in (k[2:, 1:-1], k[:-2, 1:-1], k[1:-1, 2:], k[1:-1, :-2])]


def darcy_fd_solve(k_field: Raster, n: int = GRID_N) -> Raster:
    """Direct sparse solve of div(k grad u) = FORCING with u = 0 on the boundary.

    Five-point flux discretization on an n x n node grid over [0, 1]^2;
    face permeabilities are harmonic means of the cell values at the
    neighboring nodes, the standard choice for discontinuous coefficients.
    Each interior node's row holds its interior neighbors in face order,
    then the diagonal; a boundary neighbor contributes 0 (Dirichlet).
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    h = 1.0 / (n - 1)
    m = n - 2  # interior nodes per axis
    idx = -np.ones((n, n), dtype=int)
    idx[1:-1, 1:-1] = np.arange(m * m).reshape(m, m)
    cols = np.stack([idx[2:, 1:-1], idx[:-2, 1:-1], idx[1:-1, 2:], idx[1:-1, :-2], idx[1:-1, 1:-1]], axis=-1)
    c = [kf / h**2 for kf in _face_permeabilities(k_field, n)]
    vals = np.stack([*c, 0.0 - c[0] - c[1] - c[2] - c[3]], axis=-1)
    keep = cols >= 0
    rows = np.broadcast_to(idx[1:-1, 1:-1, None], cols.shape)
    A = sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(m * m, m * m))
    u_int = spla.spsolve(A, np.full(m * m, FORCING))
    u = np.zeros((n, n))
    u[1:-1, 1:-1] = u_int.reshape(m, m)
    return Raster(values=u, extent=(0.0, 1.0, 0.0, 1.0))


def darcy_discrete_residual(u: Raster, k_field: Raster) -> float:
    """Max abs defect of the discrete operator on the interior; solver check."""
    n = u.rows
    h = 1.0 / (n - 1)
    v = u.values
    ke, kw, kn, ks = _face_permeabilities(k_field, n)
    lap = (
        ke * (v[2:, 1:-1] - v[1:-1, 1:-1])
        - kw * (v[1:-1, 1:-1] - v[:-2, 1:-1])
        + kn * (v[1:-1, 2:] - v[1:-1, 1:-1])
        - ks * (v[1:-1, 1:-1] - v[1:-1, :-2])
    ) / h**2
    return float(np.max(np.abs(lap - FORCING)))


def residual(bundle, X, k_field: Raster):
    """k(x) lap u - FORCING at the centers X, for the permeability raster `k_field`."""
    k = k_field.lookup_cell(X)
    lap = bundle["second"][..., 0] + bundle["second"][..., 1]
    return k * lap - FORCING


def problem() -> PinnProblem:
    """The descriptor at its defaults, which `problems.get_problem` overrides."""
    axis = np.linspace(0.0, 1.0, GRID_N)
    return PinnProblem(
        name="darcy",
        lo=np.zeros(2),
        hi=np.ones(2),
        residual=partial(residual, k_field=default_permeability()),
        residual_points=GRID_N * GRID_N,
        holdout_points=lambda: grid_points(axis, axis),
        fixed_grid=True,
        transform=darcy_transform,
    )


def reference_grid(verbose: bool):
    """Sparse direct elliptic solve on the 241 x 241 grid: the raster and its metadata."""
    field = default_permeability()
    u = darcy_fd_solve(field)
    defect = darcy_discrete_residual(u, field)
    if defect > 1e-8:
        raise RuntimeError(f"darcy solve did not converge: discrete residual {defect:.3e}")
    return u, {"method": "fd-harmonic-5pt", "defect": f"{defect:.3e}"}
