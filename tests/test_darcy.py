"""Darcy reference: the sparse direct solve against its discrete operator, its
symmetry and a node-by-node assembly of the same matrix, and the oracle file
that carries it to the problem's hold-out metric."""

import numpy as np
import pytest

from photopinn.pde import get_problem, oracle_build
from photopinn.pde.darcy import darcy_discrete_residual, darcy_fd_solve, default_permeability
from photopinn.pde.raster import Raster, load_raster

N = 17


def two_valued_field(values: np.ndarray) -> Raster:
    """k = 12 where `values` is set, else 3, on N x N cells: node i falls in cell i."""
    return Raster(values=np.where(values, 12.0, 3.0), extent=(0.0, 1.0, 0.0, 1.0))


def block(rows: slice, cols: slice) -> np.ndarray:
    mask = np.zeros((N, N), dtype=bool)
    mask[rows, cols] = True
    return mask


MIRRORS = {
    "flip-x1": (block(slice(4, 13), slice(2, 9)), lambda a: a[::-1, :]),
    "transpose": (block(slice(3, 9), slice(3, 9)) | block(slice(10, 14), slice(10, 14)), lambda a: a.T),
}


@pytest.mark.parametrize("name", MIRRORS)
def test_darcy_fd_solve_satisfies_its_stencil_and_the_field_symmetry(name):
    mask, mirror = MIRRORS[name]
    assert np.array_equal(mirror(mask), mask)
    k = two_valued_field(mask)
    u = darcy_fd_solve(k, n=N)
    v = u.values
    assert v.shape == (N, N) and u.extent == (0.0, 1.0, 0.0, 1.0)
    assert darcy_discrete_residual(u, k) < 1e-10
    assert not v[[0, -1], :].any() and not v[:, [0, -1]].any()
    # div(k grad u) = 1 > 0, so u is negative inside the zero boundary
    assert np.all(v[1:-1, 1:-1] < 0.0)
    assert np.max(np.abs(mirror(v) - v)) < 1e-12 * np.max(np.abs(v))


def loop_fd_solve(k_field: Raster, n: int) -> Raster:
    """The solve assembled node by node, entry by entry: the reference for the
    array assembly of `darcy_fd_solve`, which must build the same matrix."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    h = 1.0 / (n - 1)
    xs = np.linspace(0.0, 1.0, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    k_nodes = k_field.lookup_cell(np.column_stack([X.ravel(), Y.ravel()])).reshape(n, n)
    m = n - 2
    idx = -np.ones((n, n), dtype=int)
    idx[1:-1, 1:-1] = np.arange(m * m).reshape(m, m)
    rows, cols, vals = [], [], []
    for i in range(1, n - 1):
        for j in range(1, n - 1):
            diag = 0.0
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                a, b = k_nodes[i, j], k_nodes[i + di, j + dj]
                kf = 2.0 * a * b / (a + b)
                diag -= kf / h**2
                if idx[i + di, j + dj] >= 0:
                    rows.append(idx[i, j])
                    cols.append(idx[i + di, j + dj])
                    vals.append(kf / h**2)
            rows.append(idx[i, j])
            cols.append(idx[i, j])
            vals.append(diag)
    A = sp.csr_matrix((vals, (rows, cols)), shape=(m * m, m * m))
    u = np.zeros((n, n))
    u[1:-1, 1:-1] = spla.spsolve(A, np.full(m * m, 1.0)).reshape(m, m)
    return Raster(values=u, extent=(0.0, 1.0, 0.0, 1.0))


@pytest.mark.parametrize("name", ["random", "shipped"])
def test_darcy_fd_solve_equals_the_node_by_node_assembly_bit_for_bit(name):
    """On a field of random cell values every sum rounds, so the order of the terms shows."""
    if name == "shipped":
        k = default_permeability()
    else:
        k = Raster(values=np.random.default_rng(3).uniform(1.0, 20.0, (N, N)), extent=(0.0, 1.0, 0.0, 1.0))
    got, want = darcy_fd_solve(k, n=k.rows), loop_fd_solve(k, k.rows)
    assert np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64))


def test_the_darcy_oracle_file_is_the_solve_and_the_problem_reads_it(tmp_path):
    """The gridded-reference path: `oracle_build` writes the solve bit for bit,
    and `get_problem` given the directory interpolates it back at the nodes."""
    solve = darcy_fd_solve(default_permeability())
    path = oracle_build("darcy", tmp_path)
    assert path == tmp_path / "darcy_reference.txt"
    stored = load_raster(path)
    assert stored.extent == solve.extent
    assert np.array_equal(stored.values.view(np.uint64), solve.values.view(np.uint64))
    problem = get_problem("darcy", oracle_dir=tmp_path)
    nodes = problem.holdout_points()
    scale = np.max(np.abs(solve.values))
    assert np.max(np.abs(problem.reference(nodes) - solve.values.ravel())) <= 1e-12 * scale
