"""Darcy reference: the sparse direct solve against its discrete operator and its
symmetry, and the oracle file that carries it to the problem's hold-out metric."""

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
