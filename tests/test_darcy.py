"""Darcy reference: the sparse direct solve against its discrete operator and its symmetry."""

import numpy as np
import pytest

from photopinn.pde.darcy import darcy_discrete_residual, darcy_fd_solve
from photopinn.pde.raster import Raster

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
