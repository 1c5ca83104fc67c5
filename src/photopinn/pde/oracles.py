"""Reference-grid generation for the problems without closed-form solutions."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import burgers as bg
from . import darcy as dc
from .raster import Raster, save_raster

__all__ = ["ORACLES", "oracle_build", "oracle_path"]


def _burgers_reference(verbose: bool):
    """Cole-Hopf quadrature on the 256 x 101 hold-out grid."""
    xs, ts = bg.holdout_axes()
    values = np.empty((len(xs), len(ts)))
    for j, t in enumerate(ts):
        values[:, j] = bg.burgers_exact(xs, t)
        if verbose and j % 20 == 0:
            print(f"burgers oracle: t={t:.2f}")
    raster = Raster(values=values, extent=(xs[0], xs[-1], ts[0], ts[-1]))
    return raster, {"nu": bg.NU, "method": "cole-hopf-quadrature"}


def _darcy_reference(verbose: bool):
    """Sparse direct elliptic solve on the 241 x 241 grid."""
    field = dc.default_permeability()
    u = dc.darcy_fd_solve(field)
    defect = dc.darcy_discrete_residual(u, field)
    if defect > 1e-8:
        raise RuntimeError(f"darcy solve did not converge: discrete residual {defect:.3e}")
    return u, {"method": "fd-harmonic-5pt", "defect": f"{defect:.3e}"}


# the problems with a gridded reference, and how to compute it
ORACLES = {"burgers": _burgers_reference, "darcy": _darcy_reference}


def oracle_path(oracle_dir, name: str) -> Path:
    """Where `oracle_build` writes the gridded reference of problem `name`."""
    return Path(oracle_dir) / f"{name}_reference.txt"


def oracle_build(name: str, oracle_dir, verbose: bool = False) -> Path:
    """Compute and cache the gridded reference of a problem in `ORACLES`."""
    if name not in ORACLES:
        raise KeyError(f"no oracle for problem {name!r}")
    Path(oracle_dir).mkdir(parents=True, exist_ok=True)
    raster, meta = ORACLES[name](verbose)
    path = oracle_path(oracle_dir, name)
    save_raster(raster=raster, path=path, meta=meta)
    return path
