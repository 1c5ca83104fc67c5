"""Reference-grid generation for the problems without closed-form solutions."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import burgers as bg
from . import darcy as dc
from .raster import Raster, save_raster

__all__ = ["oracle_build"]


def oracle_build(name: str, oracle_dir, verbose: bool = False) -> Path:
    """Compute and cache the gridded reference for 'burgers' or 'darcy'.

    Burgers: Cole-Hopf quadrature on the 256 x 101 hold-out grid.
    Darcy:   sparse direct elliptic solve on the 241 x 241 grid.
    """
    oracle_dir = Path(oracle_dir)
    oracle_dir.mkdir(parents=True, exist_ok=True)
    if name == "burgers":
        xs, ts = bg.holdout_axes()
        values = np.empty((len(xs), len(ts)))
        for j, t in enumerate(ts):
            values[:, j] = bg.burgers_exact(xs, t)
            if verbose and j % 20 == 0:
                print(f"burgers oracle: t={t:.2f}")
        raster = Raster(values=values, extent=(xs[0], xs[-1], ts[0], ts[-1]))
        path = oracle_dir / "burgers_reference.txt"
        save_raster(raster=raster, path=path, meta={"nu": bg.NU, "method": "cole-hopf-quadrature"})
        return path
    if name == "darcy":
        field = dc.default_permeability()
        u = dc.darcy_fd_solve(field)
        defect = dc.darcy_discrete_residual(u, field)
        if defect > 1e-8:
            raise RuntimeError(f"darcy solve did not converge: discrete residual {defect:.3e}")
        path = oracle_dir / "darcy_reference.txt"
        save_raster(raster=u, path=path, meta={"method": "fd-harmonic-5pt", "defect": f"{defect:.3e}"})
        return path
    raise KeyError(f"no oracle for problem {name!r}")
