"""Plain-text raster files for permeability fields and cached reference grids.

Format: '#'-prefixed header lines (rows, cols, extent, optional checksum),
then rows*cols values row-major, whitespace separated.  Row index walks the
first coordinate of the extent, column index the second.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = ["Raster", "save_raster", "load_raster"]


@dataclass(frozen=True)
class Raster:
    values: np.ndarray  # (rows, cols)
    extent: tuple[float, float, float, float]  # (x0, x1, y0, y1)

    def __post_init__(self):
        object.__setattr__(self, "values", np.ascontiguousarray(self.values, dtype=float))
        if self.values.ndim != 2:
            raise ValueError("raster values must be 2-D")

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    def interp(self, points: np.ndarray) -> np.ndarray:
        """Bilinear interpolation at (P, 2) points, clamped to the extent."""
        x0, x1, y0, y1 = self.extent
        pts = np.atleast_2d(points)
        fx = np.clip((pts[:, 0] - x0) / (x1 - x0), 0.0, 1.0) * (self.rows - 1)
        fy = np.clip((pts[:, 1] - y0) / (y1 - y0), 0.0, 1.0) * (self.cols - 1)
        i0 = np.minimum(fx.astype(int), self.rows - 2)
        j0 = np.minimum(fy.astype(int), self.cols - 2)
        tx = fx - i0
        ty = fy - j0
        v = self.values
        return (
            v[i0, j0] * (1 - tx) * (1 - ty)
            + v[i0 + 1, j0] * tx * (1 - ty)
            + v[i0, j0 + 1] * (1 - tx) * ty
            + v[i0 + 1, j0 + 1] * tx * ty
        )

    def lookup_cell(self, points: np.ndarray) -> np.ndarray:
        """Piecewise-constant lookup: value of the cell containing each point."""
        x0, x1, y0, y1 = self.extent
        pts = np.atleast_2d(points)
        i = np.clip(((pts[:, 0] - x0) / (x1 - x0) * self.rows).astype(int), 0, self.rows - 1)
        j = np.clip(((pts[:, 1] - y0) / (y1 - y0) * self.cols).astype(int), 0, self.cols - 1)
        return self.values[i, j]


def _checksum(values: np.ndarray) -> str:
    return hashlib.md5(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


def save_raster(path, raster: Raster, meta: dict | None = None) -> None:
    with open(path, "w") as fh:
        fh.write(f"# rows {raster.rows}\n# cols {raster.cols}\n")
        fh.write("# extent " + " ".join(f"{v:.17g}" for v in raster.extent) + "\n")
        for key, val in (meta or {}).items():
            fh.write(f"# {key} {val}\n")
        fh.write(f"# checksum {_checksum(raster.values)}\n")
        for row in raster.values:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_raster(path) -> Raster:
    header: dict[str, str] = {}
    data = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split(None, 1)
                if len(parts) == 2:
                    header[parts[0]] = parts[1]
                continue
            data.append([float(v) for v in line.split()])
    values = np.array(data)
    rows = int(header.get("rows", values.shape[0]))
    cols = int(header.get("cols", values.shape[1]))
    if values.shape != (rows, cols):
        raise ValueError(f"raster body {values.shape} does not match header ({rows}, {cols})")
    extent = tuple(float(v) for v in header.get("extent", "0 1 0 1").split())
    raster = Raster(values=values, extent=extent)
    if "checksum" in header and header["checksum"] != _checksum(raster.values):
        raise ValueError(f"raster checksum mismatch in {path}")
    return raster
