"""MZI rotator meshes: planar rotations in rectangular (Clements) arrangement.

A size-n mesh carries n(n-1)/2 programmable rotators.  Placements are listed
stage by stage: stage s couples waveguide pairs (i, i+1) with i = s mod 2,
s mod 2 + 2, ...  The realized matrix is

    U(phases) = diag(D) * S_{n-1} * ... * S_1 * S_0,

where S_s applies the stage's disjoint 2x2 rotations

    R(phi) = [[cos phi, sin phi], [-sin phi, cos phi]].

All rotations are real, so U is orthogonal for every phase setting.

Realization is batched by stage: `mesh_matrices` applies all rotations of one
stage, for every mesh of a batch, in one array update.  The rotations within
a stage act on disjoint row pairs, so each element sees exactly the
arithmetic of a rotator-by-rotator loop and the result is bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["mzi_rotation", "MziMesh", "clements_placements", "mesh_matrices", "stage_neighbors"]


def mzi_rotation(phi: float) -> np.ndarray:
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, s], [-s, c]])


def clements_placements(n: int) -> list[tuple[int, int, int]]:
    """(i, j, stage) triples in rectangular order; exactly n(n-1)/2 of them."""
    out = []
    for stage in range(n):
        i = stage % 2
        while i + 1 < n:
            out.append((i, i + 1, stage))
            i += 2
    # n stages of alternating parity hold exactly n(n-1)/2 couplings
    return out


@lru_cache(maxsize=None)
def _stages(n: int) -> tuple[tuple[int, int, int], ...]:
    """Per non-empty stage: (first row i, first rotator index, rotator count).

    A stage's rotators are contiguous in placement order and couple rows
    (i, i+1), (i+2, i+3), ...
    """
    out = {}
    for k, (i, _, stage) in enumerate(clements_placements(n)):
        i0, k0, count = out.get(stage, (i, k, 0))
        out[stage] = (i0, k0, count + 1)
    return tuple(out.values())


def stage_neighbors(n: int) -> np.ndarray:
    """(E, 2) rotator index pairs (k, k+1) that sit next to each other in one stage."""
    pairs = [(k, k + 1) for _, k0, count in _stages(n) for k in range(k0, k0 + count - 1)]
    return np.asarray(pairs, dtype=np.intp).reshape(-1, 2)


def mesh_matrices(phases: np.ndarray, diagonal: np.ndarray | None = None) -> np.ndarray:
    """(B, n(n-1)/2) phases -> (B, n, n) realized orthogonal matrices.

    `diagonal`, broadcastable to (B, n), is the output sign/phase screen;
    None means +1 on every row.
    """
    phases = np.asarray(phases, dtype=float)
    batch, n_rot = phases.shape
    n = int(round((1.0 + np.sqrt(1.0 + 8.0 * n_rot)) / 2.0))
    if n * (n - 1) // 2 != n_rot:
        raise ValueError(f"{n_rot} phases do not fill a universal mesh")
    c = np.cos(phases)[:, :, None]
    s = np.sin(phases)[:, :, None]
    u = np.broadcast_to(np.eye(n), (batch, n, n)).copy()
    for i0, k0, count in _stages(n):
        rows_i = slice(i0, i0 + 2 * count, 2)
        rows_j = slice(i0 + 1, i0 + 1 + 2 * count, 2)
        ck = c[:, k0 : k0 + count]
        sk = s[:, k0 : k0 + count]
        ui = u[:, rows_i]
        uj = u[:, rows_j]
        # left-multiply by the stage's rotations acting on rows (i, i+1)
        ri = ck * ui + sk * uj
        rj = -sk * ui + ck * uj
        u[:, rows_i] = ri
        u[:, rows_j] = rj
    if diagonal is not None:
        u = np.asarray(diagonal, dtype=float)[..., :, None] * u
    return u


@dataclass
class MziMesh:
    """size-n rotator mesh; `phases[k]` drives `clements_placements(size)[k]`."""

    size: int
    phases: np.ndarray
    diagonal: np.ndarray | None = None  # sign/phase screen, defaults to +1

    def __post_init__(self):
        want = self.size * (self.size - 1) // 2
        self.phases = np.asarray(self.phases, dtype=float)
        if self.phases.shape != (want,):
            raise ValueError(f"expected {want} phases, got {self.phases.shape}")
        if self.diagonal is None:
            self.diagonal = np.ones(self.size)

    @classmethod
    def random(cls, size: int, rng: np.random.Generator) -> "MziMesh":
        n_rot = size * (size - 1) // 2
        return cls(size=size, phases=rng.uniform(0.0, 2.0 * np.pi, size=n_rot))

    @property
    def n_rotators(self) -> int:
        return len(self.phases)

    def matrix(self, phases: np.ndarray | None = None) -> np.ndarray:
        """Realized orthogonal matrix for the given (or stored) phases."""
        phases = self.phases if phases is None else np.asarray(phases, dtype=float)
        if phases.shape != self.phases.shape:
            raise ValueError(f"expected {self.phases.shape} phases, got {phases.shape}")
        return mesh_matrices(phases[None], self.diagonal)[0]
