"""MZI rotator meshes: planar rotations in rectangular (Clements) arrangement.

A size-n mesh carries n(n-1)/2 programmable rotators.  Placements are listed
stage by stage: stage s couples waveguide pairs (i, i+1) with i = s mod 2,
s mod 2 + 2, ...  The realized matrix is

    U(phases) = S_{n-1} * ... * S_1 * S_0,

where S_s applies the stage's disjoint 2x2 rotations

    R(phi) = [[cos phi, sin phi], [-sin phi, cos phi]].

All rotations are real, so U is orthogonal for every phase setting.

Realization is batched by stage: `mesh_matrices` applies all rotations of one
stage, for every mesh of a batch, in one array update.  The rotations within
a stage act on disjoint row pairs, so each element sees exactly the
arithmetic of a rotator-by-rotator loop and the result is bit-identical to it.

The batch is the innermost axis while a batch is realized: the matrices are
held as one (n, n, B) array, so the rows a stage rotates are one contiguous
slab, viewed as (rotator, 2, n, B) pairs, and every elementwise op runs an
inner loop of B values (hundreds for a layer's blocks) instead of the n (8
for a dense block) of a (B, n, n) layout.  A stage is four in-place ops on
that slab: sin times both rows of each pair into one temporary allocated
once per batch, the slab times cos, then each row adds (u_i) or subtracts
(u_j) the other row's product.  Each element sees the two products and the
one sum of the rotator-by-rotator loop, up to the order of commuting
operands, which IEEE 754 rounds identically, and up to c - s*u written for
c + (-s)*u, which IEEE 754 defines as the same operation.
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


def mesh_matrices(phases: np.ndarray) -> np.ndarray:
    """(B, n(n-1)/2) phases -> (B, n, n) realized orthogonal matrices, C-contiguous."""
    phases = np.asarray(phases, dtype=float)
    n_rot = phases.shape[1]
    n = int(round((1.0 + np.sqrt(1.0 + 8.0 * n_rot)) / 2.0))
    if n * (n - 1) // 2 != n_rot:
        raise ValueError(f"{n_rot} phases do not fill a universal mesh")
    # the copy starts once the stage loop's tables and temporary are freed
    return np.ascontiguousarray(_batch_last_meshes(phases, n).transpose(2, 0, 1))


def _batch_last_meshes(phases: np.ndarray, n: int) -> np.ndarray:
    """The (n, n, B) meshes of (B, n(n-1)/2) phases, the batch innermost."""
    batch, n_rot = phases.shape
    cos = np.empty((n_rot, 1, 1, batch))  # broadcasts over (rotator, 2, n, batch) pairs
    sin = np.empty((n_rot, 1, 1, batch))
    np.cos(phases.T, out=cos[:, 0, 0])
    np.sin(phases.T, out=sin[:, 0, 0])
    u = np.zeros((n, n, batch))
    u.reshape(n * n, batch)[:: n + 1] = 1.0
    products = np.empty((n // 2, 2, n, batch))
    # per stage parity (first row i0): the stage's rows of u as (rotator, 2, n,
    # batch) pairs, their two halves, and the same views of the temporary
    views = []
    for i0 in (0, 1):
        count = (n - i0) // 2
        pairs = u[i0 : i0 + 2 * count].reshape(count, 2, n, batch)
        cross = products[:count]
        views.append((pairs, pairs[:, 0], pairs[:, 1], cross, cross[:, 0], cross[:, 1]))
    for i0, k0, count in _stages(n):
        pairs, u_i, u_j, cross, sin_u_i, sin_u_j = views[i0]
        np.multiply(sin[k0 : k0 + count], pairs, out=cross)
        pairs *= cos[k0 : k0 + count]
        u_i += sin_u_j  # u_i <- cos*u_i + sin*u_j
        u_j -= sin_u_i  # u_j <- cos*u_j - sin*u_i
    return u


@dataclass
class MziMesh:
    """size-n rotator mesh; `phases[k]` drives `clements_placements(size)[k]`."""

    size: int
    phases: np.ndarray

    def __post_init__(self):
        want = self.size * (self.size - 1) // 2
        self.phases = np.asarray(self.phases, dtype=float)
        if self.phases.shape != (want,):
            raise ValueError(f"expected {want} phases, got {self.phases.shape}")

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
        return mesh_matrices(phases[None])[0]
