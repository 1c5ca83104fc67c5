"""SVD-parameterized matrix blocks: W = U * Sigma * V^T in phases.

U and V are square rotator meshes (sizes m and n for an m x n block);
Sigma is a bank of min(m, n) attenuator phases realizing singular values
s * cos(phi) within [-s, s], where s is a fixed per-block scale chosen at
construction.  Rectangular blocks truncate or zero-pad between the two mesh
sizes.  A block's phase vector is the concatenation (U phases, Sigma phases,
V phases); this module alone knows those offsets.  Every phase drives one
device, so an m x n block has `block_phase_count(m, n)` MZIs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import MziMesh, mesh_matrices, stage_neighbors

__all__ = ["SvdBlock", "svd_matrices", "block_phase_count", "block_neighbors"]


def block_phase_count(m: int, n: int) -> int:
    """Phases of one m x n block: both meshes plus min(m, n) attenuators."""
    return m * (m - 1) // 2 + min(m, n) + n * (n - 1) // 2


def block_neighbors(m: int, n: int) -> np.ndarray:
    """Stage-adjacent rotator pairs of one m x n block, as indices into its phases."""
    v_offset = m * (m - 1) // 2 + min(m, n)
    return np.concatenate([stage_neighbors(m), stage_neighbors(n) + v_offset])


def svd_matrices(phases: np.ndarray, m: int, n: int, scale) -> np.ndarray:
    """(B, block_phase_count(m, n)) block phases -> (B, m, n) realized blocks.

    `scale` is the singular-value scale s, one per block or shared.  Square
    blocks realize their U and V meshes in one `mesh_matrices` batch of 2B.
    """
    nu = m * (m - 1) // 2
    k = min(m, n)
    if m == n:  # both meshes of every block in one batch
        u, v = np.split(mesh_matrices(np.concatenate([phases[:, :nu], phases[:, nu + k :]])), 2)
    else:
        u, v = mesh_matrices(phases[:, :nu]), mesh_matrices(phases[:, nu + k :])
    d = np.asarray(scale, dtype=float)[..., None] * np.cos(phases[:, nu : nu + k])
    # U @ Sigma with Sigma's zero padding kept, so the product sums the same terms
    us = u[:, :, :k] * d[:, None, :]
    if k < n:
        us = np.concatenate([us, np.zeros((len(u), m, n - k))], axis=2)
    return us @ v


@dataclass
class SvdBlock:
    u_mesh: MziMesh
    sigma_phases: np.ndarray  # min(m, n) attenuator phases
    v_mesh: MziMesh
    scale: float = 1.0

    def __post_init__(self):
        self.sigma_phases = np.asarray(self.sigma_phases, dtype=float)
        want = min(self.u_mesh.size, self.v_mesh.size)
        if self.sigma_phases.shape != (want,):
            raise ValueError(f"expected {want} sigma phases")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.u_mesh.size, self.v_mesh.size)

    @classmethod
    def random(cls, m: int, n: int, scale: float, rng: np.random.Generator) -> "SvdBlock":
        return cls(
            u_mesh=MziMesh.random(m, rng),
            sigma_phases=rng.uniform(0.0, 2.0 * np.pi, size=min(m, n)),
            v_mesh=MziMesh.random(n, rng),
            scale=scale,
        )

    def n_phases(self) -> int:
        return block_phase_count(*self.shape)

    def matrix(self, phases: np.ndarray | None = None) -> np.ndarray:
        """Realized m x n matrix; `phases` optionally overrides the stored ones
        as the concatenation (U phases, sigma phases, V phases)."""
        if phases is None:
            phases = np.concatenate([self.u_mesh.phases, self.sigma_phases, self.v_mesh.phases])
        phases = np.asarray(phases, dtype=float)
        if phases.shape != (self.n_phases(),):
            raise ValueError(f"expected {self.n_phases()} phases, got {phases.shape}")
        m, n = self.shape
        return svd_matrices(phases[None], m, n, self.scale)[0]
