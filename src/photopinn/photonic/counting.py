"""MZI device counting.

Square N x N SVD realizations need N(N-1)/2 + N + N(N-1)/2 = N^2 devices, a
count independent of any k x k blocking (ceil(M/k) ceil(N/k) blocks of k^2).
Rectangular a x b core meshes are counted as their SVD realization: square
a- and b-meshes plus min(a, b) attenuators, one device per phase
(`svd.block_phase_count`).

For tensorized layers, core k has an (r_k-1 m_k) x (n_k r_k) mesh applied to
a contraction batch of prod(n_j, j<k) * prod(m_j, j>k) independent slices; a
space-multiplexed engine with `wavelengths` WDM channels replicates the mesh
h_k = ceil(batch / wavelengths) times.  With 8 wavelengths this reproduces the
published 384 devices for the 128x128 tensorized hidden layer (three 8x8
meshes, h = 2 each).  The published whole-model counts (1,685 / 2,057 / 2,516)
mix in the dense input/output layers under an unstated convention and are
treated as calibration targets only.
"""

from __future__ import annotations

import math

from ..tensortrain import TTLayout
from .model import DENSE_BLOCK_SIZE
from .svd import block_phase_count

__all__ = [
    "dense_mzi_count",
    "tt_mzi_count",
    "tt_replication",
    "model_mzi_counts",
]


def dense_mzi_count(rows: int, cols: int, block: int) -> int:
    """Blocked dense layer: ceil(M/k) * ceil(N/k) blocks of k^2 devices."""
    p = -(-rows // block)
    q = -(-cols // block)
    return p * q * block * block


def tt_replication(layout: TTLayout, wavelengths: int = 8) -> list[int]:
    """Space-multiplex replication h_k = ceil(contraction batch / wavelengths)."""
    out = []
    for k in range(layout.L):
        batch = math.prod(layout.in_factors[:k]) * math.prod(layout.out_factors[k + 1 :])
        out.append(max(1, -(-batch // wavelengths)))
    return out


def tt_mzi_count(layout: TTLayout, wavelengths: int | None = None) -> int:
    """Sum over cores of h_k devices for the (r_k-1 m_k) x (n_k r_k) SVD block.

    `wavelengths` derives h_k from the space-multiplexing rule; by default
    each core has one mesh.
    """
    replication = tt_replication(layout, wavelengths) if wavelengths is not None else [1] * layout.L
    total = 0
    for k, h in enumerate(replication):
        r0, m, n, r1 = layout.core_shape(k)
        total += h * block_phase_count(r0 * m, n * r1)
    return total


def model_mzi_counts(layers) -> list[tuple[str, int]]:
    """Per-layer (name, count) for an architecture's layer list.

    A dense (n_in, n_out) layer is a grid of DENSE_BLOCK_SIZE blocks; a
    TTLayout gets one mesh per core.
    """
    out = []
    for li, layer in enumerate(layers):
        if isinstance(layer, TTLayout):
            count = tt_mzi_count(layer)
        else:
            n_in, n_out = layer
            count = dense_mzi_count(n_out, n_in, DENSE_BLOCK_SIZE)
        out.append((f"layer{li}", count))
    return out
