"""Tensor-train parameterization of weight matrices.

A matrix W of shape (M, N) with M = prod(out_factors) and N = prod(in_factors)
is folded into a 2L-way tensor and stored as L cores, core k of shape
(r[k-1], out_factors[k], in_factors[k], r[k]) with r[0] = r[L] = 1.  Under the
row-major multi-index bijection (last factor fastest) the matrix entry is the
chain product of core slices:

    W[i, j] = G_1(i_1, j_1) @ G_2(i_2, j_2) @ ... @ G_L(i_L, j_L).

`tt_reconstruct` builds the dense matrix by chaining the cores; `tt_forward`
multiplies an input batch by it.  Reconstruction costs O(M N) and does not
depend on the batch, so one GEMM per layer is cheaper than contracting the
batch against each core in turn.  The compression (parameter and device
counts) lives in the cores, not in the order of the CPU contraction.

A network reconstructs a TT layer when it realizes the layer, once per new
parameter state and not once per forward (`nets.Mlp`): from the stored cores
in the weight domain, from the cores its phases realize in the phase domain.
A ZO step's probe states and directions are reconstructed once per step,
before its pass over the rows.  The network then passes each matrix to
`tt_forward` once per row block of `nets.BLOCK_ROWS` rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TTLayout",
    "TTCores",
    "tt_param_count",
    "tt_reconstruct",
    "tt_forward",
    "tt_init",
]

RECONSTRUCT_CAP = 2**24  # max M*N entries tt_reconstruct will materialize


@dataclass(frozen=True)
class TTLayout:
    """Factorization plan: out_factors multiply to M (rows), in_factors to N (cols)."""

    in_factors: tuple[int, ...]
    out_factors: tuple[int, ...]
    ranks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "in_factors", tuple(int(v) for v in self.in_factors))
        object.__setattr__(self, "out_factors", tuple(int(v) for v in self.out_factors))
        object.__setattr__(self, "ranks", tuple(int(v) for v in self.ranks))
        L = len(self.in_factors)
        if L == 0 or len(self.out_factors) != L:
            raise ValueError("in_factors and out_factors must have equal nonzero length")
        if len(self.ranks) != L + 1:
            raise ValueError("ranks must have one more entry than the factor lists")
        if self.ranks[0] != 1 or self.ranks[-1] != 1:
            raise ValueError("boundary ranks must be 1")
        if any(v < 1 for v in self.in_factors + self.out_factors + self.ranks):
            raise ValueError("factors and ranks must be >= 1")

    @property
    def L(self) -> int:
        return len(self.in_factors)

    @property
    def rows(self) -> int:
        return math.prod(self.out_factors)

    @property
    def cols(self) -> int:
        return math.prod(self.in_factors)

    def core_shape(self, k: int) -> tuple[int, int, int, int]:
        return (self.ranks[k], self.out_factors[k], self.in_factors[k], self.ranks[k + 1])


def tt_param_count(layout: TTLayout) -> int:
    """Number of stored core entries: sum_k r[k-1] * m_k * n_k * r[k]."""
    return sum(math.prod(layout.core_shape(k)) for k in range(layout.L))


@dataclass
class TTCores:
    """Layout plus the dense 4-way core arrays."""

    layout: TTLayout
    cores: list[np.ndarray]

    def __post_init__(self):
        if len(self.cores) != self.layout.L:
            raise ValueError("wrong number of cores for layout")
        for k, core in enumerate(self.cores):
            want = self.layout.core_shape(k)
            if core.shape != want:
                raise ValueError(f"core {k} has shape {core.shape}, expected {want}")
            if not np.all(np.isfinite(core)):
                raise ValueError(f"core {k} contains non-finite entries")


def tt_reconstruct(cores: TTCores, cap: int = RECONSTRUCT_CAP) -> np.ndarray:
    """Materialize the dense (M, N) matrix represented by the cores."""
    lay = cores.layout
    if lay.rows * lay.cols > cap:
        raise ValueError(f"refusing to materialize {lay.rows}x{lay.cols} matrix (cap {cap})")
    # running tensor axes: (m_1..m_k, n_1..n_k, r_k)
    t = cores.cores[0][0]  # (m_1, n_1, r_1)
    for k in range(1, lay.L):
        t = np.tensordot(t, cores.cores[k], axes=(-1, 0))  # (..., m_k, n_k, r_k)
    t = t[..., 0]  # r_L == 1
    L = lay.L
    # axes currently ordered m_1, n_1, m_2, n_2, ...; bring all m first then all n
    perm = list(range(0, 2 * L, 2)) + list(range(1, 2 * L, 2))
    t = np.transpose(t, perm)
    return t.reshape(lay.rows, lay.cols)


def tt_forward(
    cores: TTCores, x: np.ndarray, out: np.ndarray | None = None, matrix: np.ndarray | None = None
) -> np.ndarray:
    """Compute W @ x (or batched x of shape (B, N) -> (B, M)) through the reconstructed W.

    `matrix` is `tt_reconstruct(cores)` when the caller already holds it;
    the product goes into `out` when given.
    """
    x = np.asarray(x)
    if x.shape[-1] != cores.layout.cols:
        raise ValueError(f"input length {x.shape[-1]} != layout cols {cores.layout.cols}")
    if matrix is None:
        matrix = tt_reconstruct(cores)
    return np.matmul(x, matrix.T, out=out)


def tt_init(layout: TTLayout, seed: int) -> TTCores:
    """Random cores whose reconstruction has entry variance ~ 2 / (M + N).

    The chain product multiplies per-core variances and picks up one factor of
    r_k per interior contraction, so each core uses
    std = (2/(M+N) / prod(ranks))**(1/(2L)).
    """
    rank_prod = math.prod(layout.ranks)
    target = 2.0 / (layout.rows + layout.cols)
    std = (target / rank_prod) ** (1.0 / (2 * layout.L))
    rng = np.random.default_rng(seed)
    cores = [std * rng.standard_normal(layout.core_shape(k)) for k in range(layout.L)]
    return TTCores(layout=layout, cores=cores)
