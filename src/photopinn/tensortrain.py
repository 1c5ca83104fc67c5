"""Tensor-train parameterization of weight matrices.

A matrix W of shape (M, N) with M = prod(out_factors) and N = prod(in_factors)
is folded into a 2L-way tensor and stored as L cores, core k of shape
(r[k-1], out_factors[k], in_factors[k], r[k]) with r[0] = r[L] = 1.  Under the
row-major multi-index bijection (last factor fastest) the matrix entry is the
chain product of core slices:

    W[i, j] = G_1(i_1, j_1) @ G_2(i_2, j_2) @ ... @ G_L(i_L, j_L).

`tt_reconstruct` builds the dense matrix by chaining the cores; tests use
it as the dense reference, products do not.  `tt_forward` multiplies a batch
through the head-core split of Novikov et al. (Tensorizing Neural Networks,
2015): with head core G_1 of shape (1, m, n, r),

    W = sum_r G_1[0, :, :, r] (x) S_r,

where the tail S, cores 2..L chained with their leading rank kept, is an
(r M/m, N/n) matrix.  A product of B rows is then one GEMM with inner size
N/n, T = x.reshape(B n, N/n) @ S^T, and one batched product of the head
A = G_1 as an (m, n r) matrix with T as B (n r, M/m) matrices, written
straight into the (B, M) output viewed as (B, m, M/m); nothing is
transposed.  Against the dense GEMM it costs r/m + n r/N of the flops, and
`tt_split` builds A and S, r M N/(m n) entries, never the M x N matrix.

Time per 256-row block against the dense GEMM, median of 7, on one core of
a 2-core x86-64 guest (OpenBLAS 0.3.31, one thread), with the flop ratio:

    layer                           split     dense    flops
    Black-Scholes 128 x 128, r = 2    47 us     99 us    0.31
                             r = 4    77 us    101 us    0.63
                             r = 8   143 us    102 us    1.25
    Burgers 100 x 100, r = 2          52 us     67 us    0.48
    HJB 21 -> 512, r = 2              62 us     81 us    0.35
    HJB 512 x 512, r = 2             479 us   1428 us    0.27
    HJB 21 -> 128, r = 2              36 us     21 us    1.10

The split loses once r >= m: Black-Scholes at r = 8 = m, and the HJB input
fold at model.width = 128, whose m = 2 = r.  No benchmark workload runs
either.  It rounds in another order than the dense product: over the
test layouts and the production folds at ranks 1 to 8 its outputs stay
within 2e-15 of the largest one (tests/test_tensortrain.py bounds 1e-14).

A network splits a TT layer when it realizes the layer, once per new
parameter state and not once per forward (`nets.Mlp`): from the stored cores
in the weight domain, from the cores its phases realize in the phase domain.
A ZO step's probe states and directions are split once per step, before its
pass over the rows.  The network then passes each split to `tt_forward` once
per row block of `nets.BLOCK_ROWS` rows, with T in one of its block buffers.

T depends only on the tail, so two splits that differ in the head core
alone make the same T.  `tt_head` is the head half of `tt_forward`, which
`tt_forward` calls after its T GEMM: given a T already in a buffer, it
multiplies another head by it, and `tt_with_head` swaps the head of a split
and keeps its tail.  A network's probe that moves only a TT layer's head
core (`nets.Mlp.pairs`) thus reads T from the base product of that block
and skips the T GEMM, about 70% of the layer's product on Black-Scholes at
r = 2 (32 of 47 us per 256-row block); its result equals the full split's
bit for bit (tests/test_tensortrain.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TTLayout",
    "TTCores",
    "tt_param_count",
    "TTSplit",
    "tt_reconstruct",
    "tt_split",
    "tt_with_head",
    "tt_forward",
    "tt_head",
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

    @property
    def work_width(self) -> int:
        """Floats per input row of `tt_forward`'s intermediate T: n r M / m of the head core."""
        return self.in_factors[0] * self.ranks[1] * (self.rows // self.out_factors[0])


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


def _chain(cores: list[np.ndarray]) -> np.ndarray:
    """Chain product of consecutive cores, shape (r_first, m_1..m_k, n_1..n_k); the last rank is 1."""
    t = cores[0]
    for core in cores[1:]:
        t = np.tensordot(t, core, axes=(-1, 0))  # (r_first, m_1, n_1, ..., m_k, n_k, r_k)
    t = t[..., 0]
    k = len(cores)
    # axes are ordered r, m_1, n_1, m_2, n_2, ...; bring all m before all n
    return np.transpose(t, [0, *range(1, 2 * k, 2), *range(2, 2 * k + 1, 2)])


def tt_reconstruct(cores: TTCores, cap: int = RECONSTRUCT_CAP) -> np.ndarray:
    """Materialize the dense (M, N) matrix represented by the cores."""
    lay = cores.layout
    if lay.rows * lay.cols > cap:
        raise ValueError(f"refusing to materialize {lay.rows}x{lay.cols} matrix (cap {cap})")
    return _chain(cores.cores).reshape(lay.rows, lay.cols)


class TTSplit:
    """The cores with what `tt_forward` multiplies by: the head core as an
    (m, n r) matrix and the tail, cores 2..L chained, as an (r M/m, N/n) one."""

    __slots__ = ("cores", "head", "tail")

    def __init__(self, cores: TTCores, head: np.ndarray, tail: np.ndarray):
        self.cores, self.head, self.tail = cores, head, tail

    @property
    def layout(self) -> TTLayout:
        return self.cores.layout


def tt_split(cores: TTCores) -> TTSplit:
    """The head-core split of the cores (module docstring)."""
    lay = cores.layout
    m, n, r = lay.out_factors[0], lay.in_factors[0], lay.ranks[1]
    head = cores.cores[0].reshape(m, n * r)
    tail = _chain(cores.cores[1:]).reshape(r * lay.rows // m, lay.cols // n) if lay.L > 1 else np.ones((1, 1))
    return TTSplit(cores, head, tail)


def tt_with_head(split: TTSplit, core: np.ndarray) -> TTSplit:
    """The split of `split`'s cores with head core `core`: the tail is
    `split`'s own, not chained again, so a product through the result makes
    `split`'s T bit for bit."""
    lay = split.layout
    core = np.asarray(core, dtype=float).reshape(lay.core_shape(0)).copy()
    cores = TTCores(lay, [core, *split.cores.cores[1:]])
    return TTSplit(cores, core.reshape(lay.out_factors[0], -1), split.tail)


def tt_forward(
    tt: TTCores | TTSplit, x: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None
) -> np.ndarray:
    """Compute W @ x (or batched x of shape (B, N) -> (B, M)) through the head-core split.

    `tt` is the split, or cores to split first.  The product goes into
    `out` when given, which must be C-contiguous and may overlap x: x is
    read in full before out is written.  The intermediate T, B x
    `layout.work_width` floats, goes into the start of the flat float64
    buffer `work` when given, which must overlap neither x nor out.
    """
    split = tt if isinstance(tt, TTSplit) else tt_split(tt)
    lay = split.layout
    x = np.asarray(x)
    if x.shape[-1] != lay.cols:
        raise ValueError(f"input length {x.shape[-1]} != layout cols {lay.cols}")
    if out is None:
        out = np.empty(x.shape[:-1] + (lay.rows,))
    elif not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    m, n, r = lay.out_factors[0], lay.in_factors[0], lay.ranks[1]
    rows = x.size // lay.cols
    t = np.empty(rows * lay.work_width) if work is None else work[: rows * lay.work_width]
    np.matmul(x.reshape(rows * n, lay.cols // n), split.tail.T, out=t.reshape(rows * n, r * lay.rows // m))
    return tt_head(split, t, out)


def tt_head(split: TTSplit, work: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The head half of `tt_forward`: the (B, M) product of `split`'s head
    with the T of B rows at the start of the flat buffer `work`, into the
    C-contiguous `out`.  T is what `tt_forward` left in `work` through a
    split with the same tail, so the result equals `tt_forward` through
    `split` bit for bit: the tail GEMM is not run again."""
    lay = split.layout
    m, n, r = lay.out_factors[0], lay.in_factors[0], lay.ranks[1]
    rows = out.size // lay.rows
    t = work[: rows * lay.work_width].reshape(rows, n * r, lay.rows // m)
    np.matmul(split.head, t, out=out.reshape(rows, m, lay.rows // m))
    return out


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
