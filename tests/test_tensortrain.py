"""Tensor-train cores: counting, reconstruction, forward equivalence, init."""

import numpy as np
import pytest

from photopinn.models import architecture
from photopinn.nets import TTLayer
from photopinn.photonic import PhotonicTT
from photopinn.tensortrain import (
    TTCores,
    TTLayout,
    TTSplit,
    tt_forward,
    tt_head,
    tt_init,
    tt_param_count,
    tt_reconstruct,
    tt_split,
    tt_with_head,
)

LAYOUTS = [
    TTLayout((4, 4, 4, 8), (8, 4, 4, 4), (1, 2, 2, 2, 1)),
    TTLayout((4, 4, 8), (8, 4, 4), (1, 2, 2, 1)),
    TTLayout((1, 1, 3, 7), (8, 4, 4, 4), (1, 2, 2, 2, 1)),
    TTLayout((4, 5, 5), (5, 5, 4), (1, 2, 2, 1)),
    TTLayout((4, 4), (4, 4), (1, 3, 1)),
    TTLayout((6,), (5,), (1, 1)),
    TTLayout((3, 4), (4, 3), (1, 2, 1)),
]

# The folds the networks train (Black-Scholes hidden, HJB input and hidden,
# Burgers hidden) at ranks 1, 2, 4 and 8; rank 8 on Black-Scholes is r = m,
# the split's worst case.
PRODUCTION_LAYOUTS = list(
    dict.fromkeys(
        layer
        for rank in (1, 2, 4, 8)
        for name in ("black-scholes", "hjb", "burgers")
        for layer in architecture(name, True, rank).layers
        if isinstance(layer, TTLayout)
    )
)


def chain_product_matrix(cores):
    """W[i, j] = G_1(i_1, j_1) @ ... @ G_L(i_L, j_L) for every (i, j) at once.

    Independent of `tt_reconstruct`: it indexes the core slices through the
    row-major multi-index split (last factor fastest) instead of contracting
    and permuting axes.
    """
    lay = cores.layout
    cols = np.stack(np.unravel_index(np.arange(lay.cols), lay.in_factors), axis=1)
    out = np.empty((lay.rows, lay.cols))
    for start in range(0, lay.rows, 32):  # 32 rows of W at a time bound the (rows, N, r, r) slices
        block = np.arange(start, min(start + 32, lay.rows))
        rows = np.stack(np.unravel_index(block, lay.out_factors), axis=1)
        w = np.ones((len(block), lay.cols, 1, 1))
        for k, core in enumerate(cores.cores):
            # (r0, rows, N, r1) slices, one per entry -> (rows, N, r0, r1)
            w = w @ core[:, rows[:, k, None], cols[None, :, k], :].transpose(1, 2, 0, 3)
        out[block] = w[:, :, 0, 0]
    return out


def test_param_count_512_example():
    lay = TTLayout((4, 4, 4, 8), (8, 4, 4, 4), (1, 2, 2, 2, 1))
    assert tt_param_count(lay) == 256


def test_param_count_degenerate_dense():
    assert tt_param_count(TTLayout((7,), (9,), (1, 1))) == 63


def test_param_count_hjb_model_total():
    # input 21 -> 512 and hidden 512 -> 512 folds with rank 2, plus dense bits
    in_lay = TTLayout((1, 1, 3, 7), (8, 4, 4, 4), (1, 2, 2, 2, 1))
    h_lay = TTLayout((4, 4, 4, 8), (8, 4, 4, 4), (1, 2, 2, 2, 1))
    total = tt_param_count(in_lay) + 512 + tt_param_count(h_lay) + 512 + (512 + 1)
    assert total == 1_929


def test_layout_validation():
    with pytest.raises(ValueError):
        TTLayout((4, 4), (4, 4), (1, 2, 2))  # wrong rank length
    with pytest.raises(ValueError):
        TTLayout((4, 4), (4, 4), (2, 2, 1))  # boundary rank != 1


def test_reconstruct_all_ones_rank1():
    lay = TTLayout((2, 3), (3, 2), (1, 1, 1))
    cores = TTCores(lay, [np.ones(lay.core_shape(k)) for k in range(2)])
    assert np.array_equal(tt_reconstruct(cores), np.ones((6, 6)))


def test_reconstruct_single_core_is_its_slice_matrix():
    lay = TTLayout((5,), (4,), (1, 1))
    core = np.random.default_rng(0).standard_normal(lay.core_shape(0))
    cores = TTCores(lay, [core])
    assert np.array_equal(tt_reconstruct(cores), core[0, :, :, 0])


def test_reconstruct_matches_entrywise_chain_product():
    lay = TTLayout((4, 4), (4, 4), (1, 3, 1))
    cores = tt_init(lay, 11)
    assert np.abs(tt_reconstruct(cores) - chain_product_matrix(cores)).max() < 1e-12


def test_reconstruct_cap():
    lay = TTLayout((64, 64), (64, 64), (1, 2, 1))
    cores = tt_init(lay, 0)
    with pytest.raises(ValueError):
        tt_reconstruct(cores, cap=10_000)


@pytest.mark.parametrize("lay", LAYOUTS + PRODUCTION_LAYOUTS)
def test_forward_matches_dense(lay, rng):
    """The head-core split against x W^T with W from the entry-wise oracle,
    within 1e-14 of the largest output: on a batch, on one vector, and into
    `out` with T in a caller's `work` buffer.  LAYOUTS holds a one-core layout."""
    cores = tt_init(lay, 5)
    x = rng.standard_normal((9, lay.cols))
    dense = x @ chain_product_matrix(cores).T
    bound = 1e-14 * np.abs(dense).max()
    assert np.abs(tt_forward(cores, x) - dense).max() <= bound
    assert np.abs(tt_forward(cores, x[0]) - dense[0]).max() <= bound
    out, work = np.full((9, lay.rows), np.nan), np.full(9 * lay.work_width, np.nan)
    assert tt_forward(tt_split(cores), x, out=out, work=work) is out
    assert np.abs(out - dense).max() <= bound


@pytest.mark.parametrize("rows", [1, 255, 256, 257, 513])
@pytest.mark.parametrize("lay", LAYOUTS + PRODUCTION_LAYOUTS)
def test_the_head_half_on_the_base_T_equals_the_full_split(lay, rows, rng):
    """A split that differs from the base in its head core only: its head
    times the T a base product left in `work` equals `tt_forward` through
    its full split, tail chained again, bit for bit; and so does a product
    through `tt_with_head`, which shares the base's tail."""
    base = tt_split(tt_init(lay, 5))
    x = rng.standard_normal((rows, lay.cols))
    work = np.full(rows * lay.work_width + 1, np.nan)
    tt_forward(base, x, work=work)
    head = rng.standard_normal(lay.core_shape(0))
    moved = tt_with_head(base, head)
    got = tt_head(moved, work, np.full((rows, lay.rows), np.nan))
    assert np.array_equal(got, tt_forward(TTCores(lay, [head, *base.cores.cores[1:]]), x))
    assert np.array_equal(got, tt_forward(moved, x, work=np.empty_like(work)))
    assert moved.tail is base.tail and np.array_equal(moved.cores.cores[0], head)


@pytest.mark.parametrize("lay", [lay for lay in PRODUCTION_LAYOUTS if lay.ranks[1] < lay.out_factors[0]])
def test_a_realization_holds_no_dense_matrix(lay):
    """Both domains realize a TT layer as its split: the cores, the head and
    the tail, none of them as large as the M x N matrix.  The tail holds r/m
    of its entries, so the folds are taken at ranks r < m."""
    weight = TTLayer(lay).realize(np.concatenate([c.ravel() for c in tt_init(lay, 0).cores]))
    phase_layer = PhotonicTT(lay)
    phase = phase_layer.realize(np.random.default_rng(0).uniform(0.0, 2 * np.pi, phase_layer.phase_shape))
    for split in (weight, phase):
        assert isinstance(split, TTSplit)
        assert split.head.shape == (lay.out_factors[0], lay.in_factors[0] * lay.ranks[1])
        assert split.tail.shape == (lay.ranks[1] * lay.rows // lay.out_factors[0], lay.cols // lay.in_factors[0])
        for array in (*split.cores.cores, split.head, split.tail):
            assert array.size < lay.rows * lay.cols


def test_forward_identity_single_core():
    lay = TTLayout((4,), (4,), (1, 1))
    cores = TTCores(lay, [np.eye(4)[None, :, :, None]])
    x = np.random.default_rng(2).standard_normal(4)
    assert np.allclose(tt_forward(cores, x), x, atol=1e-14)


def test_forward_batch_equals_per_vector(rng):
    lay = TTLayout((4, 4, 8), (8, 4, 4), (1, 2, 2, 1))
    cores = tt_init(lay, 9)
    xs = rng.standard_normal((5, 128))
    batch = tt_forward(cores, xs)
    for i in range(5):
        assert np.allclose(batch[i], tt_forward(cores, xs[i]), atol=1e-12)


def test_forward_is_linear(rng):
    lay = TTLayout((4, 5, 5), (5, 5, 4), (1, 2, 2, 1))
    cores = tt_init(lay, 4)
    x, y = rng.standard_normal((2, 100))
    lhs = tt_forward(cores, 2.5 * x - 0.7 * y)
    rhs = 2.5 * tt_forward(cores, x) - 0.7 * tt_forward(cores, y)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_forward_dimension_mismatch():
    cores = tt_init(TTLayout((4, 4), (4, 4), (1, 2, 1)), 0)
    with pytest.raises(ValueError):
        tt_forward(cores, np.zeros(15))


def test_init_deterministic():
    lay = TTLayout((4, 4, 8), (8, 4, 4), (1, 2, 2, 1))
    a = tt_init(lay, 123)
    b = tt_init(lay, 123)
    for ca, cb in zip(a.cores, b.cores):
        assert np.array_equal(ca, cb)


def test_init_entry_std_near_glorot_target():
    lay = TTLayout((4, 4, 4, 8), (8, 4, 4, 4), (1, 2, 2, 2, 1))
    target = np.sqrt(2.0 / 1024.0)
    stds = [tt_reconstruct(tt_init(lay, s)).std() for s in range(10)]
    assert abs(np.mean(stds) - target) / target < 0.3


def test_init_rank_one_gives_outer_product_structure():
    lay = TTLayout((4, 4), (4, 4), (1, 1, 1))
    W = tt_reconstruct(tt_init(lay, 3))
    assert np.linalg.matrix_rank(W.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(16, 16)) == 1

