"""Smoothed-model derivative estimators against analytic and FD oracles."""

import numpy as np
import pytest

from photopinn.config import RunConfig
from photopinn.nets import DenseLayer, TensorizedMlp
from photopinn.pde import pinn_loss
from photopinn.quadrature import SteinConfig, SteinPlan, build_sparse_grid, sparse_grid_nodes
from photopinn.training import config_problem, config_stein

from conftest import central_diff_grad, central_diff_hess_diag, scalar_net


def make_tanh_mlp(dim, width, seed):
    """dim -> width -> width -> 1 tanh net with Glorot-normal weights."""
    rng = np.random.default_rng(seed)
    layers = [DenseLayer(dim, width), DenseLayer(width, width), DenseLayer(width, 1)]
    weights = [[np.sqrt(2.0 / (a.n_in + a.n_out)) * rng.standard_normal((a.n_out, a.n_in))] for a in layers]
    return TensorizedMlp(layers, weights, activation="tanh")


def estimate(net, x, cfg, call_index=0):
    """Estimators at one center x, through SteinPlan as the loss computes them."""
    plan = SteinPlan(cfg, len(x), call_index)
    return {k: v[0] for k, v in plan.combine(net(plan.eval_points(x))).items()}


def smoothed(net, x, cfg):
    return estimate(net, x, cfg)["value"]


def first(net, x, cfg, call_index=0):
    return estimate(net, x, cfg, call_index)["first"]


def second(net, x, cfg):
    return estimate(net, x, cfg)["second"]


def test_smoothed_forward_linear_exact():
    a = np.array([2.0, -1.5, 0.25])
    net = lambda X: X @ a + 0.7
    x = np.array([0.3, -0.2, 1.1])
    for level in (1, 2, 3):
        cfg = SteinConfig(sigma=0.5, level=level)
        assert smoothed(net, x, cfg) == pytest.approx(net(x[None])[0], abs=1e-12)


def test_smoothed_forward_quadratic_bias():
    net = lambda X: np.sum(X**2, axis=1)
    x = np.array([0.4, -1.0])
    got = smoothed(net, x, SteinConfig(sigma=0.1, level=3))
    assert got == pytest.approx(float(net(x[None])[0]) + 2 * 0.1**2, abs=1e-12)


def test_smoothed_forward_sigma_to_zero():
    net = make_tanh_mlp(3, 16, 0)
    x = np.array([0.2, -0.4, 0.9])
    got = smoothed(net, x, SteinConfig(sigma=1e-8, level=3))
    assert got == pytest.approx(float(net(x[None])[0]), abs=1e-6)


def test_stein_first_linear_exact():
    a = np.array([1.0, -2.0, 3.0, 0.5])
    net = lambda X: X @ a
    x = np.zeros(4)
    for sigma in (1e-3, 0.1, 1.0):
        got = first(net, x, SteinConfig(sigma=sigma, level=2))
        assert np.allclose(got, a, atol=1e-12)


def test_stein_first_quadratic():
    net = lambda X: np.sum(X**2, axis=1)
    got = first(net, np.array([1.0, 2.0]), SteinConfig(sigma=1e-2, level=3))
    assert np.allclose(got, [2.0, 4.0], atol=1e-10)


def test_stein_second_diag_linear_is_zero():
    net = lambda X: X @ np.array([3.0, -1.0])
    got = second(net, np.array([0.5, 0.5]), SteinConfig(sigma=0.05, level=3))
    assert np.allclose(got, 0.0, atol=1e-9)


def test_stein_second_diag_quadratic():
    net = lambda X: X[:, 0] ** 2 + 3.0 * X[:, 1] ** 2
    got = second(net, np.array([0.3, -0.7]), SteinConfig(sigma=0.1, level=3))
    assert np.allclose(got, [2.0, 6.0], atol=1e-8)


def test_stein_laplacian_quadratic_20d():
    net = lambda X: np.sum(X**2, axis=1)
    got = np.sum(second(net, np.full(20, 0.25), SteinConfig(sigma=0.1, level=3)))
    assert got == pytest.approx(40.0, abs=1e-8)


def test_stein_laplacian_harmonic_l1_away_from_kinks():
    # |x|_1 is linear (hence harmonic) wherever no coordinate changes sign
    net = lambda X: np.sum(np.abs(X), axis=1)
    x = np.full(20, 0.5)
    got = np.sum(second(net, x, SteinConfig(sigma=1e-3, level=3)))
    assert abs(got) < 1e-6


@pytest.mark.parametrize("seed", range(4))
def test_stein_first_vs_fd_on_mlps(seed):
    dim = 2 + seed % 3
    net = make_tanh_mlp(dim, 24, seed)
    rng = np.random.default_rng(seed + 100)
    x = rng.uniform(-0.5, 0.5, size=dim)
    est = first(net, x, SteinConfig(sigma=1e-3, level=3))
    ref = central_diff_grad(scalar_net(net), x, h=1e-4)
    assert np.linalg.norm(est - ref) / np.linalg.norm(ref) < 1e-2


@pytest.mark.parametrize("seed", range(4))
def test_stein_second_diag_vs_fd_on_mlps(seed):
    dim = 2 + seed % 3
    net = make_tanh_mlp(dim, 24, seed + 10)
    rng = np.random.default_rng(seed + 200)
    x = rng.uniform(-0.5, 0.5, size=dim)
    est = second(net, x, SteinConfig(sigma=1e-2, level=3))
    ref = central_diff_hess_diag(scalar_net(net), x, h=1e-3)
    assert np.linalg.norm(est - ref) / np.linalg.norm(ref) < 5e-2


def test_error_shrinks_with_sigma():
    net = make_tanh_mlp(3, 24, 7)
    x = np.array([0.15, -0.35, 0.55])
    ref = central_diff_grad(scalar_net(net), x, h=1e-4)
    errs = []
    sigmas = (0.3, 0.1, 0.03, 0.01)
    for s in sigmas:
        est = first(net, x, SteinConfig(sigma=s, level=3))
        errs.append(np.linalg.norm(est - ref))
    slope = np.polyfit(np.log(sigmas), np.log(errs), 1)[0]
    assert slope >= 1.0


def test_monte_carlo_mode_deterministic_and_consistent():
    net = lambda X: np.sum(X**2, axis=1)
    x = np.array([1.0, -0.5])
    cfg = SteinConfig(sigma=0.05, mode="monte-carlo", samples=4000, seed=42)
    a = first(net, x, cfg, call_index=7)
    b = first(net, x, cfg, call_index=7)
    assert np.array_equal(a, b)
    c = first(net, x, cfg, call_index=8)
    assert not np.array_equal(a, c)
    # antithetic pairs make the quadratic case exact up to second-diff structure
    assert np.allclose(a, [2.0, -1.0], rtol=0.05)


def test_monte_carlo_query_count_is_pairs_plus_center():
    plan = SteinPlan(SteinConfig(sigma=0.1, mode="monte-carlo", samples=25, seed=0), dim=3)
    assert plan.n_queries == 2 * 25 + 1


def test_plan_one_query_per_grid_node():
    plan = SteinPlan(SteinConfig(sigma=0.1, level=3), dim=2)
    # the grid's 13 nodes less the 4 axis nodes +-B*e_i, whose weight is 0
    assert plan.n_queries == 9


@pytest.mark.parametrize("dim,level3", [(2, 9), (3, 19), (21, 883)])
def test_plan_queries_the_weighted_nodes_their_pairs_and_the_center(dim, level3):
    assert SteinPlan(SteinConfig(sigma=0.1, level=3), dim).n_queries == level3
    for level in (1, 2):  # no zero weights below level 3
        assert SteinPlan(SteinConfig(sigma=0.1, level=level), dim).n_queries == len(build_sparse_grid(dim, level))


@pytest.mark.parametrize("dim", [2, 3, 21])
def test_sparse_grid_node_set_is_a_symmetric_degree5_gaussian_rule(dim):
    """Closed-form Gaussian moments as the oracle: E[(a.z)^k] = (k-1)!! for
    even k and 0 for odd k, for unit a.  The error of the rule on (a.z)^k
    is a polynomial in a, zero for every a only if every degree-k monomial
    is exact, so random directions check them all."""
    nodes, weights = sparse_grid_nodes(SteinConfig(sigma=1.0, level=3), dim)
    assert np.sum(np.all(nodes == 0.0, axis=1)) == 1
    table = {tuple(n + 0.0): w for n, w in zip(nodes, weights)}
    assert len(table) == len(nodes)
    assert all(table[tuple(-n + 0.0)] == w for n, w in zip(nodes, weights))
    assert abs(weights.sum() - 1.0) < 1e-12
    rng = np.random.default_rng(dim)
    directions = np.vstack([np.eye(dim), rng.standard_normal((20, dim))])
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    projections = nodes @ directions.T
    for k, moment in enumerate([1.0, 0.0, 1.0, 0.0, 3.0, 0.0]):
        assert np.allclose(weights @ projections**k, moment, rtol=0, atol=1e-10), k


def _full_layout(cfg, dim, call_index):
    """Offsets and weights of every node, rebuilt from the grid or the documented Monte-Carlo draw."""
    if cfg.mode == "sparse-grid":
        grid = build_sparse_grid(dim, cfg.level)
        return grid.nodes * cfg.sigma, grid.weights
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, call_index)))
    half = cfg.sigma * rng.standard_normal((cfg.samples, dim))
    offsets = np.concatenate([half, -half, np.zeros((1, dim))])
    return offsets, np.concatenate([np.full(cfg.samples, 1.0 / cfg.samples), np.zeros(cfg.samples + 1)])


def _combine_oracle(offsets, weights, sigma, f):
    """The documented estimator formulas, summed over every node of the
    layout; f is (P, n).  Also returns the nodes whose values enter a sum
    (a nonzero-weight node, its pair, the center) and each center's
    sum sum_j |w_j (f_j + f_pair(j))| / 2 of the value's terms."""
    keys = [tuple(o + 0.0) for o in offsets]
    pair = np.array([keys.index(tuple(-o + 0.0)) for o in offsets])
    center = keys.index((0.0,) * offsets.shape[1])
    f_neg = f[:, pair]
    c_first = weights[:, None] * offsets / (2.0 * sigma**2)
    c_second = weights[:, None] * (offsets**2 - sigma**2) / (2.0 * sigma**4)
    used = (weights != 0.0) | (weights[pair] != 0.0)
    used[center] = True
    return np.flatnonzero(used), 0.5 * np.abs(weights * (f + f_neg)).sum(axis=1), {
        "value": 0.5 * np.einsum("...pn,n->...p", f + f_neg, weights),
        "first": np.einsum("pn...,nd->pd...", f - f_neg, c_first),
        "second": np.einsum("pn...,nd->pd...", f + f_neg - 2.0 * f[:, center : center + 1], c_second),
    }


_PLANS = pytest.mark.parametrize(
    "cfg,dim",
    [
        (SteinConfig(sigma=0.05, level=3), 2),
        (SteinConfig(sigma=0.05, level=3), 3),
        (SteinConfig(sigma=0.05, level=3), 21),
        (SteinConfig(sigma=0.05, mode="monte-carlo", samples=16, seed=4), 3),
    ],
    ids=["grid-2", "grid-3", "grid-21", "monte-carlo-3"],
)


@_PLANS
def test_combine_on_queried_rows_equals_the_full_layout(cfg, dim):
    """A plan evaluates only the nodes whose values enter a sum.  Leaving out
    the others' exact-zero terms keeps every derivative sum's bits; the
    value sum groups its terms by the node count, so it is held to the
    summation bound n * eps * sum_j |w_j (f_j + f_pair(j))| / 2."""
    call_index = 5
    offsets, weights = _full_layout(cfg, dim, call_index)
    net = make_tanh_mlp(dim, 16, dim)
    centers = np.random.default_rng(dim).uniform(-0.5, 0.5, size=(4, dim))
    f = net((centers[:, None, :] + offsets[None]).reshape(-1, dim)).reshape(len(centers), -1)
    used, magnitude, want = _combine_oracle(offsets, weights, cfg.sigma, f)

    plan = SteinPlan(cfg, dim, call_index)
    points = plan.eval_points(centers).reshape(len(centers), plan.n_queries, dim)
    assert np.array_equal(points, centers[:, None, :] + offsets[None, used])
    got = plan.combine(f[:, used].reshape(-1))
    assert np.array_equal(got["first"], want["first"])
    assert np.array_equal(got["second"], want["second"])
    bound = len(weights) * np.finfo(float).eps * magnitude
    assert np.all(np.abs(got["value"] - want["value"]) <= bound)


@_PLANS
def test_one_combine_over_many_centers_equals_a_call_per_center(cfg, dim):
    """A loss query combines all its residual and data centers in one call;
    each center must equal a call on that center's values alone."""
    plan = SteinPlan(cfg, dim, 5)
    net = make_tanh_mlp(dim, 16, dim)
    centers = np.random.default_rng(dim).uniform(-0.5, 0.5, size=(7, dim))
    values = net(plan.eval_points(centers))
    got = plan.combine(values)
    assert got["value"].shape == (7,) and got["first"].shape == got["second"].shape == (7, dim)
    for i, row in enumerate(values.reshape(len(centers), plan.n_queries)):
        want = plan.combine(row)
        for key in ("value", "first", "second"):
            assert np.array_equal(got[key][i], want[key][0]), key


def test_plan_combine_batches_match_single_calls():
    net = make_tanh_mlp(2, 16, 5)
    cfg = SteinConfig(sigma=0.05, level=3)
    pts = np.random.default_rng(0).uniform(-0.5, 0.5, size=(6, 2))
    plan = SteinPlan(cfg, 2)
    out = plan.combine(net(plan.eval_points(pts)))
    for i, x in enumerate(pts):
        single = estimate(net, x, cfg)
        assert out["value"][i] == pytest.approx(single["value"], abs=1e-13)
        assert np.allclose(out["first"][i], single["first"], atol=1e-13)
        assert np.allclose(out["second"][i], single["second"], atol=1e-13)


def test_model_failure_propagates():
    def broken(X):
        raise FloatingPointError("synthetic evaluation failure")

    cfg = RunConfig(problem_residual_points=4, problem_initial_points=2, problem_boundary_points=2)
    problem = config_problem(cfg)
    with pytest.raises(FloatingPointError):
        pinn_loss(broken, problem, config_stein(cfg, problem, 0), 0)
