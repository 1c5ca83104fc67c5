"""Randomized gradient estimation and optimizer updates."""

import numpy as np
import pytest

from photopinn.zo import (
    AdamState,
    DivergenceError,
    ParamView,
    ZoConfig,
    rge_estimate,
    zo_adam_step,
    zo_sgd_step,
)


def make_view(*sizes):
    segs = []
    pos = 0
    for i, s in enumerate(sizes):
        segs.append((f"t{i}", pos, pos + s))
        pos += s
    return ParamView.from_segments(segs)


def test_view_validation():
    with pytest.raises(ValueError):
        ParamView(segments=(("a", 0, 3), ("b", 4, 6)), dim=6)  # gap
    v = make_view(3, 5)
    assert v.dim == 8
    assert [g[0] for g in v.groups("per-tensor")] == ["t0", "t1"]
    assert v.groups("global")[0][1] == slice(0, 8)


def test_constant_loss_gives_zero_gradient():
    view = make_view(10)
    grad, q = rge_estimate(lambda th: 3.5, np.zeros(10), view, ZoConfig(seed=0))
    assert np.array_equal(grad, np.zeros(10))
    assert q == 2


def test_linear_loss_single_rademacher_probe():
    g = np.array([1.0, -2.0, 0.5, 4.0])
    view = make_view(4)
    cfg = ZoConfig(queries=1, radius=0.1, distribution="rademacher", grouping="global", seed=7)
    est, _ = rge_estimate(lambda th: float(g @ th), np.zeros(4), view, cfg, step=0)
    # single-probe estimate is (g . xi) xi for the drawn sign vector
    xi = np.sign(est) * 0 + est / (g @ np.sign(est)) if False else None
    # verify the defining identity instead: est must equal (g.xi) xi with xi = +-1
    signs = np.sign(est)
    assert set(np.abs(est)) <= {abs(float(g @ signs))}


def test_linear_loss_expectation_recovers_gradient():
    g = np.array([1.0, -2.0, 0.5, 4.0, -0.3])
    view = make_view(5)
    theta = np.zeros(5)
    acc = np.zeros(5)
    n = 10_000
    for step in range(n):
        cfg = ZoConfig(queries=1, radius=0.05, distribution="rademacher", grouping="global", seed=1)
        est, _ = rge_estimate(lambda th: float(g @ th), theta, view, cfg, step=step)
        acc += est
    acc /= n
    assert np.linalg.norm(acc - g) / np.linalg.norm(g) < 0.05


def test_groupwise_matches_concatenated_for_separable_loss():
    # separable loss: group estimates coincide with per-group global estimates
    view = make_view(3, 4)
    theta = np.arange(7, dtype=float)
    loss = lambda th: float(np.sum(th[:3] ** 2) + np.sum(np.cos(th[3:])))
    cfg = ZoConfig(queries=2, radius=0.01, grouping="per-tensor", seed=5)
    grad, q = rge_estimate(loss, theta, view, cfg, step=3)
    assert q == 2 * 2 * 2  # 2 probes x 2 groups x 2 sides

    v0 = make_view(3)
    g0, _ = rge_estimate(lambda th: float(np.sum(th**2)), theta[:3], v0,
                         ZoConfig(queries=2, radius=0.01, grouping="global", seed=5), step=3)
    assert np.allclose(grad[:3], g0, atol=1e-12)


def test_determinism_across_runs():
    view = make_view(6)
    theta = np.ones(6)
    loss = lambda th: float(np.sum(th**3))
    cfg = ZoConfig(queries=3, radius=0.02, seed=9, grouping="global")
    a, _ = rge_estimate(loss, theta, view, cfg, step=17)
    b, _ = rge_estimate(loss, theta, view, cfg, step=17)
    assert np.array_equal(a, b)
    c, _ = rge_estimate(loss, theta, view, cfg, step=18)
    assert not np.array_equal(a, c)


def test_query_accounting():
    view = make_view(2, 3, 4)
    cfg = ZoConfig(queries=5, grouping="per-tensor", seed=0)
    calls = []
    loss = lambda th: calls.append(1) or 0.0
    _, q = rge_estimate(loss, np.zeros(9), view, cfg)
    assert q == 2 * 5 * 3
    assert len(calls) == q


def _pairs_loss(f, asked=None):
    """A loss that answers only `pairs`, each value as f at theta[sl] +/- delta;
    it records each probe's (theta, slice) in `asked`."""

    def loss(th):
        raise AssertionError("a loss with pairs is asked for pairs only")

    def pairs(th, probes):
        values = []
        for sl, delta in probes:
            if asked is not None:
                asked.append((th, sl))
            plus, minus = th.copy(), th.copy()
            plus[sl] = th[sl] + delta
            minus[sl] = th[sl] - delta
            values.append((f(plus), f(minus)))
        return values

    loss.pairs = pairs
    return loss


@pytest.mark.parametrize("grouping", ["per-tensor", "global"])
def test_a_loss_with_pair_is_asked_for_both_values_at_once(grouping):
    """`pairs(theta, probes)` replaces the two queries of every probe of the
    step in one call: it sees the base theta and each group's slice with
    mu x xi, in group order, and, answering with the values at
    theta[sl] +/- delta, gives the plain estimate bit for bit and the same
    query count."""
    view = make_view(2, 3, 4)
    cfg = ZoConfig(queries=2, radius=0.05, grouping=grouping, seed=4)
    theta = np.linspace(-1.0, 1.0, 9)
    f = lambda th: float(np.sum(np.sin(3.0 * th) * th))
    asked = []
    got, q = rge_estimate(_pairs_loss(f, asked), theta, view, cfg, step=3)
    want, q_plain = rge_estimate(f, theta, view, cfg, step=3)
    assert np.array_equal(got, want)
    assert q == q_plain == 2 * len(asked)
    assert all(np.array_equal(th, theta) for th, _ in asked)
    assert [sl for _, sl in asked] == [sl for _, sl in view.groups(grouping) for _ in range(cfg.queries)]


def _tiny_black_scholes_oracle():
    """(theta, view, a loss that builds a fresh model per query) on a small
    Black-Scholes TT model, so nothing carries over between queries."""
    from photopinn.config import RunConfig
    from photopinn.pde import pinn_loss
    from photopinn.training import build_run_model, config_problem, config_stein

    cfg = RunConfig(
        problem_name="black-scholes",
        problem_residual_points=6,
        problem_initial_points=2,
        problem_boundary_points=2,
    )
    problem = config_problem(cfg)
    stein = config_stein(cfg, problem, 0)
    model = build_run_model(cfg, 0)

    def fresh(th):
        net = build_run_model(cfg, 0)
        net.set_flat(th)
        return pinn_loss(problem.transform(net), problem, stein, 0, 7)[0]

    return model.get_flat(), ParamView.from_segments(model.segments()), fresh


@pytest.mark.parametrize("grouping", ["per-tensor", "global"])
@pytest.mark.parametrize("queries", [1, 2])
def test_batched_estimate_equals_per_probe_calls_on_a_fresh_model_oracle(queries, grouping):
    """All of a step's probes drawn first and asked of `pairs` in one call
    give the same (grad, queries) bytes as the per-probe plain calls, both
    answered by the fresh-model oracle."""
    theta, view, fresh = _tiny_black_scholes_oracle()
    cfg = ZoConfig(queries=queries, grouping=grouping, seed=2)

    got, q = rge_estimate(_pairs_loss(fresh), theta, view, cfg, step=7)
    want, q_plain = rge_estimate(fresh, theta, view, cfg, step=7)
    assert q == q_plain == 2 * queries * len(view.groups(grouping))
    assert got.tobytes() == want.tobytes()


def test_a_nonfinite_pair_value_names_its_group_and_key():
    """A non-finite value in the third group's second probe raises for that
    group and its key, though `pairs` answered every probe at once."""
    view = make_view(2, 3, 4, 5)
    cfg = ZoConfig(queries=2, grouping="per-tensor", seed=6)

    def loss(th):
        raise AssertionError("a loss with pairs is asked for pairs only")

    def pairs(th, probes):
        values = [(1.0, 2.0) for _ in probes]
        values[2 * 2 + 1] = (1.0, float("inf"))
        return values

    loss.pairs = pairs
    with pytest.raises(DivergenceError) as err:
        rge_estimate(loss, np.zeros(view.dim), view, cfg, step=11)
    msg = str(err.value)
    assert "group='t2'" in msg and "key=(6,11,2,1)" in msg and "L-=inf" in msg


def test_nonfinite_loss_aborts_with_key():
    view = make_view(4)
    loss = lambda th: float("nan")
    with pytest.raises(DivergenceError) as err:
        rge_estimate(loss, np.zeros(4), view, ZoConfig(seed=3), step=12)
    msg = str(err.value)
    assert "12" in msg and "3" in msg  # step and seed appear in the diagnostic


def test_mse_scales_inversely_with_queries():
    # RGE on |theta|^2 in d=100: mean squared error ~ d/N
    d = 100
    view = make_view(d)
    rng = np.random.default_rng(0)
    theta = rng.standard_normal(d)
    true = 2 * theta
    loss = lambda th: float(np.sum(th**2))
    mses = []
    ns = (1, 10, 100)
    for n in ns:
        errs = []
        trials = 10_000 // n
        for step in range(trials):
            cfg = ZoConfig(queries=n, radius=1e-4, distribution="gaussian", grouping="global", seed=4)
            est, _ = rge_estimate(loss, theta, view, cfg, step=step)
            errs.append(np.sum((est - true) ** 2))
        mses.append(np.mean(errs))
    slope = np.polyfit(np.log(ns), np.log(mses), 1)[0]
    assert -1.2 < slope < -0.8


def test_sgd_step_basics():
    p = np.array([1.0, 2.0])
    assert np.array_equal(zo_sgd_step(p.copy(), np.zeros(2), 0.5), p)
    assert np.array_equal(zo_sgd_step(p.copy(), p.copy(), 1.0), np.zeros(2))


def test_sgd_two_steps_compose():
    g1, g2 = np.array([1.0, -1.0]), np.array([0.5, 2.0])
    p = np.array([3.0, 3.0])
    once = zo_sgd_step(zo_sgd_step(p.copy(), g1, 0.1), g2, 0.1)
    direct = p - 0.1 * (g1 + g2)
    assert np.allclose(once, direct, atol=1e-15)


def test_adam_zero_gradient_keeps_params():
    state = AdamState.zeros(3)
    p = np.array([1.0, -2.0, 0.5])
    for _ in range(50):
        state, p = zo_adam_step(state, p, np.zeros(3), lr=0.1)
    assert np.array_equal(p, [1.0, -2.0, 0.5])


def test_adam_constant_gradient_reaches_unit_steps():
    # with a fixed gradient the bias-corrected update tends to lr * sign(g)
    state = AdamState.zeros(2)
    p = np.zeros(2)
    g = np.array([3.0, -0.2])
    prev = p.copy()
    for _ in range(5000):
        prev = p.copy()
        state, p = zo_adam_step(state, p, g.copy(), lr=1e-3)
    step = p - prev
    assert np.allclose(step, -1e-3 * np.sign(g), rtol=1e-3)


def test_adam_matches_reference_implementation():
    rng = np.random.default_rng(8)
    dim = 7
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    ours_state = AdamState.zeros(dim)
    ours_p = rng.standard_normal(dim)
    ref_p = ours_p.copy()
    m = np.zeros(dim)
    v = np.zeros(dim)
    for t in range(1, 6):
        g = rng.standard_normal(dim)
        ours_state, ours_p = zo_adam_step(ours_state, ours_p, g.copy(), lr, b1, b2, eps)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref_p = ref_p - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        assert np.abs(ours_p - ref_p).max() < 1e-10
