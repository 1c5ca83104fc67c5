"""Sampling and loss assembly of the four problems.

The golden terms below are `float.hex` values recorded when the initial and
boundary terms still had separate code paths; the shared path must give
them bit for bit.  They evaluate a fixed polynomial, not a network, so they
pin the batch, the Stein plan, the data targets and the weighted sum alone.
Rounding of the BLAS dot products in `SteinPlan.combine` enters them, so a
BLAS with another summation order may move their last bits.
"""

import numpy as np
import pytest

from photopinn.config import RunConfig
from photopinn.pde import black_scholes as bs
from photopinn.pde import get_problem, pinn_loss, sample_batch
from photopinn.training import config_problem, config_stein

GOLDEN = {
    ("black-scholes", 0): {
        "residual": "0x1.f0107389bb1c1p+17",
        "initial": "0x1.75fadd0958ab7p+24",
        "boundary": "0x1.8306650aaf5d7p+25",
        "total": "0x1.1ff9f20172b72p+26",
    },
    ("black-scholes", 5): {
        "residual": "0x1.e62be22c2ea9fp+17",
        "initial": "0x1.7203cc7e48e85p+24",
        "boundary": "0x1.82a7177f58813p+25",
        "total": "0x1.1ec794d054920p+26",
    },
    ("hjb", 0): {"residual": "0x1.4aab1cece5c9dp+7", "total": "0x1.4aab1cece5c9dp+7"},
    ("hjb", 5): {"residual": "0x1.49e2755dc35c6p+7", "total": "0x1.49e2755dc35c6p+7"},
    ("burgers", 0): {
        "residual": "0x1.7fe1ef58a231bp+3",
        "initial": "0x1.f63f9833bbd40p+0",
        "boundary": "0x1.1d976b9447b66p+2",
        "total": "0x1.26bacc149ec3bp+4",
    },
    ("burgers", 5): {
        "residual": "0x1.8d0b229ecf7ecp+3",
        "initial": "0x1.0140b6b982434p+1",
        "boundary": "0x1.1fd512b30f46fp+2",
        "total": "0x1.2ea2ecd35bd98p+4",
    },
    ("darcy", 0): {"residual": "0x1.c353f7cea437fp+5", "total": "0x1.c353f7cea437fp+5"},
    ("darcy", 5): {"residual": "0x1.e6e5604173cfap+5", "total": "0x1.e6e5604173cfap+5"},
}

# (time or space coord, value) of each side, per data term, stated apart from the descriptors
FACES = {
    "black-scholes": {"initial": [(1, bs.HORIZON)], "boundary": [(0, 0.0), (0, bs.X_MAX)]},
    "burgers": {"initial": [(1, 0.0)], "boundary": [(0, -1.0), (0, 1.0)]},
}


def poly(X):
    """A smooth solution with non-zero first and second derivatives in every coordinate."""
    X = np.asarray(X, dtype=float)
    linear = (X * np.linspace(0.3, 1.1, X.shape[1])).sum(axis=1)
    return 1.0 + linear + 0.25 * (X * X).sum(axis=1) + X[:, 0] * X[:, -1]


@pytest.mark.parametrize("name,step", sorted(GOLDEN))
def test_loss_terms_match_the_recorded_bits(name, step):
    cfg = RunConfig(problem_name=name, problem_residual_points=500 if name == "darcy" else 0)
    problem = config_problem(cfg)
    _, terms = pinn_loss(poly, problem, config_stein(cfg, problem, 3), batch_seed=3, step=step)
    assert {key: value.hex() for key, value in terms.items()} == GOLDEN[name, step]


@pytest.mark.parametrize("name", sorted(FACES))
@pytest.mark.parametrize(
    "counts,margin",
    [((0, 0, 0), 0.0), ((7, 3, 4), 0.1)],
    ids=["default-counts", "overridden-counts-and-margin"],
)
def test_data_rows_lie_on_their_faces_in_the_configured_counts(name, counts, margin):
    defaults = {"black-scholes": (100, 10, 10), "burgers": (1200, 100, 100)}[name]
    want = dict(zip(("residual", "initial", "boundary"), (c or d for c, d in zip(counts, defaults))))
    cfg = RunConfig(
        problem_name=name,
        problem_residual_points=counts[0],
        problem_initial_points=counts[1],
        problem_boundary_points=counts[2],
        problem_margin=margin,
    )
    problem = config_problem(cfg)
    span = problem.hi - problem.lo
    lo, hi = problem.lo + margin * span, problem.hi - margin * span
    for step in (0, 5):
        batch = sample_batch(problem, 3, step)
        assert list(batch) == ["residual", "initial", "boundary"]
        assert batch["residual"].shape == (want["residual"], 2)
        assert np.all((batch["residual"] >= lo) & (batch["residual"] <= hi))
        for term, faces in FACES[name].items():
            pts = batch[term]
            assert pts.shape == (want[term] * len(faces), 2)
            for (coord, value), side in zip(faces, np.split(pts, len(faces))):
                assert np.all(side[:, coord] == value)
                free = 1 - coord
                assert np.all((side[:, free] >= lo[free]) & (side[:, free] <= hi[free]))


def test_darcy_residual_points_are_distinct_grid_nodes():
    problem = get_problem("darcy", points={"residual": 500})
    batch = sample_batch(problem, 3, 0)
    axis = np.linspace(0.0, 1.0, 241)
    assert list(batch) == ["residual"] and batch["residual"].shape == (500, 2)
    assert np.all(np.isin(batch["residual"], axis))
    assert len(np.unique(batch["residual"], axis=0)) == 500


@pytest.mark.parametrize("name", ["black-scholes", "burgers"])
def test_total_is_residual_plus_weighted_initial_plus_weighted_boundary(name):
    """Exactly, summed left to right: over these ten steps every other order
    of the three additions rounds differently at least once."""
    cfg = RunConfig(problem_name=name, problem_lambda0=0.7, problem_lambdab=3.3)
    problem = config_problem(cfg)
    stein = config_stein(cfg, problem, 3)
    for step in range(10):
        _, terms = pinn_loss(poly, problem, stein, batch_seed=3, step=step)
        assert list(terms) == ["residual", "initial", "boundary", "total"]
        assert terms["total"] == terms["residual"] + 0.7 * terms["initial"] + 3.3 * terms["boundary"]


@pytest.mark.parametrize("name", ["hjb", "darcy"])
def test_a_problem_without_data_terms_ignores_their_weights(name):
    problem = get_problem(name, points={"residual": 50}, weights={"initial": 3.0, "boundary": 4.0})
    stein = config_stein(RunConfig(problem_name=name), problem, 3)
    _, terms = pinn_loss(poly, problem, stein, batch_seed=3, step=0)
    assert list(terms) == ["residual", "total"] and terms["total"] == terms["residual"]


@pytest.mark.parametrize("name", ["hjb", "darcy"])
def test_keys_a_problem_ignores_are_accepted_at_their_defaults(name):
    """Every key a run ignores, set to its default where the run ignores it."""
    ignored = [
        # the weight domain ignores noise.*, loss.mode = se ignores loss.level
        dict(domain="weight", noise_bits=8, noise_gamma_std=0.002, noise_crosstalk=0.005, noise_phase_bias=False,
             noise_seed=0, loss_mode="se", loss_level=3),
        # the phase domain with noise.bits > 0 ignores zo.radius, loss.mode = sg ignores loss.samples
        dict(domain="phase", zo_radius=0.01, loss_mode="sg", loss_samples=2048),
    ]
    for setting in ignored:
        cfg = RunConfig(
            problem_name=name,
            problem_initial_points=0,
            problem_boundary_points=0,
            problem_lambda0=1.0,
            problem_lambdab=1.0,
            problem_margin=0.0,
            model_tensorized=False,
            model_rank=2,
            opt_algorithm="sgd",
            opt_beta1=0.9,
            opt_beta2=0.999,
            opt_eps=1e-8,
            **setting,
        )
        assert config_problem(cfg).data == ()


@pytest.mark.parametrize("sigma,want", [(0.0, 0.1), (0.02, 0.02)])
def test_stein_sigma_is_the_problem_sigma(sigma, want):
    cfg = RunConfig(problem_name="hjb", problem_sigma=sigma)
    assert config_stein(cfg, config_problem(cfg), 0).sigma == want
    assert config_problem(cfg).sigma_default == want
