"""Config text round trips: serialize, parse, environment overrides through load_config, and refused values."""

import re
from dataclasses import fields

import pytest

from photopinn.config import ENV_PREFIX, ConfigError, RunConfig, load_config, parse_config, serialize_config

# Every field away from its default.
CONFIG = RunConfig(
    problem_name="burgers",
    problem_sigma=0.0125,
    problem_lambda0=2.5,
    problem_lambdab=0.1,
    problem_margin=1e-3,
    problem_residual_points=77,
    problem_initial_points=11,
    problem_boundary_points=5,
    model_tensorized=False,
    model_rank=3,
    model_width=96,
    loss_mode="se",
    loss_level=2,
    loss_samples=17,
    zo_queries=4,
    zo_radius=0.1 + 0.2,
    zo_distribution="rademacher",
    zo_grouping="global",
    opt_algorithm="sgd",
    opt_lr=1.0 / 3.0,
    opt_beta1=0.8,
    opt_beta2=0.99,
    opt_eps=1e-12,
    opt_iterations=12,
    domain="phase",
    noise_bits=0,
    noise_gamma_std=0.01,
    noise_crosstalk=0.0,
    noise_phase_bias=True,
    noise_seed=9,
    run_seed=4,
    run_seeds=(3, 5, 8),
    run_out_dir="runs/#3",
    run_oracle_dir="oracles/a = b # c",
    run_log_every=7,
    run_eval_every=0,
    run_target_rel_l2=0.05,
)


def test_the_config_moves_every_field():
    default = RunConfig()
    for f in fields(RunConfig):
        assert getattr(CONFIG, f.name) != getattr(default, f.name), f.name


def test_serialize_parse_round_trip():
    assert parse_config(serialize_config(CONFIG), apply_env=False) == CONFIG


def test_only_whole_line_hashes_are_comments():
    text = "# a comment\n   # an indented comment\nrun.out_dir = runs/#3\n\nmodel.tensorized = false\n"
    cfg = parse_config(text, apply_env=False)
    assert cfg.run_out_dir == "runs/#3"
    assert cfg.model_tensorized is False


def test_every_field_overrides_through_the_environment(tmp_path, monkeypatch):
    path = tmp_path / "run.cfg"
    path.write_text(serialize_config(RunConfig()))
    for line in serialize_config(CONFIG).splitlines():
        key, value = (part.strip() for part in line.split("=", 1))
        monkeypatch.setenv(ENV_PREFIX + key.replace(".", "__").upper(), value)
    assert load_config(path) == CONFIG
    assert load_config(path, apply_env=False) == RunConfig()
    assert load_config(path, opt_lr=0.5).opt_lr == 0.5  # explicit arguments beat the environment


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("opt_lr", -1.0, "opt.lr must be > 0, got -1.0"),  # climbs the loss
        ("opt_lr", 0.0, "opt.lr must be > 0, got 0.0"),
        ("opt_lr", float("nan"), "opt.lr must be > 0, got nan"),
        ("opt_beta1", 1.0, "opt.beta1 must be in [0, 1), got 1.0"),  # Adam's bias correction divides by 1 - beta1^t
        ("opt_beta1", -0.1, "opt.beta1 must be in [0, 1), got -0.1"),
        ("opt_beta2", 1.0, "opt.beta2 must be in [0, 1), got 1.0"),
        ("opt_beta2", -0.5, "opt.beta2 must be in [0, 1), got -0.5"),
        ("opt_eps", 0.0, "opt.eps must be > 0, got 0.0"),
        ("opt_eps", -1e-8, "opt.eps must be > 0, got -1e-08"),
        ("opt_iterations", -3, "opt.iterations must be >= 0, got -3"),  # would run no step and exit 0
        ("run_eval_every", -1, "run.eval_every must be >= 0, got -1"),  # would evaluate every step
        ("run_seed", -1, "run.seed must be >= 0, got -1"),  # NumPy seeds must be non-negative
        ("run_seeds", (1, -2), "run.seeds must all be >= 0, got (1, -2)"),  # seed 1 would train before -2 failed
        ("run_seeds", (1, 1), "run.seeds must not repeat a seed, got (1, 1)"),  # both would write seed1/
        ("noise_seed", -3, "noise.seed must be >= 0, got -3"),
    ],
)
def test_invalid_optimizer_and_run_values_are_config_errors(field, value, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        RunConfig(**{field: value})


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("loss_level", 4, "loss.level must be 2|3, got 4"),  # the sparse grids stop at level 3
        ("loss_level", 1, "loss.level must be 2|3, got 1 (level 1 queries only the center, so every derivative"),
        ("loss_samples", 0, "loss.samples must be >= 1, got 0"),
        ("problem_sigma", -1.0, "problem.sigma must be >= 0, got -1.0"),
    ],
)
def test_invalid_stein_values_name_their_key(field, value, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        RunConfig(**{field: value})
