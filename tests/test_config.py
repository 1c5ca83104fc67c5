"""Config text round trips: serialize, parse, and environment overrides through load_config."""

from dataclasses import fields

from photopinn.config import ENV_PREFIX, RunConfig, load_config, parse_config, serialize_config

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
