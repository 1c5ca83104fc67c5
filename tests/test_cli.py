"""Command-line exit codes and outputs, and the input errors behind them.

MZI totals are pinned values: one device per phase of the phase layers a
run of each problem and layer kind trains.
"""

import pytest

from photopinn import training
from photopinn.cli import EXIT_CONFIG, EXIT_NUMERICAL, main
from photopinn.config import RunConfig, parse_config
from photopinn.training import NumericalFailure, _save_model, build_run_model, config_problem, evaluate_model


# A Burgers run whose oracle directory holds no gridded reference.
_NO_ORACLE = "problem.name = burgers\nrun.oracle_dir = no-such-oracle-dir"


def _write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("table", ["cost", "sparse-grid-counts", "params", "mzi"])
def test_reproduce_tables_pass(table, capsys):
    assert main(["reproduce", "--table", table]) == 0
    assert capsys.readouterr().out.rstrip().endswith("overall: pass")


@pytest.mark.parametrize(
    "problem,tensorized,total",
    [
        ("black-scholes", True, 2240),
        ("black-scholes", False, 18432),
        ("hjb", True, 4519),
        ("hjb", False, 278528),
        ("burgers", True, 2222),
        ("burgers", False, 34112),
        ("darcy", True, 2222),
        ("darcy", False, 34112),
    ],
)
def test_mzi_count_totals(problem, tensorized, total, tmp_path, capsys):
    cfg = _write_config(tmp_path, f"problem.name = {problem}\nmodel.tensorized = {str(tensorized).lower()}\n")
    assert main(["mzi-count", "--model", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    counts = [int(line.split(",")[1]) for line in lines[1:-1]]
    assert lines[-1] == f"total,{total}" and sum(counts) == total


@pytest.mark.parametrize(
    "key,raw,expected",
    [
        ("model.rank", "two", "an integer"),
        ("opt.lr", "fast", "a number"),
        ("run.seeds", "1,x", "comma-separated integers"),
    ],
)
@pytest.mark.parametrize("source", ["file", "env"])
def test_train_with_bad_value_exits_2(source, key, raw, expected, tmp_path, monkeypatch, capsys):
    if source == "env":
        monkeypatch.setenv("PHOTOPINN_" + key.replace(".", "__").upper(), raw)
        cfg = _write_config(tmp_path, "")
    else:
        cfg = _write_config(tmp_path, f"{key} = {raw}\n")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "runs")]) == EXIT_CONFIG
    assert f"config error: {key}: expected {expected}, got '{raw}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,message",
    [
        ("model.width = 64\n", "model.width=64 does not fit"),
        ("model.rank = 0\n", "model.rank must be >= 1"),
        ("model.tensorized = false\nmodel.width = -8\n", "model.width must be >= 1"),
        ("problem.name = heat\n", "unknown problem 'heat'"),
    ],
)
def test_train_with_unbuildable_model_exits_2(text, message, tmp_path, capsys):
    cfg = _write_config(tmp_path, text)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "runs")]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "key,raw,message",
    [
        ("zo.grouping", "bogus", "zo.grouping must be global|per-tensor, got 'bogus'"),
        ("zo.distribution", "uniform", "zo.distribution must be gaussian|rademacher, got 'uniform'"),
        ("zo.queries", "0", "zo.queries must be >= 1, got 0"),
        ("zo.radius", "-1", "zo.radius must be > 0, got -1.0"),
        ("run.log_every", "0", "run.log_every must be >= 1, got 0"),
    ],
    ids=["zo.grouping", "zo.distribution", "zo.queries", "zo.radius", "run.log_every"],
)
def test_train_with_invalid_zo_or_log_value_exits_2_before_writing(key, raw, message, tmp_path, capsys):
    cfg = _write_config(tmp_path, f"{key} = {raw}\n")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "runs")]) == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "key,raw,message",
    [
        ("noise.bits", "-1", "noise.bits must be >= 0, got -1"),
        ("noise.gamma_std", "-1", "noise.gamma_std must be >= 0, got -1.0"),
        ("noise.crosstalk", "-1", "noise.crosstalk must be in [0, 1), got -1.0"),
        ("noise.crosstalk", "1", "noise.crosstalk must be in [0, 1), got 1.0"),
        ("problem.residual_points", "-5", "problem.residual_points must be >= 0, got -5"),
        ("problem.initial_points", "-1", "problem.initial_points must be >= 0, got -1"),
        ("problem.boundary_points", "-1", "problem.boundary_points must be >= 0, got -1"),
        ("problem.lambda0", "-1", "problem.lambda0 must be >= 0, got -1.0"),
        ("problem.lambdab", "nan", "problem.lambdab must be >= 0, got nan"),
        ("problem.margin", "0.7", "problem.margin must be in [0, 0.5), got 0.7"),
        ("problem.margin", "0.5", "problem.margin must be in [0, 0.5), got 0.5"),
        ("problem.margin", "-0.1", "problem.margin must be in [0, 0.5), got -0.1"),
    ],
    ids=[
        "noise.bits",
        "noise.gamma_std",
        "noise.crosstalk-negative",
        "noise.crosstalk-one",
        "problem.residual_points",
        "problem.initial_points",
        "problem.boundary_points",
        "problem.lambda0-negative",
        "problem.lambdab-nan",
        "problem.margin-above-half",
        "problem.margin-half",
        "problem.margin-negative",
    ],
)
def test_train_with_invalid_noise_or_point_count_exits_2_before_writing(key, raw, message, tmp_path, capsys):
    cfg = _write_config(tmp_path, f"domain = phase\n{key} = {raw}\n")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "runs")]) == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "setting,key,raw,message",
    [
        ("problem.name = hjb", "problem.initial_points", "7", "problem.initial_points = 7 has no effect on hjb: it has no initial"),
        ("problem.name = hjb", "problem.lambda0", "5", "problem.lambda0 = 5.0 has no effect on hjb: it has no initial term"),
        ("problem.name = darcy", "problem.boundary_points", "3", "problem.boundary_points = 3 has no effect on darcy: it has no"),
        ("problem.name = darcy", "problem.lambdab", "0", "problem.lambdab = 0.0 has no effect on darcy: it has no boundary term"),
        ("problem.name = darcy", "problem.margin", "0.1", "problem.margin = 0.1 has no effect on darcy: its residual points come"),
        ("domain = phase", "zo.radius", "0.5", "zo.radius = 0.5 has no effect on black-scholes: the radius is one phase step"),
        ("domain = weight", "noise.bits", "4", "noise.bits = 4 has no effect on black-scholes: the weight domain has no"),
        ("domain = weight", "noise.gamma_std", "0.01", "noise.gamma_std = 0.01 has no effect on black-scholes: the weight"),
        ("domain = weight", "noise.crosstalk", "0.5", "noise.crosstalk = 0.5 has no effect on black-scholes: the weight"),
        ("domain = weight", "noise.phase_bias", "true", "noise.phase_bias = True has no effect on black-scholes: the weight"),
        ("domain = weight", "noise.seed", "3", "noise.seed = 3 has no effect on black-scholes: the weight domain has no"),
        ("model.tensorized = false", "model.rank", "4", "model.rank = 4 has no effect on black-scholes: model.tensorized"),
        ("loss.mode = sg", "loss.samples", "100", "loss.samples = 100 has no effect on black-scholes: loss.mode = sg"),
        ("loss.mode = se", "loss.level", "2", "loss.level = 2 has no effect on black-scholes: loss.mode = se takes"),
        ("opt.algorithm = sgd", "opt.beta1", "0.8", "opt.beta1 = 0.8 has no effect on black-scholes: opt.algorithm = sgd"),
        ("opt.algorithm = sgd", "opt.beta2", "0.99", "opt.beta2 = 0.99 has no effect on black-scholes: opt.algorithm"),
        ("opt.algorithm = sgd", "opt.eps", "1e-6", "opt.eps = 1e-06 has no effect on black-scholes: opt.algorithm = sgd"),
        ("run.seeds = 1", "run.seed", "5", "run.seed = 5 has no effect on black-scholes: run.seeds lists the seeds"),
        (_NO_ORACLE, "run.eval_every", "5", "run.eval_every = 5 has no effect on burgers: it has no hold-out reference"),
        (_NO_ORACLE, "run.target_rel_l2", "0.1", "run.target_rel_l2 = 0.1 has no effect on burgers: it has no hold-out"),
    ],
    ids=[
        "hjb-initial_points",
        "hjb-lambda0",
        "darcy-boundary_points",
        "darcy-lambdab",
        "darcy-margin",
        "phase-zo.radius",
        "weight-noise.bits",
        "weight-noise.gamma_std",
        "weight-noise.crosstalk",
        "weight-noise.phase_bias",
        "weight-noise.seed",
        "dense-model.rank",
        "sg-loss.samples",
        "se-loss.level",
        "sgd-opt.beta1",
        "sgd-opt.beta2",
        "sgd-opt.eps",
        "seeds-run.seed",
        "no-reference-run.eval_every",
        "no-reference-run.target_rel_l2",
    ],
)
def test_train_with_a_key_the_problem_ignores_exits_2_before_writing(setting, key, raw, message, tmp_path, capsys):
    cfg = _write_config(tmp_path, f"{setting}\n{key} = {raw}\n")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "runs"), "--iterations", "1"]) == EXIT_CONFIG
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_a_problem_without_a_reference_takes_the_default_run_keys(tmp_path):
    """The keys above are refused only away from their defaults, so a default
    Burgers run with no oracle built still trains."""
    cfg = RunConfig(problem_name="burgers", run_oracle_dir=str(tmp_path / "no-oracles"))
    assert config_problem(cfg).reference is None


@pytest.mark.parametrize("domain", ["weight", "phase"])
@pytest.mark.parametrize("source", ["config", "checkpoint"])
def test_model_inspect_lists_tt_layouts(domain, source, tmp_path, capsys):
    text = f"problem.name = burgers\ndomain = {domain}\nrun.seed = 2\n"
    path = _write_config(tmp_path, text)
    if source == "checkpoint":
        cfg = parse_config(text, apply_env=False)
        path = str(tmp_path / "checkpoint.npz")
        _save_model(path, cfg, build_run_model(cfg, 2), 2, 9)
    assert main(["model", "inspect", f"--{source}", path]) == 0
    out = capsys.readouterr().out
    layouts = [line.strip() for line in out.splitlines() if "TT layout" in line]
    assert layouts == [
        f"layer{k} TT layout: in (4, 5, 5) out (5, 5, 4) ranks (1, 2, 2, 1)" for k in (1, 2, 3)
    ]
    if source == "checkpoint":
        assert "seed 2, iteration 9" in out


def test_evaluate_takes_the_problem_from_the_checkpoint(tmp_path, capsys):
    cfg = parse_config("problem.name = black-scholes\nrun.seed = 1\n", apply_env=False)
    model = build_run_model(cfg, 1)
    path = str(tmp_path / "checkpoint.npz")
    _save_model(path, cfg, model, 1, 0)
    assert main(["evaluate", "--checkpoint", path]) == 0
    rel = evaluate_model(model, config_problem(cfg))[0]
    assert capsys.readouterr().out.split()[:2] == ["relative_l2", f"{rel:.8e}"]


@pytest.mark.parametrize("problem", ["burgers", "darcy"])
def test_evaluate_without_a_gridded_reference_exits_2(problem, tmp_path, capsys):
    cfg = parse_config(f"problem.name = {problem}\n", apply_env=False)
    path = str(tmp_path / "checkpoint.npz")
    _save_model(path, cfg, build_run_model(cfg, 0), 0, 0)
    assert main(["evaluate", "--checkpoint", path, "--oracle-dir", str(tmp_path / "nowhere")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"reference for '{problem}' is not available" in err


def test_numerical_failure_exits_3(tmp_path, monkeypatch, capsys):
    def fail(cfg, verbose=False):
        raise NumericalFailure("loss is nan at step 4")

    monkeypatch.setattr(training, "train", fail)
    cfg = _write_config(tmp_path, "")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "runs")]) == EXIT_NUMERICAL
    assert "numerical failure: loss is nan at step 4" in capsys.readouterr().err


def test_errors_outside_the_input_propagate(tmp_path, monkeypatch):
    def fail(cfg, verbose=False):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(training, "train", fail)
    cfg = _write_config(tmp_path, "")
    with pytest.raises(ValueError, match="broadcast"):
        main(["train", "--config", cfg, "--out", str(tmp_path / "runs")])


@pytest.mark.parametrize(
    "argv",
    [
        ["cost", "--arch", "nope"],
        ["reproduce", "--table", "nope"],
        ["evaluate", "--checkpoint", "c.npz", "--problem", "hjb"],
    ],
)
def test_bad_arguments_exit_2_before_any_output(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv,message",
    [
        (["grid", "--dim", "0", "--level", "2"], "dim must be >= 1"),
        (["grid", "--dim", "2", "--level", "4"], "level 4 not supported"),
        (["mzi-count", "--model", "missing.cfg"], "missing.cfg"),
    ],
)
def test_input_errors_exit_2(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_CONFIG
    assert message in capsys.readouterr().err
