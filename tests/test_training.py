"""Training outputs: every stochastic stream is keyed by (seed, step, ...), so
two runs of one config log the same rows and save the same theta."""

import json
from pathlib import Path

import numpy as np
import pytest

from photopinn.config import RunConfig, load_config
from photopinn.models import build_model
from photopinn import training
from photopinn.pde import black_scholes, get_problem, problems
from photopinn.reproduce import reproduce_table
from photopinn.training import evaluate_model, load_model, train


@pytest.mark.parametrize("domain", ["weight", "phase"])
def test_training_reruns_identically(domain, tmp_path):
    def run(out):
        cfg = RunConfig(
            problem_name="black-scholes",
            domain=domain,
            problem_residual_points=4,
            problem_initial_points=2,
            problem_boundary_points=2,
            opt_iterations=5,
            run_log_every=1,
            run_eval_every=2,
            run_seed=1,
            run_out_dir=str(tmp_path / out),
        )
        train(cfg)
        seed_dir = tmp_path / out / "black-scholes" / "seed1"
        lines = (seed_dir / "metrics.csv").read_text().splitlines()
        with np.load(seed_dir / "checkpoint.npz") as data:
            theta = data["theta"]
        return [line.rsplit(",", 1)[0] for line in lines], theta  # drop wall_time

    rows, theta = run("a")
    assert len(rows) == 7  # header, five logged steps, final
    rerun_rows, rerun_theta = run("b")
    assert rows == rerun_rows
    assert np.array_equal(theta, rerun_theta)


def test_the_query_column_counts_zo_queries_only(tmp_path):
    """The logged count is the ZO estimates' queries (2 x groups x probes per
    step); the query that logs each row's loss is not among them."""
    cfg = RunConfig(
        problem_name="black-scholes",
        problem_residual_points=4,
        problem_initial_points=2,
        problem_boundary_points=2,
        opt_iterations=2,
        run_log_every=1,
        run_out_dir=str(tmp_path),
    )
    report = train(cfg)
    seed_dir = tmp_path / "black-scholes" / f"seed{cfg.seeds[0]}"
    header, *rows = (seed_dir / "metrics.csv").read_text().splitlines()
    assert header == "step,loss,rel_l2,zo_queries,wall_time"
    per_step = 2 * 8  # per-tensor groups of BS TT: weight and bias, three cores and bias, weight and bias
    assert [int(row.split(",")[3]) for row in rows] == [per_step, 2 * per_step, 2 * per_step]
    assert json.loads((seed_dir / "report.txt").read_text())["zo_queries"] == 2 * per_step
    assert f"{2 * per_step} ZO loss queries" in report.summary()


def test_closed_form_holdout_reference_is_computed_once(monkeypatch):
    """Black-Scholes hold-out values come from `bs_exact` once per process;
    later evaluations, on fresh problem objects too, read the cached
    read-only array and give the same rel_l2 bit for bit."""
    monkeypatch.setattr(problems, "_HOLDOUT_REFERENCE", {})
    calls = []
    exact = black_scholes.bs_exact

    def counted(x, t):
        calls.append(len(x))
        return exact(x, t)

    monkeypatch.setattr(black_scholes, "bs_exact", counted)
    model = build_model("black-scholes", tensorized=True, seed=0)
    results = [evaluate_model(model, get_problem("black-scholes")) for _ in range(3)]
    assert calls == [20_301]
    rels = np.array([rel for rel, *_ in results])
    assert np.array_equal(rels.view(np.uint64), np.full(3, rels[0]).view(np.uint64))
    _, pts, _, ref = results[-1]
    assert not ref.flags.writeable
    assert np.array_equal(pts, get_problem("black-scholes").holdout_points())
    assert np.array_equal(ref, exact(pts[:, 0], pts[:, 1]))


@pytest.mark.parametrize("target,steps", [(0.0, 2), (10.0, 1)], ids=["every-step", "target-stop"])
def test_the_holdout_is_evaluated_once_per_theta(target, steps, tmp_path, monkeypatch):
    """At run.eval_every = 1 the last step's evaluation is the final one: two
    steps evaluate twice, and a run.target_rel_l2 stop after step 1 once.
    The final row and report.txt read what a fresh evaluation of the saved
    theta gives, as when the final row evaluated again."""
    thetas = []

    def counted(model, problem):
        thetas.append(model.get_flat())
        return evaluate_model(model, problem)

    monkeypatch.setattr(training, "evaluate_model", counted)
    cfg = RunConfig(
        problem_name="black-scholes",
        problem_residual_points=4,
        problem_initial_points=2,
        problem_boundary_points=2,
        opt_iterations=2,
        run_eval_every=1,
        run_target_rel_l2=target,
        run_out_dir=str(tmp_path),
    )
    train(cfg)
    assert len(thetas) == steps
    seed_dir = tmp_path / "black-scholes" / f"seed{cfg.seeds[0]}"
    model, _ = load_model(seed_dir / "checkpoint.npz")
    assert np.array_equal(thetas[-1], model.get_flat())
    rel = evaluate_model(model, get_problem("black-scholes"))[0]
    *logged, final = (seed_dir / "metrics.csv").read_text().splitlines()
    assert final.rsplit(",", 1)[0] == f"{steps},final,{rel:.8e},{2 * 8 * steps}"
    assert logged[-1].split(",")[2] == f"{rel:.8e}"
    report = json.loads((seed_dir / "report.txt").read_text())
    del report["wall_time"]
    assert report == {
        "seed": cfg.seeds[0],
        "steps_run": steps,
        "stopped_early": target > 0,
        "final_rel_l2": rel,
        "zo_queries": 2 * 8 * steps,
    }


def test_the_committed_table2_bs_configs_feed_reproduce(tmp_path, monkeypatch):
    """configs/table2-bs/{tt,standard}.cfg write the run directories that
    `reproduce --table table2-bs` reads: one iteration of each, run from a
    temporary directory, gives the rel_l2 of its first two rows."""
    configs = Path(__file__).resolve().parents[1] / "configs" / "table2-bs"
    monkeypatch.chdir(tmp_path)
    got = []
    for variant in ("tt", "standard"):
        cfg = load_config(configs / f"{variant}.cfg", apply_env=False, opt_iterations=1)
        assert Path(cfg.run_out_dir) == Path("artifacts/table2-bs") / f"bs_zo_{variant}"
        got.append(float(f"{train(cfg).mean_rel_l2:.6e}"))  # report.txt keeps 7 digits
    rows, _ = reproduce_table("table2-bs", str(tmp_path / "artifacts" / "table2-bs"))
    assert [rows[0][1], rows[1][1]] == got
