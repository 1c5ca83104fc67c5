"""Experiment runner: builds the model and problem from a RunConfig, drives the
zeroth-order loop, logs metric rows, and writes checkpoints.

One call to `train` executes every seed in the config sequentially and
reports mean and std of the final hold-out error.  Per-seed outputs land in
`<out_dir>/<name>/seed<k>/`: metrics.csv (step, loss, rel_l2, zo_queries,
wall_time), checkpoint.npz, report.txt.  `zo_queries` counts the loss queries
of the ZO gradient estimates (2 x groups x probes per step); the query that
logs a row's loss is not among them.  All stochastic streams are keyed by
(seed, step, ...) so reruns reproduce every column except wall_time.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, parse_config, serialize_config
from .models import Architecture, architecture, build_model, build_phase_model
from .pde import get_problem, holdout_reference, pinn_loss, relative_l2, step_inputs
from .pde.problems import PinnProblem
from .quadrature import SteinConfig
from .zo import AdamState, DivergenceError, ParamView, ZoConfig, rge_estimate, zo_adam_step, zo_sgd_step

__all__ = [
    "train",
    "evaluate_model",
    "RunReport",
    "build_run_model",
    "config_architecture",
    "step_loss",
    "load_model",
    "NumericalFailure",
]


class NumericalFailure(RuntimeError):
    """Training aborted on a non-finite loss; the state dump path is attached."""

    def __init__(self, message: str, dump_path: str | None = None):
        super().__init__(message)
        self.dump_path = dump_path


@dataclass
class SeedResult:
    seed: int
    steps_run: int
    final_rel_l2: float
    queries: int  # ZO loss queries, as in metrics.csv's zo_queries
    wall_time: float
    out_dir: str


@dataclass
class RunReport:
    config_hash: str
    results: list[SeedResult] = field(default_factory=list)

    @property
    def mean_rel_l2(self) -> float:
        return float(np.mean([r.final_rel_l2 for r in self.results]))

    @property
    def std_rel_l2(self) -> float:
        return float(np.std([r.final_rel_l2 for r in self.results]))

    def summary(self) -> str:
        lines = [f"config {self.config_hash}"]
        for r in self.results:
            lines.append(
                f"seed {r.seed}: rel_l2 {r.final_rel_l2:.6e} after {r.steps_run} steps, "
                f"{r.queries} ZO loss queries, {r.wall_time:.1f} s"
            )
        lines.append(f"mean rel_l2 {self.mean_rel_l2:.6e} +- {self.std_rel_l2:.2e}")
        return "\n".join(lines)


# The config keys a run can ignore: (key, whether the run (cfg, problem) ignores
# it, why).  A value away from the key's default is then a ConfigError.
_IGNORED_KEYS = (
    *((f"problem.{key}", lambda c, p, term=term: term not in {t.name for t in p.data}, f"it has no {term} term")
      for key, term in (("initial_points", "initial"), ("lambda0", "initial"),
                        ("boundary_points", "boundary"), ("lambdab", "boundary"))),
    ("problem.margin", lambda c, p: p.fixed_grid and not p.data, "its residual points come from a fixed grid"),
    ("zo.radius", lambda c, p: c.domain == "phase" and c.noise_bits > 0, "the radius is one phase step, 2*pi/2^bits"),
    *((f"noise.{name}", lambda c, p: c.domain == "weight", "the weight domain has no hardware noise")
      for name in ("bits", "gamma_std", "crosstalk", "phase_bias", "seed")),
    ("model.rank", lambda c, p: not c.model_tensorized, "model.tensorized = false has no TT layer"),
    ("loss.samples", lambda c, p: c.loss_mode == "sg", "loss.mode = sg takes a sparse grid, not samples"),
    ("loss.level", lambda c, p: c.loss_mode == "se", "loss.mode = se takes samples, not a sparse grid"),
    *((f"opt.{name}", lambda c, p: c.opt_algorithm == "sgd", "opt.algorithm = sgd keeps no moments")
      for name in ("beta1", "beta2", "eps")),
    ("run.seed", lambda c, p: bool(c.run_seeds), "run.seeds lists the seeds to run"),
    *((f"run.{name}", lambda c, p: p.reference is None, "it has no hold-out reference (no oracle in run.oracle_dir)")
      for name in ("eval_every", "target_rel_l2")),
)


def config_problem(cfg: RunConfig) -> PinnProblem:
    """The configured problem; a config value the run would ignore is a ConfigError."""
    problem = get_problem(
        cfg.problem_name,
        sigma=cfg.problem_sigma,
        points={
            "residual": cfg.problem_residual_points,
            "initial": cfg.problem_initial_points,
            "boundary": cfg.problem_boundary_points,
        },
        weights={"initial": cfg.problem_lambda0, "boundary": cfg.problem_lambdab},
        oracle_dir=cfg.run_oracle_dir,
        sample_margin=cfg.problem_margin,
    )
    for key, ignored, reason in _IGNORED_KEYS:
        value, default = (getattr(obj, key.replace(".", "_")) for obj in (cfg, RunConfig))
        if value != default and ignored(cfg, problem):
            raise ConfigError(f"{key} = {value!r} has no effect on {problem.name}: {reason}")
    return problem


def config_stein(cfg: RunConfig, problem: PinnProblem, seed: int) -> SteinConfig:
    sigma = problem.sigma_default
    if cfg.loss_mode == "sg":
        return SteinConfig(sigma=sigma, mode="sparse-grid", level=cfg.loss_level)
    return SteinConfig(sigma=sigma, mode="monte-carlo", samples=cfg.loss_samples, seed=seed)


def config_architecture(cfg: RunConfig) -> Architecture:
    return architecture(cfg.problem_name, cfg.model_tensorized, cfg.model_rank, cfg.model_width or None)


def build_run_model(cfg: RunConfig, seed: int):
    """Weight- or phase-domain model for the configured problem."""
    args = (cfg.problem_name, cfg.model_tensorized, cfg.model_rank, cfg.model_width or None, seed)
    if cfg.domain == "weight":
        return build_model(*args)
    from .photonic.noise import NoiseModel  # imported here, so a weight-domain run loads no photonic module

    noise = NoiseModel(
        bits=cfg.noise_bits or None,
        gamma_std=cfg.noise_gamma_std,
        crosstalk=cfg.noise_crosstalk,
        phase_bias=cfg.noise_phase_bias,
        seed=cfg.noise_seed,
    )
    return build_phase_model(*args, noise=noise)


def evaluate_model(model, problem: PinnProblem):
    """Hold-out relative l2 of the (transformed) solution, plus the field dump."""
    pts, ref = holdout_reference(problem)
    solution = problem.transform(model)
    pred = np.asarray(solution(pts), dtype=float)
    return relative_l2(pred, ref), pts, pred, ref


def step_loss(model, problem: PinnProblem, stein: SteinConfig, seed: int, step: int):
    """The training loss of one ZO step as a function of theta, with a `pairs` method.

    The step's batch, Stein plan and evaluation points are built once and
    shared by every query, and each loss value is one `pinn_loss` call.
    `loss(theta)` runs one plain forward.  `loss.pairs(theta, probes)` gives
    the values at theta[sl] +/- delta for every probe (sl, delta) of the step
    from one `model.pairs` pass over the rows, then one `pinn_loss` per
    output column.  They equal two plain queries bit for bit, except on a
    weight-domain weight segment with at most the output layer above it,
    whose product is split as (P +/- D) + b: there they agree within ~5e-9
    relative (the `nets` module docstring; tests/test_reuse.py).
    """
    inputs = step_inputs(problem, stein, seed, step)

    def value(solution) -> float:
        return pinn_loss(problem.transform(solution), problem, stein, seed, step, inputs)[0]

    def loss(theta):
        model.set_flat(theta)
        return value(model)

    def pairs(theta, probes):
        model.set_flat(theta)
        outputs = model.pairs(inputs.points, probes)
        return [tuple(value(lambda X, u=u: u) for u in pair) for pair in outputs]

    loss.pairs = pairs
    return loss


def _config_hash(cfg: RunConfig) -> str:
    return hashlib.md5(serialize_config(cfg).encode()).hexdigest()[:12]


def train(cfg: RunConfig, verbose: bool = False) -> RunReport:
    report = RunReport(config_hash=_config_hash(cfg))
    for seed in cfg.seeds:
        report.results.append(_train_one_seed(cfg, seed, verbose))
    base = Path(cfg.run_out_dir) / cfg.problem_name
    base.mkdir(parents=True, exist_ok=True)
    (base / "report.txt").write_text(report.summary() + "\n")
    return report


def _train_one_seed(cfg: RunConfig, seed: int, verbose: bool) -> SeedResult:
    model = build_run_model(cfg, seed)
    problem = config_problem(cfg)
    stein = config_stein(cfg, problem, seed)
    out_dir = Path(cfg.run_out_dir) / cfg.problem_name / f"seed{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.cfg").write_text(serialize_config(cfg))

    theta = model.get_flat()
    view = ParamView.from_segments(model.segments())
    zo_cfg = ZoConfig(
        queries=cfg.zo_queries,
        radius=cfg.zo_radius_effective(),
        distribution=cfg.zo_distribution_effective(),
        grouping=cfg.zo_grouping,
        seed=seed,
    )
    adam = AdamState.zeros(len(theta))
    queries = 0
    rel = float("nan")
    can_eval = problem.reference is not None
    rows = [("step", "loss", "rel_l2", "zo_queries", "wall_time")]
    t0 = time.perf_counter()
    steps_run = 0
    stopped_early = False

    try:
        for step in range(cfg.opt_iterations):
            fn = step_loss(model, problem, stein, seed, step)
            grad, q = rge_estimate(fn, theta, view, zo_cfg, step=step)
            queries += q
            if cfg.opt_algorithm == "adam":
                adam, theta = zo_adam_step(
                    adam, theta, grad, cfg.opt_lr, cfg.opt_beta1, cfg.opt_beta2, cfg.opt_eps
                )
            else:
                theta = zo_sgd_step(theta, grad, cfg.opt_lr)
            steps_run = step + 1
            do_eval = can_eval and cfg.run_eval_every and (step + 1) % cfg.run_eval_every == 0
            if do_eval:
                model.set_flat(theta)
                rel = evaluate_model(model, problem)[0]
            if (step + 1) % cfg.run_log_every == 0 or do_eval or step == cfg.opt_iterations - 1:
                loss_now = fn(theta)
                if not np.isfinite(loss_now):
                    raise DivergenceError(f"non-finite loss at step {step + 1}")
                rows.append(
                    (step + 1, f"{loss_now:.8e}", f"{rel:.8e}", queries, f"{time.perf_counter() - t0:.3f}")
                )
                if verbose:
                    print(f"[seed {seed}] step {step + 1}: loss {loss_now:.4e} rel_l2 {rel:.4e}")
            if do_eval and cfg.run_target_rel_l2 > 0 and rel <= cfg.run_target_rel_l2:
                stopped_early = True
                break
    except DivergenceError as exc:
        dump = out_dir / "divergence_dump.npz"
        np.savez(dump, theta=theta, step=steps_run)
        _write_rows(out_dir / "metrics.csv", rows)
        raise NumericalFailure(f"{exc} (state dumped)", str(dump)) from exc

    model.set_flat(theta)
    if can_eval:
        rel = evaluate_model(model, problem)[0]
    wall = time.perf_counter() - t0
    rows.append((steps_run, "final", f"{rel:.8e}", queries, f"{wall:.3f}"))
    _write_rows(out_dir / "metrics.csv", rows)
    _save_model(out_dir / "checkpoint.npz", cfg, model, seed, steps_run)
    meta = {
        "seed": seed,
        "steps_run": steps_run,
        "stopped_early": stopped_early,
        "final_rel_l2": rel,
        "zo_queries": queries,
        "wall_time": wall,
    }
    (out_dir / "report.txt").write_text(json.dumps(meta, indent=2) + "\n")
    return SeedResult(seed, steps_run, rel, queries, wall, str(out_dir))


def _write_rows(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def _save_model(path, cfg: RunConfig, model, seed: int, iteration: int) -> None:
    """One format for both domains: the JSON spec (config, seed, iteration) plus theta."""
    spec = {"domain": cfg.domain, "seed": seed, "iteration": iteration, "config": serialize_config(cfg)}
    np.savez(path, spec=np.frombuffer(json.dumps(spec).encode(), dtype=np.uint8), theta=model.get_flat())


def load_model(path):
    """Rebuild a trained model from its checkpoint; returns (model, spec)."""
    with np.load(path) as data:
        spec = json.loads(bytes(data["spec"]).decode())
        theta = data["theta"]
    model = build_run_model(parse_config(spec["config"], apply_env=False), spec["seed"])
    model.set_flat(theta)
    return model, spec
