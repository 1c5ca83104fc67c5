"""Benchmark descriptors, collocation sampling, and the smoothed PINN loss.

A `PinnProblem` bundles one PDE: input layout (spatial coordinates first,
time last when present), residual functional over the derivative bundle,
data terms, per-step sampling budget, the solution-network transform, and
the reference solution for the hold-out metric.

The loss is

    L = L_r + lambda0 * L0 + lambdab * Lb,

with every u, gradient, and second derivative coming from the smoothed-model
estimators (no autodiff anywhere).  Smoothing noise covers the full input
including time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from ..quadrature import SteinConfig, SteinPlan
from . import black_scholes as bs
from . import burgers as bg
from . import darcy as dc
from . import hjb
from .raster import Raster, load_raster

__all__ = [
    "LossWeights",
    "SamplingBudget",
    "PinnProblem",
    "OracleNotBuilt",
    "StepInputs",
    "get_problem",
    "step_inputs",
    "pinn_loss",
    "relative_l2",
    "reference_solution",
    "holdout_reference",
    "PROBLEM_NAMES",
]

HOLDOUT_SEED = 90210  # fixed seed for the HJB random hold-out cloud


class OracleNotBuilt(RuntimeError):
    """Raised when a gridded reference is requested before `oracle build` ran."""


@dataclass(frozen=True)
class LossWeights:
    lambda0: float = 1.0
    lambdab: float = 1.0

    def __post_init__(self):
        if self.lambda0 < 0 or self.lambdab < 0:
            raise ValueError("loss weights must be non-negative")


@dataclass(frozen=True)
class SamplingBudget:
    residual: int
    initial: int = 0
    boundary: int = 0  # per boundary side
    fixed_grid: bool = False  # residual points come from the fixed grid (Darcy)


@dataclass(frozen=True)
class PinnProblem:
    name: str
    spatial_dim: int
    time_dependent: bool
    lo: np.ndarray
    hi: np.ndarray
    residual: Callable  # (bundle dict, X) -> residual values (B,)
    budget: SamplingBudget
    weights: LossWeights = LossWeights()
    sigma_default: float = 1e-3
    # data terms: initial/terminal values and boundary sides
    initial_time: float | None = None  # t at which the data term applies (0 or T)
    initial_target: Callable | None = None  # (X spatial part) -> values
    boundary_sides: tuple = ()  # tuples (coord index, value, target fn of X)
    transform: Callable = staticmethod(lambda net: net)  # raw net -> solution network
    reference: Callable | None = None  # (X) -> exact values, or None until oracle built
    oracle_name: str | None = None  # raster file stem for gridded references
    sample_margin: float = 0.0  # shrink the residual-sampling box inward

    @property
    def input_dim(self) -> int:
        return self.spatial_dim + (1 if self.time_dependent else 0)

    def holdout_points(self) -> np.ndarray:
        """The fixed evaluation set used for the relative-l2 metric."""
        if self.name == "black-scholes":
            return _grid_points(0.0, bs.X_MAX, 201, 0.0, bs.HORIZON, 101)
        if self.name == "hjb":
            rng = np.random.default_rng(HOLDOUT_SEED)
            return rng.uniform(size=(10_000, self.input_dim))
        if self.name == "burgers":
            return _grid_points(-1.0, 1.0, 256, 0.0, 1.0, 101)
        if self.name == "darcy":
            return _grid_points(0.0, 1.0, dc.GRID_N, 0.0, 1.0, dc.GRID_N)
        raise KeyError(self.name)


def _grid_points(a0, a1, n0, b0, b1, n1):
    A, B = np.meshgrid(np.linspace(a0, a1, n0), np.linspace(b0, b1, n1), indexing="ij")
    return np.column_stack([A.ravel(), B.ravel()])


def relative_l2(pred: np.ndarray, ref: np.ndarray) -> float:
    """||pred - ref||_2 / ||ref||_2 over a fixed evaluation set."""
    ref = np.asarray(ref, dtype=float)
    nrm = np.linalg.norm(ref)
    if nrm == 0.0:
        raise ValueError("reference norm is zero")
    return float(np.linalg.norm(np.asarray(pred, dtype=float) - ref) / nrm)


# ---------------------------------------------------------------------------
# Problem construction
# ---------------------------------------------------------------------------


def _bs_residual(bundle, X):
    x = X[:, 0]
    u, du, d2 = bundle["value"], bundle["first"], bundle["second"]
    return du[:, 1] + 0.5 * bs.VOL**2 * x**2 * d2[:, 0] + bs.RATE * x * du[:, 0] - bs.RATE * u


def _hjb_residual(bundle, X):
    du, d2 = bundle["first"], bundle["second"]
    grad_sq = np.sum(du[:, : hjb.SPATIAL_DIM] ** 2, axis=1)
    lap = np.sum(d2[:, : hjb.SPATIAL_DIM], axis=1)
    return du[:, -1] + lap - hjb.GRAD_PENALTY * grad_sq - hjb.RHS


def _burgers_residual(bundle, X):
    u, du, d2 = bundle["value"], bundle["first"], bundle["second"]
    return du[:, 1] + u * du[:, 0] - bg.NU * d2[:, 0]


def _make_darcy_residual(k_field: Raster):
    def resid(bundle, X):
        k = k_field.lookup_cell(X)
        lap = bundle["second"][:, 0] + bundle["second"][:, 1]
        return k * lap - dc.FORCING

    return resid


def get_problem(
    name: str,
    sigma: float | None = None,
    weights: LossWeights | None = None,
    budget: SamplingBudget | None = None,
    k_field: Raster | None = None,
    oracle_dir: str | Path | None = None,
    sample_margin: float = 0.0,
) -> PinnProblem:
    """Build one of the four benchmark descriptors with optional overrides."""
    if name == "black-scholes":
        prob = PinnProblem(
            name=name,
            spatial_dim=1,
            time_dependent=True,
            lo=np.array([0.0, 0.0]),
            hi=np.array([bs.X_MAX, bs.HORIZON]),
            residual=_bs_residual,
            budget=SamplingBudget(residual=100, initial=10, boundary=10),
            sigma_default=1e-3,
            initial_time=bs.HORIZON,  # terminal-value problem
            initial_target=lambda xs: bs.bs_terminal(xs[:, 0]),
            boundary_sides=(
                (0, 0.0, lambda X: np.zeros(len(X))),
                (0, bs.X_MAX, lambda X: bs.bs_boundary_hi(X[:, 1])),
            ),
            reference=lambda X: bs.bs_exact(X[:, 0], X[:, 1]),
        )
    elif name == "hjb":
        prob = PinnProblem(
            name=name,
            spatial_dim=hjb.SPATIAL_DIM,
            time_dependent=True,
            lo=np.zeros(hjb.SPATIAL_DIM + 1),
            hi=np.ones(hjb.SPATIAL_DIM + 1),
            residual=_hjb_residual,
            budget=SamplingBudget(residual=100),
            sigma_default=0.1,
            transform=hjb.hjb_transform,
            reference=lambda X: hjb.hjb_exact(X[:, :-1], X[:, -1]),
        )
    elif name == "burgers":
        prob = PinnProblem(
            name=name,
            spatial_dim=1,
            time_dependent=True,
            lo=np.array([-1.0, 0.0]),
            hi=np.array([1.0, 1.0]),
            residual=_burgers_residual,
            budget=SamplingBudget(residual=1200, initial=100, boundary=100),
            sigma_default=1e-3,
            initial_time=0.0,
            initial_target=lambda xs: bg.burgers_initial(xs[:, 0]),
            boundary_sides=(
                (0, -1.0, lambda X: np.zeros(len(X))),
                (0, 1.0, lambda X: np.zeros(len(X))),
            ),
            oracle_name="burgers_reference",
        )
    elif name == "darcy":
        field_r = k_field if k_field is not None else dc.default_permeability()
        prob = PinnProblem(
            name=name,
            spatial_dim=2,
            time_dependent=False,
            lo=np.zeros(2),
            hi=np.ones(2),
            residual=_make_darcy_residual(field_r),
            budget=SamplingBudget(residual=dc.GRID_N * dc.GRID_N, fixed_grid=True),
            sigma_default=1e-3,
            transform=dc.darcy_transform,
            oracle_name="darcy_reference",
        )
    else:
        raise KeyError(f"unknown problem {name!r}")

    if sigma is not None:
        prob = replace(prob, sigma_default=sigma)
    if weights is not None:
        prob = replace(prob, weights=weights)
    if budget is not None:
        prob = replace(prob, budget=budget)
    if sample_margin:
        prob = replace(prob, sample_margin=sample_margin)
    if prob.oracle_name is not None and oracle_dir is not None:
        path = Path(oracle_dir) / f"{prob.oracle_name}.txt"
        if path.exists():
            raster = load_raster(path)
            prob = replace(prob, reference=lambda X, r=raster: r.interp(X))
    return prob


PROBLEM_NAMES = ("black-scholes", "hjb", "burgers", "darcy")


def reference_solution(problem: PinnProblem, points: np.ndarray) -> np.ndarray:
    if problem.reference is None:
        raise OracleNotBuilt(
            f"reference for {problem.name!r} is not available; run `oracle build` "
            "and pass oracle_dir to get_problem"
        )
    return np.asarray(problem.reference(np.atleast_2d(points)), dtype=float)


_HOLDOUT_REFERENCE: dict[str, np.ndarray] = {}


def holdout_reference(problem: PinnProblem) -> tuple[np.ndarray, np.ndarray]:
    """The hold-out points and the reference values on them.

    A closed-form reference (Black-Scholes, HJB) is computed once per process
    and problem name, like `quadrature.cached_grid`, and returned read-only;
    the gridded Burgers and Darcy references come from oracle files and are
    read anew.  The points are rebuilt on every call: they cost a fifth of
    the Black-Scholes reference, and kept they would hold 325 kB through
    every ZO step, which the peak RSS of a run shows.
    """
    points = problem.holdout_points()
    ref = _HOLDOUT_REFERENCE.get(problem.name)
    if ref is None:
        ref = reference_solution(problem, points)
        if problem.oracle_name is None:  # a closed form, fixed by the problem name
            ref.flags.writeable = False
            _HOLDOUT_REFERENCE[problem.name] = ref
    return points, ref


# ---------------------------------------------------------------------------
# Sampling and the loss
# ---------------------------------------------------------------------------


def sample_batch(problem: PinnProblem, seed: int, step: int = 0) -> dict[str, np.ndarray]:
    """Draw the per-step collocation/data points; keyed by (seed, step)."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, step)))
    out: dict[str, np.ndarray] = {}
    lo, hi = problem.lo, problem.hi
    if problem.sample_margin:
        span = hi - lo
        lo = lo + problem.sample_margin * span
        hi = hi - problem.sample_margin * span
    if problem.budget.fixed_grid:
        grid = problem.holdout_points()
        n = problem.budget.residual
        if n >= len(grid):
            out["residual"] = grid
        else:
            out["residual"] = grid[rng.choice(len(grid), size=n, replace=False)]
    else:
        out["residual"] = rng.uniform(lo, hi, size=(problem.budget.residual, problem.input_dim))
    if problem.budget.initial and problem.initial_time is not None:
        pts = rng.uniform(lo, hi, size=(problem.budget.initial, problem.input_dim))
        pts[:, -1] = problem.initial_time
        out["initial"] = pts
    if problem.budget.boundary and problem.boundary_sides:
        sides = []
        for coord, value, _ in problem.boundary_sides:
            pts = rng.uniform(lo, hi, size=(problem.budget.boundary, problem.input_dim))
            pts[:, coord] = value
            sides.append(pts)
        out["boundary"] = np.concatenate(sides)
    return out


@dataclass(frozen=True)
class StepInputs:
    """Everything a loss query at one (seed, step) needs besides the network.

    `points` stacks the Stein evaluation points of the residual centers, then
    of each data term's centers; `data` holds per data term its name, its
    rows among the centers and its target values.
    """

    plan: SteinPlan
    points: np.ndarray  # (centers * plan.n_queries, input_dim)
    residual: np.ndarray  # residual centers, the first rows of the centers
    data: tuple  # (term name, slice of the centers, target values)


def step_inputs(problem: PinnProblem, stein_cfg: SteinConfig, batch_seed: int, step: int = 0) -> StepInputs:
    """Batch, Stein plan, evaluation points and data targets of one step; keyed by (seed, step)."""
    batch = sample_batch(problem, batch_seed, step)
    plan = SteinPlan(stein_cfg, problem.input_dim, call_index=step)
    data = []
    pos = len(batch["residual"])
    if "initial" in batch:
        n = len(batch["initial"])
        data.append(("initial", slice(pos, pos + n), problem.initial_target(batch["initial"])))
        pos += n
    if "boundary" in batch:
        per_side = problem.budget.boundary
        targets = np.concatenate(
            [
                side_target(batch["boundary"][i * per_side : (i + 1) * per_side])
                for i, (_, _, side_target) in enumerate(problem.boundary_sides)
            ]
        )
        data.append(("boundary", slice(pos, pos + len(targets)), targets))
    centers = np.concatenate([batch[k] for k in ("residual", "initial", "boundary") if k in batch])
    return StepInputs(plan, plan.eval_points(centers), batch["residual"], tuple(data))


def pinn_loss(
    solution,
    problem: PinnProblem,
    stein_cfg: SteinConfig,
    batch_seed: int,
    step: int = 0,
    inputs: StepInputs | None = None,
) -> tuple[float, dict[str, float]]:
    """Weighted smoothed-residual loss with per-term breakdown.

    `solution` is the (transformed) solution network mapping (B, input_dim)
    to (B,) values; all derivatives go through the smoothing estimators.
    `inputs` are the step's inputs from `step_inputs`, built here when not
    given; every query of a ZO step shares them.
    """
    if inputs is None:
        inputs = step_inputs(problem, stein_cfg, batch_seed, step)
    plan = inputs.plan
    values = np.asarray(solution(inputs.points), dtype=float).reshape(-1)  # the (P*n,) layout combine() expects

    parts = [(slice(0, len(inputs.residual)), ("value", "first", "second"))]
    parts += [(rows, ("value",)) for _, rows, _ in inputs.data]
    bundle, *data = plan.combine(values, parts)
    r = problem.residual(bundle, inputs.residual)
    terms = {"residual": float(np.mean(r**2))}
    for (name, _, target), u in zip(inputs.data, data):
        terms[name] = float(np.mean((u["value"] - target) ** 2))

    total = (
        terms["residual"]
        + problem.weights.lambda0 * terms.get("initial", 0.0)
        + problem.weights.lambdab * terms.get("boundary", 0.0)
    )
    terms["total"] = float(total)
    return float(total), terms
