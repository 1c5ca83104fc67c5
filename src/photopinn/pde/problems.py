"""Benchmark descriptors, collocation sampling, and the smoothed PINN loss.

A `PinnProblem` bundles one PDE: its input box (spatial coordinates first,
time last when present), the residual functional over the derivative bundle,
the residual points per step, its data terms, the solution-network
transform, and the hold-out set with its reference solution.

A data term (`DataTerm`) fits the solution to target values on faces of the
box.  Each side is (coord, value, target): its points have coordinate
`coord` fixed at `value` (coord -1 is time, so an initial or terminal
condition is a one-side term) and `target` gives the wanted values there.
Black-Scholes (terminal payoff) and Burgers (initial profile) have an
`initial` term and a two-side `boundary` term; HJB and Darcy build their
data into the network transform and have none.

The points of one (seed, step) come from one generator in a fixed order:
the residual points, then each term's sides in order (`initial` before
`boundary`), `points` rows per side.  Each is uniform on the box shrunk by
`sample_margin`, with a side's coordinate then set to its value; Darcy's
residual points are a subsample of its fixed grid instead.

The loss is

    L = L_r + lambda0 * L0 + lambdab * Lb,

each term's weight times its mean squared misfit added to the residual's in
term order, with every u, gradient, and second derivative coming from the
smoothed-model estimators (no autodiff anywhere).  Smoothing noise covers
the full input including time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from ..quadrature import SteinConfig, SteinPlan, stein_plan
from . import black_scholes as bs
from . import burgers as bg
from . import darcy as dc
from . import hjb
from .oracles import ORACLES, oracle_path
from .raster import Raster, load_raster

__all__ = [
    "DataTerm",
    "PinnProblem",
    "OracleNotBuilt",
    "StepInputs",
    "get_problem",
    "sample_batch",
    "step_inputs",
    "pinn_loss",
    "score",
    "relative_l2",
    "holdout_reference",
    "PROBLEM_NAMES",
]

HOLDOUT_SEED = 90210  # fixed seed for the HJB random hold-out cloud
# Rows per block a plain query hands `score`, so its combines never hold more
# than a few arrays of this many floats (a Monte-Carlo Black-Scholes query
# has 532,610 rows).
_SCORE_ROWS = 1 << 14


class OracleNotBuilt(RuntimeError):
    """Raised when a gridded reference is requested before `oracle build` ran."""


@dataclass(frozen=True)
class DataTerm:
    """One data term: `points` rows per side, fitted to each side's target."""

    name: str
    sides: tuple  # (coord, value, target fn of the side's (n, input_dim) points)
    points: int
    weight: float = 1.0


@dataclass(frozen=True)
class PinnProblem:
    name: str
    lo: np.ndarray
    hi: np.ndarray
    residual: Callable  # (bundle dict, X) -> residual values (..., P) for P centers X, any leading query axes
    residual_points: int
    holdout_points: Callable  # () -> the fixed evaluation set of the relative-l2 metric
    data: tuple[DataTerm, ...] = ()
    fixed_grid: bool = False  # residual points are a subsample of the hold-out grid (Darcy)
    sigma_default: float = 1e-3
    transform: Callable = staticmethod(lambda net: net)  # raw net -> solution network
    reference: Callable | None = None  # (X) -> exact values, or None until oracle built
    sample_margin: float = 0.0  # shrink the sampling box inward

    @property
    def input_dim(self) -> int:
        return len(self.lo)


def _grid_points(a, b):
    A, B = np.meshgrid(a, b, indexing="ij")
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
    return du[..., 1] + 0.5 * bs.VOL**2 * x**2 * d2[..., 0] + bs.RATE * x * du[..., 0] - bs.RATE * u


def _hjb_residual(bundle, X):
    du, d2 = bundle["first"], bundle["second"]
    grad_sq = np.sum(du[..., : hjb.SPATIAL_DIM] ** 2, axis=-1)
    lap = np.sum(d2[..., : hjb.SPATIAL_DIM], axis=-1)
    return du[..., -1] + lap - hjb.GRAD_PENALTY * grad_sq - hjb.RHS


def _burgers_residual(bundle, X):
    u, du, d2 = bundle["value"], bundle["first"], bundle["second"]
    return du[..., 1] + u * du[..., 0] - bg.NU * d2[..., 0]


def _make_darcy_residual(k_field: Raster):
    def resid(bundle, X):
        k = k_field.lookup_cell(X)
        lap = bundle["second"][..., 0] + bundle["second"][..., 1]
        return k * lap - dc.FORCING

    return resid


def _zeros(X):
    return np.zeros(len(X))


def get_problem(
    name: str,
    sigma: float = 0.0,
    points: dict[str, int] | None = None,
    weights: dict[str, float] | None = None,
    oracle_dir: str | Path | None = None,
    sample_margin: float = 0.0,
) -> PinnProblem:
    """Build one of the four benchmark descriptors with optional overrides.

    `points` maps 'residual' or a data term's name to its points per step
    (per side for a data term) and `weights` a data term's name to its
    weight; a name the problem lacks is ignored.  A `sigma` or a count of 0
    keeps the problem's own.
    """
    if name == "black-scholes":
        prob = PinnProblem(
            name=name,
            lo=np.array([0.0, 0.0]),
            hi=np.array([bs.X_MAX, bs.HORIZON]),
            residual=_bs_residual,
            residual_points=100,
            holdout_points=lambda: _grid_points(
                np.linspace(0.0, bs.X_MAX, 201), np.linspace(0.0, bs.HORIZON, 101)
            ),
            data=(
                # a terminal-value problem: the payoff at t = T
                DataTerm("initial", ((-1, bs.HORIZON, lambda X: bs.bs_terminal(X[:, 0])),), 10),
                DataTerm(
                    "boundary", ((0, 0.0, _zeros), (0, bs.X_MAX, lambda X: bs.bs_boundary_hi(X[:, 1]))), 10
                ),
            ),
            reference=lambda X: bs.bs_exact(X[:, 0], X[:, 1]),
        )
    elif name == "hjb":
        prob = PinnProblem(
            name=name,
            lo=np.zeros(hjb.SPATIAL_DIM + 1),
            hi=np.ones(hjb.SPATIAL_DIM + 1),
            residual=_hjb_residual,
            residual_points=100,
            holdout_points=lambda: np.random.default_rng(HOLDOUT_SEED).uniform(
                size=(10_000, hjb.SPATIAL_DIM + 1)
            ),
            sigma_default=0.1,
            transform=hjb.hjb_transform,
            reference=lambda X: hjb.hjb_exact(X[:, :-1], X[:, -1]),
        )
    elif name == "burgers":
        prob = PinnProblem(
            name=name,
            lo=np.array([-1.0, 0.0]),
            hi=np.array([1.0, 1.0]),
            residual=_burgers_residual,
            residual_points=1200,
            holdout_points=lambda: _grid_points(*bg.holdout_axes()),
            data=(
                DataTerm("initial", ((-1, 0.0, lambda X: bg.burgers_initial(X[:, 0])),), 100),
                DataTerm("boundary", ((0, -1.0, _zeros), (0, 1.0, _zeros)), 100),
            ),
        )
    elif name == "darcy":
        axis = np.linspace(0.0, 1.0, dc.GRID_N)
        prob = PinnProblem(
            name=name,
            lo=np.zeros(2),
            hi=np.ones(2),
            residual=_make_darcy_residual(dc.default_permeability()),
            residual_points=dc.GRID_N * dc.GRID_N,
            holdout_points=lambda: _grid_points(axis, axis),
            fixed_grid=True,
            transform=dc.darcy_transform,
        )
    else:
        raise KeyError(f"unknown problem {name!r}")

    points = points or {}
    weights = weights or {}
    data = tuple(
        replace(term, points=points.get(term.name) or term.points, weight=weights.get(term.name, term.weight))
        for term in prob.data
    )
    prob = replace(
        prob,
        residual_points=points.get("residual") or prob.residual_points,
        data=data,
        sigma_default=sigma or prob.sigma_default,
        sample_margin=sample_margin,
    )
    if name in ORACLES and oracle_dir is not None:
        path = oracle_path(oracle_dir, name)
        if path.exists():
            raster = load_raster(path)
            prob = replace(prob, reference=lambda X, r=raster: r.interp(X))
    return prob


PROBLEM_NAMES = ("black-scholes", "hjb", "burgers", "darcy")


_HOLDOUT_REFERENCE: dict[str, np.ndarray] = {}


def holdout_reference(problem: PinnProblem) -> tuple[np.ndarray, np.ndarray]:
    """The hold-out points and the reference values on them.

    A closed-form reference (Black-Scholes, HJB) is computed once per process
    and problem name, like a sparse-grid Stein plan (`quadrature.stein_plan`),
    and returned read-only;
    the gridded Burgers and Darcy references come from oracle files and are
    read anew.  The points are rebuilt on every call: they cost a fifth of
    the Black-Scholes reference, and kept they would hold 325 kB through
    every ZO step, which the peak RSS of a run shows.
    """
    points = problem.holdout_points()
    ref = _HOLDOUT_REFERENCE.get(problem.name)
    if ref is None:
        if problem.reference is None:
            raise OracleNotBuilt(
                f"reference for {problem.name!r} is not available; run `oracle build` "
                "and pass oracle_dir to get_problem"
            )
        ref = np.asarray(problem.reference(points), dtype=float)
        if problem.name not in ORACLES:  # a closed form, fixed by the problem name
            ref.flags.writeable = False
            _HOLDOUT_REFERENCE[problem.name] = ref
    return points, ref


# ---------------------------------------------------------------------------
# Sampling and the loss
# ---------------------------------------------------------------------------


def sample_batch(problem: PinnProblem, seed: int, step: int = 0) -> dict[str, np.ndarray]:
    """Draw the per-step points, keyed by (seed, step): the residual centers,
    then per data term its sides' points, stacked in side order."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, step)))
    inset = problem.sample_margin * (problem.hi - problem.lo)
    lo, hi = problem.lo + inset, problem.hi - inset
    n = problem.residual_points
    if problem.fixed_grid:
        grid = problem.holdout_points()
        out = {"residual": grid if n >= len(grid) else grid[rng.choice(len(grid), size=n, replace=False)]}
    else:
        out = {"residual": rng.uniform(lo, hi, size=(n, problem.input_dim))}
    for term in problem.data:
        sides = []
        for coord, value, _ in term.sides:
            pts = rng.uniform(lo, hi, size=(term.points, problem.input_dim))
            pts[:, coord] = value
            sides.append(pts)
        out[term.name] = np.concatenate(sides)
    return out


@dataclass(frozen=True)
class StepInputs:
    """Everything a loss query at one (seed, step) needs besides the network.

    `points` stacks the Stein evaluation points of the residual centers, then
    of each data term's centers; `data` holds per data term the term, its
    rows among the centers and its target values.
    """

    plan: SteinPlan
    points: np.ndarray  # (centers * plan.n_queries, input_dim)
    residual: np.ndarray  # residual centers, the first rows of the centers
    data: tuple  # (DataTerm, slice of the centers, target values)


def step_inputs(problem: PinnProblem, stein_cfg: SteinConfig, batch_seed: int, step: int = 0) -> StepInputs:
    """Batch, Stein plan, evaluation points and data targets of one step; keyed by (seed, step)."""
    batch = sample_batch(problem, batch_seed, step)
    plan = stein_plan(stein_cfg, problem.input_dim, call_index=step)
    data = []
    pos = len(batch["residual"])
    for term in problem.data:
        sides = batch[term.name].reshape(len(term.sides), term.points, problem.input_dim)
        targets = np.concatenate([target(pts) for (_, _, target), pts in zip(term.sides, sides)])
        data.append((term, slice(pos, pos + len(targets)), targets))
        pos += len(targets)
    centers = np.concatenate(list(batch.values()))
    return StepInputs(plan, plan.eval_points(centers), batch["residual"], tuple(data))


def pinn_loss(
    solution,
    problem: PinnProblem,
    stein_cfg: SteinConfig,
    batch_seed: int,
    step: int = 0,
    inputs: StepInputs | None = None,
) -> tuple[float, dict[str, float]]:
    """Weighted smoothed-residual loss with per-term breakdown: one query of `score`.

    `solution` is the (transformed) solution network mapping (rows,
    input_dim) to (rows,) values; all derivatives go through the smoothing estimators.
    `inputs` are the step's inputs from `step_inputs`, built here when not
    given; every query of a ZO step shares them.  The values go to `score`
    in slices of `_SCORE_ROWS` rows, which bound what its combines hold: a
    default Monte-Carlo Black-Scholes query (532,610 rows) peaks below twice
    its values' bytes (tests/test_score.py).
    """
    if inputs is None:
        inputs = step_inputs(problem, stein_cfg, batch_seed, step)
    values = np.asarray(solution(inputs.points), dtype=float).reshape(1, -1)
    slices = (values[:, lo : lo + _SCORE_ROWS] for lo in range(0, values.shape[-1], _SCORE_ROWS))
    total, terms = score(problem, inputs, slices)
    return float(total[0]), {name: float(value[0]) for name, value in terms.items()}


def score(problem: PinnProblem, inputs: StepInputs, blocks) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The loss of the queries whose solution values at `inputs.points` come
    as the iterable `blocks` of row blocks, in row order: arrays (..., block
    rows), with the same leading query axes each, such as the (probes, 2)
    queries of a ZO step.

    Returns each query's total and its terms, arrays of the leading shape.
    Each center is combined (`SteinPlan.combine`, every estimator) as soon
    as all its `plan.n_queries` rows have come, with the other whole centers
    of its block; the rows of a center not yet whole are copied and held
    until the next block, so a block may be a buffer its producer
    overwrites later.  `combine` gives each center the same bits in any
    call, so the estimates of all centers, joined, and the terms taken from
    them (the residual centers, then each data term's rows) equal a call
    with one block of all rows bit for bit.
    """
    n = inputs.plan.n_queries
    got = []  # the estimates of each combine call, in center order
    held, count = [], 0  # the rows not yet combined, and how many
    for block in blocks:
        held.append(block)
        count += block.shape[-1]
        if count >= n:
            values = np.concatenate(held, axis=-1) if len(held) > 1 else block
            cut = count - count % n
            got.append(inputs.plan.combine(values[..., :cut]))
            held, count = [values[..., cut:]], count - cut
        held[-1] = held[-1].copy()  # the block's producer may overwrite it
    if count:
        raise ValueError(f"the values end inside a center, {count} of its {n} rows")
    value = np.concatenate([e["value"] for e in got], axis=-1)
    residual = slice(0, len(inputs.residual))
    bundle = {key: np.concatenate([e[key] for e in got], axis=-2)[..., residual, :] for key in ("first", "second")}
    bundle["value"] = value[..., residual]
    r = problem.residual(bundle, inputs.residual)
    terms = {"residual": np.mean(r**2, axis=-1)}
    total = terms["residual"]
    for term, rows, target in inputs.data:
        terms[term.name] = np.mean((value[..., rows] - target) ** 2, axis=-1)
        total = total + term.weight * terms[term.name]
    terms["total"] = total
    return total, terms
